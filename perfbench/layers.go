package main

// layerDef is one per-layer metric. Its value for a unit is f of the
// unit's span totals; the reported value is the median over the run's
// operations, or over its set-ups when the span occurs only in set-up
// (the fit of serve, the encoding of mine-dense). A layer the workload
// never calls reports 0.
type layerDef struct {
	name, unit string
	span       string
	f          func(u unitTotals) float64
}

func msOf(u unitTotals, span string) float64 { return float64(u.ns[span]) / 1e6 }

// perItem is span's time per unit of work, in ns.
func perItem(u unitTotals, span string) float64 {
	if u.n[span] == 0 {
		return 0
	}
	return float64(u.ns[span]) / float64(u.n[span])
}

func spanMS(name, unit, span string) layerDef {
	return layerDef{name, unit, span, func(u unitTotals) float64 { return msOf(u, span) }}
}

func countOf(name, span, counter string) layerDef {
	return layerDef{name, "count", span, func(u unitTotals) float64 { return float64(u.counts[counter]) }}
}

var layerDefs = []layerDef{
	spanMS("mining.mine_ms", "ms", spanMine),
	countOf("mining.patterns", spanMine, cntPatterns),
	{"mining.patterns_per_s", "1/s", spanMine, func(u unitTotals) float64 {
		return float64(u.counts[cntPatterns]) / (float64(u.ns[spanMine]) / 1e9)
	}},
	spanMS("dataset.cover_ms", "ms", spanCover),
	spanMS("dataset.encode_ms", "ms", spanEncode),
	spanMS("discretize.fit_ms", "ms", spanDiscFit),
	spanMS("discretize.apply_ms", "ms", spanDiscApply),
	spanMS("featsel.mmrfs_ms", "ms", spanMMRFS),
	{"featsel.candidates", "count", spanMMRFS, func(u unitTotals) float64 { return float64(u.n[spanMMRFS]) }},
	countOf("featsel.selected", spanMMRFS, cntSelected),
	{"featsel.us_per_candidate", "us", spanMMRFS, func(u unitTotals) float64 { return perItem(u, spanMMRFS) / 1e3 }},
	spanMS("svm.train_ms", "ms", spanTrain),
	countOf("svm.iterations", spanTrain, cntIters),
	countOf("svm.support_vectors", spanTrain, cntSV),
	countOf("svm.binary_problems", spanTrain, cntPairs),
	{"svm.score_ns_per_row", "ns", spanScore, func(u unitTotals) float64 { return perItem(u, spanScore) }},
	spanMS("patmatch.compile_ms", "ms", spanCompile),
	countOf("patmatch.nodes", spanCompile, cntNodes),
	{"patmatch.match_ns_per_row", "ns", spanMatch, func(u unitTotals) float64 { return perItem(u, spanMatch) }},
	{"patmatch.fired_per_row", "count", spanMatch, func(u unitTotals) float64 {
		if u.n[spanMatch] == 0 {
			return 0
		}
		return float64(u.counts[cntFired]) / float64(u.n[spanMatch])
	}},
	spanMS("core.fit_ms", "ms", spanCoreFit),
	{"core.fit_other_ms", "ms", spanCoreFit, func(u unitTotals) float64 {
		return float64(u.ns[spanCoreFit]-u.rebuildNS) / 1e6
	}},
	spanMS("core.save_ms", "ms", spanCoreSave),
	spanMS("core.load_ms", "ms", spanCoreLoad),
}

// The core predict metrics come from the untimed-by-spans core calls a
// traced serve run makes beside its rebuilt batches.
var corePredictDefs = []metricDef{
	{"core.predict1_ns_per_row", "ns"},
	{"core.predict1024_ns_per_row", "ns"},
	{"core.predict_other_ns_per_row", "ns"},
}

// perLayerDefs lists every per-layer metric in BENCHMARK.json order.
func perLayerDefs() []metricDef {
	out := make([]metricDef, 0, len(layerDefs)+len(corePredictDefs))
	for _, d := range layerDefs {
		out = append(out, metricDef{d.name, d.unit})
	}
	return append(out, corePredictDefs...)
}

func (r *runState) perLayer() map[string]metric {
	totals := r.tr.totals()
	out := map[string]metric{}
	pick := func(span string) []unitTotals {
		var ops, setups []unitTotals
		for _, u := range totals {
			if _, ok := u.ns[span]; !ok {
				continue
			}
			if u.kind == "op" {
				ops = append(ops, u)
			} else {
				setups = append(setups, u)
			}
		}
		if len(ops) > 0 {
			return ops
		}
		return setups
	}
	for _, d := range layerDefs {
		var vs []float64
		for _, u := range pick(d.span) {
			vs = append(vs, d.f(u))
		}
		out[d.name] = metric{median(vs), d.unit}
	}
	p1 := quantileNS(r.predict1NS.xs, 0.5)
	p1024 := quantileNS(r.predict1024NS.xs, 0.5) / serveBatch
	other := 0.0
	if r.predict1024NS.seen > 0 {
		other = p1024 - out["patmatch.match_ns_per_row"].Value - out["svm.score_ns_per_row"].Value
	}
	for _, d := range corePredictDefs {
		v := map[string]float64{
			"core.predict1_ns_per_row":      p1,
			"core.predict1024_ns_per_row":   p1024,
			"core.predict_other_ns_per_row": other,
		}[d.name]
		out[d.name] = metric{v, d.unit}
	}
	return out
}
