package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// call (the program under test carries no instrumentation of its own
// here). Spans of one set-up or operation share a Unit. N is the
// amount of work the call handled: rows for Match and Score,
// candidates for Cover and MMRFS, patterns for MinePerClass.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Unit   int32  `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

// unit is one set-up or one timed operation of a traced run, with the
// exact work counts its layer calls reported.
type unit struct {
	Kind   string           `json:"kind"` // "setup" or "op"
	Counts map[string]int64 `json:"counts"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	units []unit
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginUnit starts a new set-up or operation; later spans and counts
// belong to it.
func (t *tracer) beginUnit(kind string) {
	if t == nil {
		return
	}
	t.units = append(t.units, unit{Kind: kind, Counts: map[string]int64{}})
}

// begin opens a span under parent (0 = none) and returns its ID.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Unit: int32(len(t.units) - 1), Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return id
}

// end closes span id, recording n units of work.
func (t *tracer) end(id int32, n int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.N = int64(n)
}

// count adds v to the current unit's exact work counter name.
func (t *tracer) count(name string, v int) {
	if t == nil {
		return
	}
	t.units[len(t.units)-1].Counts[name] += int64(v)
}

// write stores the spans and units as one JSON document at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	b, err := json.Marshal(struct {
		Units []unit `json:"units"`
		Spans []span `json:"spans"`
	}{t.units, t.spans})
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// unitTotals is one unit's spans summed by name.
type unitTotals struct {
	kind   string
	ns     map[string]int64 // summed duration per span name
	n      map[string]int64 // summed work per span name
	counts map[string]int64
	// rebuildNS is the time of the layer calls directly under the
	// benchmark's own fit rebuilds, the part of core.Fit they explain.
	rebuildNS int64
}

// totals sums every unit's spans by name.
func (t *tracer) totals() []unitTotals {
	out := make([]unitTotals, len(t.units))
	for i, u := range t.units {
		out[i] = unitTotals{kind: u.Kind, ns: map[string]int64{}, n: map[string]int64{}, counts: u.Counts}
	}
	for _, s := range t.spans {
		u := &out[s.Unit]
		u.ns[s.Name] += s.End - s.Start
		u.n[s.Name] += s.N
		if s.Parent != 0 && t.spans[s.Parent-1].Name == spanRebuildFit {
			u.rebuildNS += s.End - s.Start
		}
	}
	return out
}

// Span names. The layer names are the public function each span
// wraps; the rebuild roots group the layer calls that stand in for one
// core.Fit or one core predict call.
const (
	spanRebuildFit     = "rebuild.Fit"
	spanRebuildPredict = "rebuild.Predict"
	spanDiscFit        = "discretize.Fit"
	spanDiscApply      = "discretize.Apply"
	spanEncode         = "dataset.Encode"
	spanRowEncode      = "rowcode.Encode" // the benchmark's copy of core's row encoder
	spanMine           = "mining.MinePerClass"
	spanCover          = "dataset.Cover"
	spanMMRFS          = "featsel.MMRFS"
	spanSort           = "mining.SortPatterns"
	spanCompile        = "patmatch.Compile"
	spanMatch          = "patmatch.Match"
	spanTrain          = "svm.Train"
	spanScore          = "svm.Scorer.Predict"
	spanCoreFit        = "core.Fit"
	spanCorePredict    = "core.Predict"
	spanCoreSave       = "core.Save"
	spanCoreLoad       = "core.Load"
)

// Exact work counters recorded per unit. They depend only on the
// inputs, so every unit of one kind in a run must agree, and so must
// two runs of one seed.
const (
	cntPatterns = "mining.patterns"
	cntSelected = "featsel.selected"
	cntSV       = "svm.support_vectors"
	cntIters    = "svm.iterations"
	cntPairs    = "svm.binary_problems"
	cntNodes    = "patmatch.nodes"
	cntFired    = "patmatch.fired"
)

// exactCounts lists the counters that must repeat exactly.
var exactCounts = []string{cntPatterns, cntSelected, cntSV, cntIters, cntNodes, cntFired}
