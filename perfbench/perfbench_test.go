package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/obs"
)

// tinyRun runs one workload on the smoke-test inputs for a short
// window.
func tinyRun(t *testing.T, name string, trace bool) *runState {
	t.Helper()
	r, err := execute(options{
		workload: name, seed: 3, window: 50 * time.Millisecond, trace: trace, tiny: true,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed", name, r.failed, r.attempted)
	}
	return r
}

// result parses the last output line, as a caller of the benchmark
// does.
func result(t *testing.T, r *runState) (correct bool, metrics map[string]metric) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res.Correct, res.Metrics
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			r := tinyRun(t, name, trace)
			correct, metrics := result(t, r)
			want := endToEndDefs
			if trace {
				want = perLayerDefs()
			}
			var got []string
			for k := range metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if !correct || !slices.Equal(got, names(want)) {
				t.Fatalf("%s trace=%v: correct=%v metrics %v, want %v", name, trace, correct, got, names(want))
			}
			if !trace {
				for k, m := range metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
}

// TestWorkCountsRepeat runs each traced workload twice on one seed:
// the exact work counts of the first set-up and the first operation
// must agree between the runs, and the fits must have done work.
func TestWorkCountsRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := tinyRun(t, name, true), tinyRun(t, name, true)
		ca, cb := a.stamp["counts"].(map[string]map[string]int64), b.stamp["counts"].(map[string]map[string]int64)
		for kind := range ca {
			for _, c := range exactCounts {
				if x, y := ca[kind][c], cb[kind][c]; x != y {
					t.Errorf("%s %s: %s = %d in one run, %d in another", name, kind, c, x, y)
				}
			}
		}
		if ca["op"][cntPatterns]+ca["setup"][cntPatterns] == 0 {
			t.Errorf("%s: no patterns mined in the traced run", name)
		}
	}
}

// TestRebuildMatchesCoreFit pins the traced run to the program it
// describes: fitting a bundled set layer by layer must select the same
// patterns, compile a matcher of the same size and train an SVM with
// as many support vectors as core.Fit.
func TestRebuildMatchesCoreFit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		minSup float64
	}{{"austral", 0.2}, {"breast", 0.3}, {"heart", 0.2}} {
		d, err := datagen.ByName(tc.name, 7)
		if err != nil {
			t.Fatal(err)
		}
		train, test, err := dataset.StratifiedSplit(d.Labels, d.NumClasses(), 0.3, 7)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		p, err := newPatFS(tc.minSup)
		if err != nil {
			t.Fatal(err)
		}
		p.SetObserver(o)
		if err := p.Fit(d, train); err != nil {
			t.Fatal(err)
		}
		want, err := p.Predict(d, test)
		if err != nil {
			t.Fatal(err)
		}

		tr := newTracer()
		tr.beginUnit("op")
		m, err := rebuildChecked(tr, d, train, test, tc.minSup, want)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var wantPats [][]int32
		for _, f := range p.Explain() {
			wantPats = append(wantPats, f.Items)
		}
		var gotPats [][]int32
		for _, pt := range m.patterns {
			gotPats = append(gotPats, pt.Items)
		}
		if len(gotPats) == 0 || !slices.EqualFunc(gotPats, wantPats, slices.Equal[[]int32]) {
			t.Errorf("%s: rebuild selected %d patterns %v, core.Fit %d", tc.name, len(gotPats), gotPats, len(wantPats))
		}
		if got, want := m.matcher.NumNodes(), p.Matcher().NumNodes(); got != want {
			t.Errorf("%s: rebuild trie has %d nodes, core.Fit's %d", tc.name, got, want)
		}
		if got, want := int64(m.svm.SupportVectors()), o.Counter("svm.support_vectors").Value(); got != want {
			t.Errorf("%s: rebuild SVM has %d support vectors, core.Fit's %d", tc.name, got, want)
		}
		if got, want := int64(len(m.patterns)), o.Counter("core.features_selected").Value(); got != want {
			t.Errorf("%s: rebuild selected %d patterns, core.Fit counted %d", tc.name, got, want)
		}
		for _, name := range []string{spanDiscFit, spanDiscApply, spanEncode, spanMine, spanCover,
			spanMMRFS, spanSort, spanCompile, spanMatch, spanTrain, spanRowEncode, spanScore} {
			if !slices.ContainsFunc(tr.spans, func(s span) bool { return s.Name == name && s.End >= s.Start }) {
				t.Errorf("%s: no %s span", tc.name, name)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's
// metric lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !slices.Equal(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wl, workloadNames())
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndDefs}, {"per_layer", spec.PerLayer, perLayerDefs()}} {
		var got []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !slices.Equal(got, c.defs) {
			t.Errorf("BENCHMARK.json %s %v, program %v", c.what, got, c.defs)
		}
	}
}

func TestQuantileNS(t *testing.T) {
	ns := []int64{5, 1, 4, 2, 3}
	if got := quantileNS(ns, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantileNS(ns, 0.99); got != 5 {
		t.Errorf("p99 of 5 samples = %v, want the slowest, 5", got)
	}
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if got := quantileNS(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}
