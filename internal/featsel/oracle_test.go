package featsel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dfpc/internal/bitset"
	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/mining"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
)

// eagerMMRFS is the reference Algorithm 1 loop the lazy heap replaced:
// every iteration scans the whole pool for the strict-> argmax of
// S − maxRed, and every selection eagerly updates maxRed for every
// remaining candidate, recounting both covers per pair. It records the
// same audit trail, counters and debug record as MMRFS (minus the
// lazy-evaluation work counters) and ignores Workers, Ctx and Faults.
func eagerMMRFS(cands []Candidate, classMasks []*bitset.Bitset, labels []int, opt Options) *Result {
	opt = opt.withDefaults()
	n := len(labels)
	sp := opt.Obs.Start("mmrfs")
	res := &Result{Relevance: scoreAll(cands, classMasks, opt.Relevance, 1)}
	if len(cands) == 0 {
		sp.End()
		return res
	}
	majority := make([]int, len(cands))
	for i, c := range cands {
		majority[i] = majorityClass(c.Cover, classMasks)
	}
	covered := make([]int, n)
	coverable := 0
	coverableMask := bitset.New(n)
	for i, c := range cands {
		if majority[i] < 0 {
			continue
		}
		c.Cover.ForEach(func(row int) {
			if labels[row] == majority[i] && !coverableMask.Get(row) {
				coverableMask.Set(row)
				coverable++
			}
		})
	}
	fullyCovered := 0
	maxRed := make([]float64, len(cands))
	inSel := make([]bool, len(cands))
	eagerRedundancy := func(a, b Candidate, sa, sb float64) float64 {
		inter := a.Cover.AndCount(b.Cover)
		union := a.Cover.Count() + b.Cover.Count() - inter
		if union == 0 {
			return 0
		}
		return float64(inter) / float64(union) * math.Min(sa, sb)
	}
	pick := func() int {
		best, bestGain := -1, math.Inf(-1)
		for i := range cands {
			if inSel[i] || majority[i] < 0 {
				continue
			}
			if gain := res.Relevance[i] - maxRed[i]; gain > bestGain {
				best, bestGain = i, gain
			}
		}
		return best
	}
	correctlyCoversUncovered := func(i int) bool {
		found := false
		cands[i].Cover.ForEach(func(row int) {
			if !found && labels[row] == majority[i] && covered[row] < opt.Coverage {
				found = true
			}
		})
		return found
	}
	add := func(i int) {
		inSel[i] = true
		res.Selected = append(res.Selected, i)
		cands[i].Cover.ForEach(func(row int) {
			if labels[row] == majority[i] {
				covered[row]++
				if covered[row] == opt.Coverage {
					fullyCovered++
				}
			}
		})
		for j := range cands {
			if inSel[j] || majority[j] < 0 {
				continue
			}
			if r := eagerRedundancy(cands[j], cands[i], res.Relevance[j], res.Relevance[i]); r > maxRed[j] {
				maxRed[j] = r
			}
		}
	}
	iterations := opt.Obs.Counter("mmrfs.iterations")
	rejected := opt.Obs.Counter("mmrfs.rejected_no_coverage")
	gainHist := opt.Obs.Histogram("mmrfs.gain_microbits")
	dropped := 0
	for {
		if opt.MaxFeatures > 0 && len(res.Selected) >= opt.MaxFeatures {
			break
		}
		if fullyCovered >= coverable {
			break
		}
		i := pick()
		if i < 0 {
			break
		}
		iterations.Inc()
		accepted := correctlyCoversUncovered(i)
		if opt.Obs.Enabled() {
			gain := res.Relevance[i] - maxRed[i]
			reason := "selected"
			if !accepted {
				reason = "no-uncovered-instance"
			}
			res.Audit = append(res.Audit, AuditEntry{
				Iteration: len(res.Audit) + 1, Candidate: i, Items: cands[i].Items,
				Relevance: res.Relevance[i], Redundancy: maxRed[i], Gain: gain,
				Accepted: accepted, Reason: reason,
			})
			gainHist.Observe(int64(gain * 1e6))
		}
		if accepted {
			add(i)
		} else {
			inSel[i] = true
			dropped++
			rejected.Inc()
		}
	}
	opt.Obs.Counter("mmrfs.selected").Add(int64(len(res.Selected)))
	opt.Obs.Counter("mmrfs.dropped").Add(int64(dropped))
	opt.Obs.Gauge("mmrfs.coverage_residual").Set(float64(coverable - fullyCovered))
	sp.End()
	if opt.Log != nil {
		opt.Log.Debug("MMRFS selection done",
			slog.Int("candidates", len(cands)),
			slog.Int("selected", len(res.Selected)),
			slog.Int("dropped", dropped),
			slog.Int("coverage_residual", coverable-fullyCovered))
	}
	return res
}

// pool is one candidate set with its labels and class masks.
type pool struct {
	name   string
	cands  []Candidate
	masks  []*bitset.Bitset
	labels []int
}

// minedPool discretizes a bundled dataset (optionally subsampled to
// rows), mines its closed per-class patterns, and returns them as MMRFS
// candidates — the same pool shape core.Fit selects from.
func minedPool(t *testing.T, name string, rows int, minSup float64) pool {
	t.Helper()
	d, err := datagen.ByName(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows > 0 && rows < d.NumRows() {
		keep, _, err := dataset.StratifiedSplit(d.Labels, d.NumClasses(), 1-float64(rows)/float64(d.NumRows()), 1)
		if err != nil {
			t.Fatal(err)
		}
		d = d.Subset(keep)
	}
	disc, err := discretize.Fit(d, discretize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dd, err := disc.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dataset.Encode(dd)
	if err != nil {
		t.Fatal(err)
	}
	mined, err := mining.MinePerClass(b, mining.PerClassOptions{MinSupport: minSup, Closed: true, MinLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]Candidate, len(mined))
	for i, p := range mined {
		cands[i] = Candidate{Items: p.Items, Cover: b.Cover(p.Items)}
	}
	return pool{name: name, cands: cands, masks: b.ClassMasks, labels: b.Labels}
}

// runSnapshot is everything a selection run exposes: the result, the
// audit as JSON, the mmrfs counters/gauges/gain histogram, and the
// debug record's dropped count (-1 without a logger).
type runSnapshot struct {
	selected  []int
	relevance []float64
	auditJSON []byte
	counters  map[string]int64
	gauges    map[string]float64
	gainHist  obs.HistogramSnapshot
	dropped   int
}

// lazyCounters are recorded by MMRFS only; the eager oracle has no
// equivalent work to count.
var lazyCounters = []string{"mmrfs.gain_evals", "mmrfs.redundancy_evals"}

func snapshot(t *testing.T, res *Result, o *obs.Observer, logBuf *bytes.Buffer) runSnapshot {
	t.Helper()
	aj, err := json.Marshal(res.Audit)
	if err != nil {
		t.Fatal(err)
	}
	s := runSnapshot{selected: res.Selected, relevance: res.Relevance, auditJSON: aj, dropped: -1}
	if r := o.Report("mmrfs"); r != nil {
		s.counters, s.gauges = r.Counters, r.Gauges
		s.gainHist = r.Histograms["mmrfs.gain_microbits"]
		for _, name := range lazyCounters {
			delete(s.counters, name)
		}
	}
	if logBuf != nil {
		var rec struct{ Dropped int }
		if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
			t.Fatalf("debug record %q: %v", logBuf.String(), err)
		}
		s.dropped = rec.Dropped
	}
	return s
}

// runBoth runs the oracle and MMRFS under opt (each with a fresh
// observer when withObs, and a fresh JSON debug logger when withLog)
// and returns both snapshots.
func runBoth(t *testing.T, p pool, opt Options, withObs, withLog bool) (want, got runSnapshot) {
	t.Helper()
	run := func(sel func(Options) *Result) runSnapshot {
		o := opt
		if withObs {
			o.Obs = obs.New()
		}
		var buf *bytes.Buffer
		if withLog {
			buf = new(bytes.Buffer)
			o.Log = slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
		}
		res := sel(o)
		return snapshot(t, res, o.Obs, buf)
	}
	want = run(func(o Options) *Result { return eagerMMRFS(p.cands, p.masks, p.labels, o) })
	got = run(func(o Options) *Result {
		res, err := MMRFS(p.cands, p.masks, p.labels, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	return want, got
}

func diffSnapshots(want, got runSnapshot) error {
	switch {
	case !reflect.DeepEqual(want.selected, got.selected):
		return fmt.Errorf("Selected = %v, oracle %v", got.selected, want.selected)
	case !reflect.DeepEqual(want.relevance, got.relevance):
		return fmt.Errorf("Relevance differs from the oracle")
	case !bytes.Equal(want.auditJSON, got.auditJSON):
		return fmt.Errorf("audit JSON differs:\n got %s\nwant %s", got.auditJSON, want.auditJSON)
	case !reflect.DeepEqual(want.counters, got.counters):
		return fmt.Errorf("counters = %v, oracle %v", got.counters, want.counters)
	case !reflect.DeepEqual(want.gauges, got.gauges):
		return fmt.Errorf("gauges = %v, oracle %v", got.gauges, want.gauges)
	case !reflect.DeepEqual(want.gainHist, got.gainHist):
		return fmt.Errorf("gain histogram = %+v, oracle %+v", got.gainHist, want.gainHist)
	case want.dropped != got.dropped:
		return fmt.Errorf("debug record dropped = %d, oracle %d", got.dropped, want.dropped)
	}
	return nil
}

// TestMMRFSMatchesEagerOracle pins the lazy heap to the eager loop on
// mined pools: identical Selected and Relevance, byte-identical audit
// JSON, identical counters and debug record, across relevance measures,
// δ, feature caps, observer on/off and worker counts.
func TestMMRFSMatchesEagerOracle(t *testing.T) {
	pools := []pool{
		minedPool(t, "austral", 0, 0.15),
		minedPool(t, "breast", 0, 0.1),
		minedPool(t, "waveform", 400, 0.1),
	}
	for _, p := range pools {
		t.Logf("%s: %d candidates", p.name, len(p.cands))
		for _, rel := range []Relevance{InfoGain, Fisher} {
			for delta := 1; delta <= 3; delta++ {
				for _, maxF := range []int{0, 7} {
					for _, withObs := range []bool{false, true} {
						for _, workers := range []parallel.Workers{1, 4} {
							name := fmt.Sprintf("%s/%v/delta=%d/max=%d/obs=%v/workers=%d", p.name, rel, delta, maxF, withObs, workers)
							opt := Options{Relevance: rel, Coverage: delta, MaxFeatures: maxF, Workers: workers}
							want, got := runBoth(t, p, opt, withObs, false)
							if err := diffSnapshots(want, got); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
						}
					}
					// A logger alone disables dead-candidate skipping, so
					// the debug record's dropped count stays exact.
					want, got := runBoth(t, p, Options{Relevance: rel, Coverage: delta, MaxFeatures: maxF}, false, true)
					if err := diffSnapshots(want, got); err != nil {
						t.Fatalf("%s/%v/delta=%d/max=%d/log: %v", p.name, rel, delta, maxF, err)
					}
				}
			}
		}
	}
}

// tiedPool draws candidates from a few base covers, so many candidates
// share a cover — and hence relevance, redundancy and gain — forcing
// the heap's lowest-index tie-break to agree with the strict-> scan.
func tiedPool(r *rand.Rand) pool {
	n := 8 + r.Intn(40)
	classes := 2 + r.Intn(3)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = r.Intn(classes)
	}
	bases := make([]*bitset.Bitset, 1+r.Intn(6))
	for i := range bases {
		bases[i] = bitset.New(n)
		for row := 0; row < n; row++ {
			if r.Intn(3) == 0 {
				bases[i].Set(row)
			}
		}
	}
	cands := make([]Candidate, 2+r.Intn(40))
	for i := range cands {
		cands[i] = Candidate{Items: []int32{int32(i)}, Cover: bases[r.Intn(len(bases))]}
	}
	return pool{name: "tied", cands: cands, masks: masksFor(labels, classes), labels: labels}
}

func TestQuickMMRFSMatchesEagerOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := tiedPool(r)
		opt := Options{
			Relevance:   Relevance(r.Intn(2)),
			Coverage:    1 + r.Intn(3),
			MaxFeatures: r.Intn(2) * (1 + r.Intn(5)),
			Workers:     parallel.Workers(1 + 3*r.Intn(2)),
		}
		want, got := runBoth(t, p, opt, r.Intn(2) == 0, r.Intn(2) == 0)
		if err := diffSnapshots(want, got); err != nil {
			t.Logf("seed %d, %+v: %v", seed, opt, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMMRFSWorkCounters: the lazy-evaluation counters are deterministic
// (equal at workers 1 and 4) and bounded by the eager loop's work — no
// pair is computed twice, so redundancy evaluations never exceed
// |Selected| × |candidates|.
func TestMMRFSWorkCounters(t *testing.T) {
	p := minedPool(t, "breast", 0, 0.1)
	var evals [2][2]int64
	for k, workers := range []parallel.Workers{1, 4} {
		o := obs.New()
		res, err := MMRFS(p.cands, p.masks, p.labels, Options{Coverage: 3, Obs: o, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		c := o.Report("mmrfs").Counters
		evals[k] = [2]int64{c["mmrfs.gain_evals"], c["mmrfs.redundancy_evals"]}
		if evals[k][0] == 0 || evals[k][1] == 0 {
			t.Fatalf("workers=%d: work counters not recorded: %v", workers, evals[k])
		}
		if bound := int64(len(res.Selected) * len(p.cands)); evals[k][1] > bound {
			t.Fatalf("workers=%d: redundancy_evals %d > |Selected|×|candidates| = %d", workers, evals[k][1], bound)
		}
	}
	if evals[0] != evals[1] {
		t.Fatalf("work counters depend on workers: %v at 1, %v at 4", evals[0], evals[1])
	}
}
