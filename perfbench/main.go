// Command perfbench is the repository benchmark. It drives the dfpc
// layers through three workloads (mine-dense, fit-cv and serve, see
// README.md), checks every operation's output, and prints one JSON
// result line. With --trace 1 it instead rebuilds each operation from
// the public call of every layer, records a span per call, and reports
// per-layer metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fit-cv --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// commit is the source revision, set at build time by run.sh.
var commit = "unknown"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	traceOut string
	tiny     bool // small inputs, for the smoke tests
}

// Set-up runs at least minSetups times and until setupBudget is spent
// (at most maxSetups), so that setup_s is a median even when one
// set-up takes milliseconds.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 2 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: rebuild each operation from layer calls and report per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/traces/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	o.window = time.Duration(*seconds * float64(time.Second))
	o.trace = *trace == 1
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/traces/%s-seed%d.json", o.workload, o.seed)
	}
	res, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// workload is one benchmark workload. execute calls setUp several
// times (timing each), then measure once, then finish.
type workload interface {
	// setUp builds the inputs from the seed, and for serve the model.
	setUp(r *runState) error
	// measure runs timed operations for r.o.window.
	measure(r *runState) error
	// finish runs the untimed checks and records the model shape.
	finish(r *runState) error
}

func workloadNames() []string { return []string{"mine-dense", "fit-cv", "serve"} }

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "mine-dense":
		return newMineDense(o), nil
	case "fit-cv":
		return newFitCV(o), nil
	case "serve":
		return newServe(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
}

// runState is what one run measures and checks.
type runState struct {
	o  options
	tr *tracer // nil unless traced

	setupS    []float64
	attempted int
	failed    int

	// untraced end-to-end figures, filled by the workload
	opNS       samples // timed operations
	rowsPerS   float64
	accuracy   float64 // percent
	allocBytes uint64  // allocated during the counted operations
	allocOps   int
	maxRSSMB   float64

	// untraced core predict latencies of a traced serve run
	predict1NS, predict1024NS samples

	// serve: the 99th percentile of each 1-row segment; when set,
	// op_p99_ms is their median rather than the pooled percentile
	segP99NS []float64

	stamp map[string]any
}

// fail counts one failed operation and says why on standard error.
func (r *runState) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
}

// check compares an operation's output digest with the first one of
// its kind; a difference counts as a failed operation.
func (r *runState) check(what string, first *uint64, got uint64) {
	if *first == 0 {
		*first = got
	} else if got != *first {
		r.fail("%s: digest %016x differs from the first operation's %016x", what, got, *first)
	}
}

func execute(o options) (*runState, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	r := &runState{o: o, stamp: map[string]any{}}
	if o.trace {
		r.tr = newTracer()
	}
	start := time.Now()
	for len(r.setupS) < minSetups || (time.Since(start) < setupBudget && len(r.setupS) < maxSetups) {
		runtime.GC()
		r.tr.beginUnit("setup")
		t0 := time.Now()
		if err := w.setUp(r); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	if err := w.measure(r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	r.maxRSSMB = maxRSSMB()
	if r.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed", o.workload)
	}
	if err := w.finish(r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if r.tr != nil {
		r.stamp["counts"] = r.checkExactCounts()
		if err := r.tr.write(o.traceOut); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// loopOps runs op back to back for the window, with a collection
// before each so that every operation starts from the same heap. It
// starts no operation that the last one's duration says would end
// after the window, but always runs at least one.
func (r *runState) loopOps(op func() error) {
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(r.o.window)
	for {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		r.tr.beginUnit("op")
		t0 := time.Now()
		err := op()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		r.attempted++
		r.allocOps++
		r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		if err != nil {
			r.fail("operation %d: %v", r.attempted, err)
		}
		r.opNS.add(d.Nanoseconds())
		if time.Now().Add(d).After(deadline) {
			return
		}
	}
}

// checkExactCounts asserts that every unit of one kind reported the
// same exact work counts; each unit that differs is a failed operation.
// It returns the first unit's counts of each kind.
func (r *runState) checkExactCounts() map[string]map[string]int64 {
	first := map[string]map[string]int64{}
	for i, u := range r.tr.units {
		f, ok := first[u.Kind]
		if !ok {
			first[u.Kind] = u.Counts
			continue
		}
		for _, c := range exactCounts {
			if u.Counts[c] != f[c] {
				r.fail("%s unit %d: %s = %d, first %s reported %d", u.Kind, i, c, u.Counts[c], u.Kind, f[c])
				break
			}
		}
	}
	return first
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"rows_per_s", "1/s"},
	{"accuracy", "%"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
}

func (r *runState) endToEnd() map[string]metric {
	p99 := quantileNS(r.opNS.xs, 0.99)
	if len(r.segP99NS) > 0 {
		p99 = median(r.segP99NS)
	}
	v := map[string]float64{
		"setup_s":         median(r.setupS),
		"op_p50_ms":       quantileNS(r.opNS.xs, 0.5) / 1e6,
		"op_p99_ms":       p99 / 1e6,
		"rows_per_s":      r.rowsPerS,
		"accuracy":        r.accuracy,
		"alloc_mb_per_op": float64(r.allocBytes) / float64(max(r.allocOps, 1)) / 1e6,
		"max_rss_mb":      r.maxRSSMB,
	}
	out := map[string]metric{}
	for _, d := range endToEndDefs {
		out[d.name] = metric{v[d.name], d.unit}
	}
	return out
}

func (r *runState) print(w io.Writer) error {
	r.stamp["workload"] = r.o.workload
	r.stamp["seed"] = r.o.seed
	r.stamp["trace"] = r.o.trace
	r.stamp["window_s"] = r.o.window.Seconds()
	r.stamp["setups"] = len(r.setupS)
	r.stamp["op_count"] = r.opNS.seen
	r.stamp["attempted"] = r.attempted
	r.stamp["error_rate"] = float64(r.failed) / float64(r.attempted)
	for k, v := range machineStamp() {
		r.stamp[k] = v
	}
	metrics := r.endToEnd()
	if r.o.trace {
		metrics = r.perLayer()
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"stamp": r.stamp}); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
}

// machineStamp describes the machine and build, so that a figure can
// be explained from the output alone.
func machineStamp() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit,
		"workers":    1,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMB is the process's peak resident set so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// samples keeps a uniform random sample of at most maxSamples
// latencies in memory it allocates and touches once, so that the
// benchmark's own footprint does not grow with the speed of the code it
// measures.
type samples struct {
	xs   []int64
	seen int
	rng  *rand.Rand
}

const maxSamples = 1 << 18

func (s *samples) add(ns int64) {
	if s.xs == nil {
		s.xs = make([]int64, maxSamples)
		for i := range s.xs {
			s.xs[i] = -1
		}
		s.xs = s.xs[:0]
		s.rng = rand.New(rand.NewPCG(1, 2))
	}
	s.seen++
	if len(s.xs) < maxSamples {
		s.xs = append(s.xs, ns)
	} else if j := s.rng.IntN(s.seen); j < maxSamples {
		s.xs[j] = ns
	}
}

// reset empties s and keeps its memory.
func (s *samples) reset() {
	s.xs = s.xs[:0]
	s.seen = 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileNS is the q-quantile of ns by nearest rank: with fewer than
// 1/(1-q) samples, the p99 is the slowest sample.
func quantileNS(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	if q == 0.5 {
		xs := make([]float64, len(ns))
		for i, v := range ns {
			xs[i] = float64(v)
		}
		return median(xs)
	}
	s := append([]int64(nil), ns...)
	slices.Sort(s)
	return nearestRank(s, q)
}

// nearestRank is the q-quantile of the sorted, non-empty ns by nearest
// rank.
func nearestRank(sorted []int64, q float64) float64 {
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(k, 0), len(sorted)-1)])
}
