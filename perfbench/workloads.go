package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"dfpc/internal/core"
	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/experiments"
	"dfpc/internal/mining"
)

// digest is an FNV-1a hash of a sequence of integers, used to compare
// outputs across operations and, printed in the stamp, across runs.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) ints(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.h.Write(b[:])
	}
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// ---- mine-dense -------------------------------------------------------

// mineDense is the Tables 3–5 protocol at Table 4's first row: closed
// per-class mining, cover computation and MMRFS on the 90% stratified
// training split of the waveform stand-in at absolute min_sup 200.
type mineDense struct {
	sampleRows int // 0 = all 5000 rows
	absMinSup  int

	b, test   *dataset.Binary
	minSup    float64
	mined     []mining.Pattern
	selected  []int
	firstHash uint64
}

func newMineDense(o options) *mineDense {
	if o.tiny {
		return &mineDense{sampleRows: 600, absMinSup: 60}
	}
	return &mineDense{absMinSup: 200}
}

func (w *mineDense) setUp(r *runState) error {
	// The rows are Table 4's dataset; the seed draws the split. The
	// closed-pattern count at a fixed min_sup is a property of the
	// dataset (other datagen seeds give 49k to 76k patterns at 200),
	// and the workload is defined by that regime.
	d, err := datagen.ByName("waveform", experiments.Seed)
	if err != nil {
		return err
	}
	if w.sampleRows > 0 {
		keep, _, err := dataset.StratifiedSplit(d.Labels, d.NumClasses(),
			1-float64(w.sampleRows)/float64(d.NumRows()), r.o.seed)
		if err != nil {
			return err
		}
		d = d.Subset(keep)
	}
	train, test, err := dataset.StratifiedSplit(d.Labels, d.NumClasses(), 0.1, r.o.seed)
	if err != nil {
		return err
	}
	sp := r.tr.begin(spanEncode, 0)
	w.b, err = dataset.Encode(d.Subset(train))
	if err == nil {
		w.test, err = dataset.Encode(d.Subset(test))
	}
	r.tr.end(sp, d.NumRows())
	// As in experiments.RunScalability, the absolute threshold is taken
	// relative to the whole dataset and applied within each class.
	w.minSup = float64(w.absMinSup) / float64(d.NumRows())
	return err
}

func (w *mineDense) measure(r *runState) error {
	r.loopOps(func() error {
		var err error
		if w.mined, err = minePerClass(r.tr, 0, w.b, w.minSup, 0); err != nil {
			return err
		}
		if w.selected, err = selectPatterns(r.tr, 0, w.b, w.mined); err != nil {
			return err
		}
		h := newDigest()
		for _, p := range w.mined {
			h.ints(p.Support, len(p.Items))
			for _, it := range p.Items {
				h.ints(int(it))
			}
		}
		h.ints(w.selected...)
		r.check("mined patterns and selection", &w.firstHash, h.sum())
		return nil
	})
	r.rowsPerS = float64(w.b.NumRows()) / (quantileNS(r.opNS.xs, 0.5) / 1e9)
	r.stamp["fingerprint"] = fmt.Sprintf("%016x", w.firstHash)
	r.stamp["train_rows"] = w.b.NumRows()
	r.stamp["min_sup_rel"] = w.minSup
	return nil
}

// finish trains Table 4's SVM on the selected patterns and scores the
// held-out 10%, outside the timed window.
func (w *mineDense) finish(r *runState) error {
	m := &model{numItems: w.b.NumItems(), patterns: make([]mining.Pattern, len(w.selected))}
	for i, idx := range w.selected {
		m.patterns[i] = w.mined[idx]
	}
	if err := m.fitSelected(nil, 0, w.b); err != nil {
		return err
	}
	correct := 0
	for i, row := range w.test.Rows {
		start := len(m.fv)
		m.tx = append(m.tx, row...)
		m.fv = m.features(m.fv, row)
		m.fvEnd = append(m.fvEnd, len(m.fv))
		if m.scorer.Predict(m.fv[start:]) == w.test.Labels[i] {
			correct++
		}
	}
	r.accuracy = 100 * float64(correct) / float64(len(w.test.Rows))
	r.stamp["model"] = m.shape()
	r.stamp["patterns"] = len(w.mined)
	r.stamp["selected"] = len(w.selected)
	return nil
}

// newPatFS builds core's Pat_FS pipeline with a linear SVM, on one
// worker.
func newPatFS(minSup float64) (*core.Pipeline, error) {
	return core.New(core.Config{UsePatterns: true, SelectPatterns: true, MinSupport: minSup, Workers: 1})
}

// ---- fit-cv -----------------------------------------------------------

// cvMinSup is the tuned relative min_sup of each fit-cv dataset
// (perDatasetMinSup in internal/experiments).
var cvMinSup = map[string]float64{
	"pima": 0.1, "vehicle": 0.1, "diabetes": 0.1, "austral": 0.2, "breast": 0.3,
}

type cvSet struct {
	name   string
	d      *dataset.Dataset
	minSup float64
	folds  [][]int
	fold0  []int // core's predictions on fold 0 in the last pass
}

// fitCV is the Tables 1–2 protocol: stratified k-fold CV of Pat_FS
// with a linear SVM over five datasets. One operation is one pass over
// every fold of every dataset.
type fitCV struct {
	names     []string
	k         int
	sets      []cvSet
	firstHash uint64
}

func newFitCV(o options) *fitCV {
	if o.tiny {
		return &fitCV{names: []string{"austral", "breast"}, k: 3}
	}
	return &fitCV{names: []string{"pima", "vehicle", "diabetes", "austral", "breast"}, k: 5}
}

func (w *fitCV) setUp(r *runState) error {
	w.sets = w.sets[:0]
	for _, name := range w.names {
		d, err := datagen.ByName(name, experiments.Seed)
		if err != nil {
			return err
		}
		folds, err := dataset.StratifiedKFold(d.Labels, d.NumClasses(), w.k, r.o.seed)
		if err != nil {
			return err
		}
		w.sets = append(w.sets, cvSet{name: name, d: d, minSup: cvMinSup[name], folds: folds})
	}
	return nil
}

func (w *fitCV) measure(r *runState) error {
	// Warm up untimed: one fit of every dataset, so the first pass does
	// not also pay for growing the heap.
	for _, s := range w.sets {
		train, _ := dataset.TrainTestFromFolds(s.folds, 0)
		p, err := newPatFS(s.minSup)
		if err != nil {
			return err
		}
		if err := p.Fit(s.d, train); err != nil {
			return fmt.Errorf("%s warm-up: %w", s.name, err)
		}
	}
	var accs []float64
	r.loopOps(func() error {
		h := newDigest()
		accs = accs[:0]
		for si := range w.sets {
			s := &w.sets[si]
			correct := 0
			for f := range s.folds {
				test, pred, err := w.fold(r, s, f)
				if err != nil {
					return fmt.Errorf("%s fold %d: %w", s.name, f, err)
				}
				for i, row := range test {
					if pred[i] == s.d.Labels[row] {
						correct++
					}
				}
				h.ints(pred...)
			}
			accs = append(accs, float64(correct)/float64(s.d.NumRows()))
		}
		r.check("CV predictions", &w.firstHash, h.sum())
		return nil
	})
	rows := 0
	for _, s := range w.sets {
		rows += w.k * s.d.NumRows() // every fold fits k-1 folds and predicts one
	}
	r.rowsPerS = float64(rows) / (quantileNS(r.opNS.xs, 0.5) / 1e9)
	sum := 0.0
	for _, a := range accs {
		sum += a
	}
	r.accuracy = 100 * sum / float64(max(len(accs), 1))
	r.stamp["fingerprint"] = fmt.Sprintf("%016x", w.firstHash)
	r.stamp["folds"] = w.k
	return nil
}

// fold fits core's pipeline on every fold but f and predicts fold f,
// returning fold f's rows and their predicted classes. Traced, it also
// rebuilds the fit and the prediction from layer calls and requires
// the same predictions.
func (w *fitCV) fold(r *runState, s *cvSet, f int) (test, pred []int, err error) {
	train, test := dataset.TrainTestFromFolds(s.folds, f)
	p, err := newPatFS(s.minSup)
	if err != nil {
		return nil, nil, err
	}
	sp := r.tr.begin(spanCoreFit, 0)
	err = p.Fit(s.d, train)
	r.tr.end(sp, len(train))
	if err != nil {
		return nil, nil, err
	}
	sp = r.tr.begin(spanCorePredict, 0)
	pred, err = p.Predict(s.d, test)
	r.tr.end(sp, len(test))
	if err != nil {
		return nil, nil, err
	}
	for i, c := range pred {
		if c < 0 || c >= s.d.NumClasses() {
			return nil, nil, fmt.Errorf("row %d: class %d outside [0,%d)", test[i], c, s.d.NumClasses())
		}
	}
	if f == 0 {
		s.fold0 = pred
	}
	if r.tr != nil {
		if _, err := rebuildChecked(r.tr, s.d, train, test, s.minSup, pred); err != nil {
			return nil, nil, err
		}
	}
	return test, pred, nil
}

// rebuildChecked fits the layer-call rebuild on train and requires its
// predictions on test to equal want.
func rebuildChecked(tr *tracer, d *dataset.Dataset, train, test []int, minSup float64, want []int) (*model, error) {
	m, err := fitModel(tr, d, train, minSup)
	if err != nil {
		return nil, fmt.Errorf("rebuild: %w", err)
	}
	got := make([]int, len(test))
	if err := m.predict(tr, d, test, got); err != nil {
		return nil, fmt.Errorf("rebuild predict: %w", err)
	}
	for i := range got {
		if got[i] != want[i] {
			return nil, fmt.Errorf("rebuild predicts class %d for row %d, core predicts %d", got[i], test[i], want[i])
		}
	}
	return m, nil
}

// finish rebuilds fold 0 of every dataset from layer calls, requires
// core's predictions, and records the model shapes.
func (w *fitCV) finish(r *runState) error {
	shapes := map[string]any{}
	for _, s := range w.sets {
		train, test := dataset.TrainTestFromFolds(s.folds, 0)
		r.attempted++
		m, err := rebuildChecked(nil, s.d, train, test, s.minSup, s.fold0)
		if err != nil {
			r.fail("%s fold 0: %v", s.name, err)
			continue
		}
		shapes[s.name] = m.shape()
	}
	r.stamp["model_fold0"] = shapes
	return nil
}

// ---- serve ------------------------------------------------------------

// serveBatch is the row count of a bulk request.
const serveBatch = 1024

// serve fits Pat_FS on one stratified half of austral generated at
// twice its size, saves and reloads the model, and serves rows of the
// other half from one closed-loop client: 1-row requests and 1024-row
// requests in alternating segments.
type serve struct {
	scale  int
	minSup float64

	d            *dataset.Dataset
	train, reqs  []int
	fitted, p    *core.Pipeline
	m            *model // traced runs: the layer-call rebuild of the fit
	segment      time.Duration
	ref, bulkRef []int
	bulk         []int
}

func newServe(o options) *serve {
	w := &serve{scale: 2, minSup: cvMinSup["austral"], segment: 250 * time.Millisecond}
	if o.tiny {
		w.scale, w.segment = 1, 20*time.Millisecond
	}
	return w
}

func (w *serve) setUp(r *runState) error {
	spec, err := datagen.SpecFor("austral", experiments.Seed)
	if err != nil {
		return err
	}
	spec.Instances *= w.scale
	if w.d, err = datagen.Generate(spec); err != nil {
		return err
	}
	// The served model is fixed: the split is the experiments' own. The
	// seed draws the request stream, with replacement, from the half
	// the model never saw.
	var heldOut []int
	if w.train, heldOut, err = dataset.StratifiedSplit(w.d.Labels, w.d.NumClasses(), 0.5, experiments.Seed); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(uint64(r.o.seed), 0))
	w.reqs = make([]int, len(heldOut))
	for i := range w.reqs {
		w.reqs[i] = heldOut[rng.IntN(len(heldOut))]
	}
	if w.fitted, err = newPatFS(w.minSup); err != nil {
		return err
	}
	sp := r.tr.begin(spanCoreFit, 0)
	err = w.fitted.Fit(w.d, w.train)
	r.tr.end(sp, len(w.train))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sp = r.tr.begin(spanCoreSave, 0)
	err = w.fitted.Save(&buf)
	r.tr.end(sp, buf.Len())
	if err != nil {
		return err
	}
	sp = r.tr.begin(spanCoreLoad, 0)
	w.p, err = core.Load(&buf)
	r.tr.end(sp, 0)
	if err != nil {
		return err
	}
	if r.tr != nil {
		w.m, err = fitModel(r.tr, w.d, w.train, w.minSup)
	}
	return err
}

func (w *serve) measure(r *runState) error {
	ctx := context.Background()
	var err error
	if w.ref, err = w.p.Predict(w.d, w.reqs); err != nil {
		return err
	}
	direct, err := w.fitted.Predict(w.d, w.reqs)
	if err != nil {
		return err
	}
	r.attempted++
	if !slices.Equal(direct, w.ref) {
		r.fail("the loaded model predicts differently from the fitted one")
	}
	correct := 0
	for i, c := range w.ref {
		if c == w.d.Labels[w.reqs[i]] {
			correct++
		}
	}
	r.accuracy = 100 * float64(correct) / float64(len(w.reqs))
	w.bulk = make([]int, serveBatch)
	w.bulkRef = make([]int, serveBatch)
	for i := range w.bulk {
		w.bulk[i] = w.reqs[i%len(w.reqs)]
		w.bulkRef[i] = w.ref[i%len(w.reqs)]
	}

	one := make([]int, 1)
	out := make([]int, serveBatch)
	// Warm up untimed: every request row once, and a few bulk requests.
	for i := range w.reqs {
		if err := w.p.PredictBatch(ctx, w.d, w.reqs[i:i+1], one); err != nil {
			return err
		}
	}
	for range 4 {
		if err := w.p.PredictBatch(ctx, w.d, w.bulk, out); err != nil {
			return err
		}
	}
	next := 0
	// Untraced, the 1-row latencies are the run's operations; traced,
	// both kinds of request time core beside the rebuilt batches.
	oneNS, bulkNS := &r.opNS, &samples{}
	// A 1-row segment's p99 is taken over that segment alone, and
	// op_p99_ms is the median over segments: a burst of load on the
	// host then moves a few segments, not the run's figure.
	var segNS samples
	if r.tr != nil {
		oneNS, bulkNS = &r.predict1NS, &r.predict1024NS
	}
	kinds := 2 // traced runs add a third kind of segment: the rebuilt bulk request
	if r.tr != nil {
		kinds = 3
	}
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(r.o.window)
	for seg := 0; time.Now().Before(deadline); seg++ {
		end := time.Now().Add(w.segment)
		switch seg % kinds {
		case 0: // 1-row requests
			segNS.reset()
			runtime.ReadMemStats(&m0)
			calls := 0
			for time.Now().Before(end) {
				i := next % len(w.reqs)
				next++
				t0 := time.Now()
				err := w.p.PredictBatch(ctx, w.d, w.reqs[i:i+1], one)
				d := time.Since(t0).Nanoseconds()
				calls++
				r.attempted++
				switch {
				case err != nil:
					r.fail("1-row request: %v", err)
				case one[0] != w.ref[i]:
					r.fail("1-row request for row %d: class %d, Predict gave %d", w.reqs[i], one[0], w.ref[i])
				}
				oneNS.add(d)
				segNS.add(d)
			}
			runtime.ReadMemStats(&m1)
			r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			r.allocOps += calls
			if len(segNS.xs) > 0 {
				slices.Sort(segNS.xs) // in place: the segment's samples are done with
				r.segP99NS = append(r.segP99NS, nearestRank(segNS.xs, 0.99))
			}
		case 1: // 1024-row requests
			for time.Now().Before(end) {
				t0 := time.Now()
				err := w.p.PredictBatch(ctx, w.d, w.bulk, out)
				bulkNS.add(time.Since(t0).Nanoseconds())
				r.attempted++
				switch {
				case err != nil:
					r.fail("1024-row request: %v", err)
				case !slices.Equal(out, w.bulkRef):
					r.fail("1024-row request disagrees with 1-row requests and Predict")
				}
			}
		case 2: // traced: the same bulk request rebuilt from layer calls
			for time.Now().Before(end) {
				r.tr.beginUnit("op")
				err := w.m.predict(r.tr, w.d, w.bulk, out)
				r.attempted++
				switch {
				case err != nil:
					r.fail("rebuilt 1024-row request: %v", err)
				case !slices.Equal(out, w.bulkRef):
					r.fail("rebuilt 1024-row request disagrees with core")
				}
			}
		}
	}
	r.rowsPerS = serveBatch / (quantileNS(bulkNS.xs, 0.5) / 1e9)
	r.stamp["request_rows"] = len(w.reqs)
	r.stamp["bulk_count"] = bulkNS.seen
	r.stamp["p99_segments"] = len(r.segP99NS)
	r.stamp["op_p99_pooled_ms"] = quantileNS(oneNS.xs, 0.99) / 1e6
	h := newDigest()
	h.ints(w.ref...)
	r.stamp["fingerprint"] = fmt.Sprintf("%016x", h.sum())
	return nil
}

// finish rebuilds the fit from layer calls, requires core's
// predictions on the request rows, and records the model shape.
func (w *serve) finish(r *runState) error {
	m := w.m
	if m == nil {
		r.attempted++
		var err error
		if m, err = rebuildChecked(nil, w.d, w.train, w.reqs, w.minSup, w.ref); err != nil {
			r.fail("%v", err)
			return nil
		}
	}
	r.stamp["model"] = m.shape()
	return nil
}
