package main

import (
	"fmt"

	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/featsel"
	"dfpc/internal/mining"
	"dfpc/internal/patmatch"
	"dfpc/internal/svm"
)

// The traced run rebuilds each workload's operation from the public
// calls of every layer, in the order core.Fit and core's batch
// predictor make them, so that each call can carry a span. These
// settings are core.Config's defaults for a Pat_FS pipeline with a
// linear SVM; TestRebuildMatchesCoreFit pins the rebuild to core.Fit.
const (
	coreMaxPatternLen = 6
	coreMaxPatterns   = 2_000_000
	coverage          = 3 // MMRFS δ, as in the paper's experiments
	svmC              = 1
)

// minePerClass mines closed patterns of length ≥ 2 per class, under a
// span of parent.
func minePerClass(tr *tracer, parent int32, b *dataset.Binary, minSup float64, maxLen int) ([]mining.Pattern, error) {
	sp := tr.begin(spanMine, parent)
	mined, err := mining.MinePerClass(b, mining.PerClassOptions{
		MinSupport:  minSup,
		Closed:      true,
		MaxPatterns: coreMaxPatterns,
		MaxLen:      maxLen,
		MinLen:      2,
		Workers:     1,
	})
	tr.end(sp, len(mined))
	if err != nil {
		return nil, fmt.Errorf("mine at min_sup %v: %w", minSup, err)
	}
	tr.count(cntPatterns, len(mined))
	return mined, nil
}

// selectPatterns computes each pattern's cover and runs MMRFS over
// them, returning the selected indices in selection order.
func selectPatterns(tr *tracer, parent int32, b *dataset.Binary, mined []mining.Pattern) ([]int, error) {
	sp := tr.begin(spanCover, parent)
	cands := make([]featsel.Candidate, len(mined))
	for i, pt := range mined {
		cands[i] = featsel.Candidate{Items: pt.Items, Cover: b.Cover(pt.Items)}
	}
	tr.end(sp, len(cands))
	sp = tr.begin(spanMMRFS, parent)
	res, err := featsel.MMRFS(cands, b.ClassMasks, b.Labels, featsel.Options{Coverage: coverage, Workers: 1})
	tr.end(sp, len(cands))
	if err != nil {
		return nil, fmt.Errorf("MMRFS over %d candidates: %w", len(cands), err)
	}
	tr.count(cntSelected, len(res.Selected))
	return res.Selected, nil
}

// model is a Pat_FS pipeline fitted by the benchmark's own layer calls.
type model struct {
	disc     *discretize.Discretizer
	numItems int
	patterns []mining.Pattern
	matcher  *patmatch.Matcher
	svm      *svm.Model
	coder    rowCoder

	// predict scratch, reused across batches
	scorer *svm.Scorer
	ms     patmatch.Scratch
	tx     []int32
	txEnd  []int
	fv     []int32
	fvEnd  []int
}

// fitModel rebuilds core.Fit for a Pat_FS pipeline at relative
// min_sup minSup on rows of d.
func fitModel(tr *tracer, d *dataset.Dataset, rows []int, minSup float64) (*model, error) {
	root := tr.begin(spanRebuildFit, 0)
	defer tr.end(root, len(rows))
	train := d.Subset(rows)

	sp := tr.begin(spanDiscFit, root)
	disc, err := discretize.Fit(train, discretize.Options{})
	tr.end(sp, len(rows))
	if err != nil {
		return nil, fmt.Errorf("discretize: %w", err)
	}
	sp = tr.begin(spanDiscApply, root)
	cat, err := disc.Apply(train)
	tr.end(sp, len(rows))
	if err != nil {
		return nil, fmt.Errorf("discretize apply: %w", err)
	}
	sp = tr.begin(spanEncode, root)
	b, err := dataset.Encode(cat)
	tr.end(sp, len(rows))
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}

	mined, err := minePerClass(tr, root, b, minSup, coreMaxPatternLen)
	if err != nil {
		return nil, err
	}
	selected, err := selectPatterns(tr, root, b, mined)
	if err != nil {
		return nil, err
	}
	m := &model{disc: disc, numItems: b.NumItems(), patterns: make([]mining.Pattern, len(selected))}
	for i, idx := range selected {
		m.patterns[i] = mined[idx]
	}
	if err := m.fitSelected(tr, root, b); err != nil {
		return nil, err
	}
	m.coder = newRowCoder(disc)
	return m, nil
}

// fitSelected is the tail of core.Fit: it sorts the selected
// patterns, compiles them into a matcher, maps every row of b into the
// feature space and trains the linear SVM.
func (m *model) fitSelected(tr *tracer, root int32, b *dataset.Binary) error {
	sp := tr.begin(spanSort, root)
	mining.SortPatterns(m.patterns)
	tr.end(sp, len(m.patterns))

	if len(m.patterns) > 0 {
		sp = tr.begin(spanCompile, root)
		items := make([][]int32, len(m.patterns))
		for i := range m.patterns {
			items[i] = m.patterns[i].Items
		}
		m.matcher = patmatch.Compile(items)
		tr.end(sp, len(items))
		tr.count(cntNodes, m.matcher.NumNodes())
	}

	sp = tr.begin(spanMatch, root)
	x := make([][]int32, b.NumRows())
	m.ms.Grow(m.matcher)
	fired := 0
	for i, row := range b.Rows {
		x[i] = m.features(make([]int32, 0, len(row)+len(m.patterns)), row)
		fired += len(x[i]) - len(row)
	}
	tr.end(sp, len(x))
	tr.count(cntFired, fired)

	sp = tr.begin(spanTrain, root)
	var err error
	m.svm, err = svm.Train(x, b.Labels, b.NumClasses(), svm.Config{
		C:           svmC,
		NumFeatures: m.numFeatures(),
		Workers:     1,
	})
	tr.end(sp, len(x))
	if err != nil {
		return fmt.Errorf("svm: %w", err)
	}
	tr.count(cntSV, m.svm.SupportVectors())
	tr.count(cntIters, m.svm.Iterations())
	tr.count(cntPairs, m.svm.BinaryProblems())
	m.scorer = m.svm.NewScorer()
	return nil
}

// shape describes the fitted model; fired patterns are counted over
// the rows of the last predict call.
func (m *model) shape() map[string]any {
	nodes := 0
	if m.matcher != nil {
		nodes = m.matcher.NumNodes()
	}
	rows := max(len(m.fvEnd), 1)
	return map[string]any{
		"features":        m.numFeatures(),
		"patterns":        len(m.patterns),
		"trie_nodes":      nodes,
		"support_vectors": m.svm.SupportVectors(),
		"binary_problems": m.svm.BinaryProblems(),
		"sv_per_pair":     float64(m.svm.SupportVectors()) / float64(max(m.svm.BinaryProblems(), 1)),
		"svm_iterations":  m.svm.Iterations(),
		"fired_per_row":   float64(len(m.fv)-len(m.tx)) / float64(rows),
	}
}

func (m *model) numFeatures() int { return m.numItems + len(m.patterns) }

// features appends tx's items and then the IDs of the patterns tx
// contains, as core's featurizer does.
func (m *model) features(dst, tx []int32) []int32 {
	dst = append(dst, tx...)
	if m.matcher != nil {
		dst = m.matcher.MatchAppend(dst, tx, int32(m.numItems), &m.ms)
	}
	return dst
}

// predict classifies rows of d into out in three batch passes, one
// span each: encode every row, match every row, score every row.
func (m *model) predict(tr *tracer, d *dataset.Dataset, rows []int, out []int) error {
	root := tr.begin(spanRebuildPredict, 0)
	defer tr.end(root, len(rows))

	sp := tr.begin(spanRowEncode, root)
	m.tx, m.txEnd = m.tx[:0], m.txEnd[:0]
	for _, r := range rows {
		var err error
		if m.tx, err = m.coder.encode(m.tx, d.Rows[r]); err != nil {
			return fmt.Errorf("row %d: %w", r, err)
		}
		m.txEnd = append(m.txEnd, len(m.tx))
	}
	tr.end(sp, len(rows))

	sp = tr.begin(spanMatch, root)
	m.fv, m.fvEnd = m.fv[:0], m.fvEnd[:0]
	m.ms.Grow(m.matcher)
	start := 0
	for _, end := range m.txEnd {
		m.fv = m.features(m.fv, m.tx[start:end])
		m.fvEnd = append(m.fvEnd, len(m.fv))
		start = end
	}
	tr.end(sp, len(rows))
	tr.count(cntFired, len(m.fv)-len(m.tx))

	sp = tr.begin(spanScore, root)
	start = 0
	for i, end := range m.fvEnd {
		out[i] = m.scorer.Predict(m.fv[start:end])
		start = end
	}
	tr.end(sp, len(rows))
	return nil
}

// rowCoder maps raw rows into the fitted item space the way core's
// row encoder does: item IDs are laid out attribute-major, one per
// discretized bin or category, so encoding left to right emits sorted
// IDs.
type rowCoder struct {
	disc    *discretize.Discretizer
	base    []int32
	numeric []bool
	numVals []int
}

func newRowCoder(disc *discretize.Discretizer) rowCoder {
	schema := disc.SourceSchema()
	c := rowCoder{disc: disc, base: make([]int32, len(schema)),
		numeric: make([]bool, len(schema)), numVals: make([]int, len(schema))}
	base := 0
	for a, attr := range schema {
		c.base[a] = int32(base)
		c.numeric[a] = attr.Kind == dataset.Numeric
		c.numVals[a] = disc.Bins(a)
		base += c.numVals[a]
	}
	return c
}

// encode appends row's item IDs to dst.
func (c *rowCoder) encode(dst []int32, row []float64) ([]int32, error) {
	if len(row) != len(c.base) {
		return nil, fmt.Errorf("%d cells, want %d", len(row), len(c.base))
	}
	for a, v := range row {
		switch {
		case dataset.IsMissing(v):
		case c.numeric[a]:
			dst = append(dst, c.base[a]+int32(c.disc.BinOf(a, v)))
		default:
			vi := int(v)
			if float64(vi) != v || vi < 0 || vi >= c.numVals[a] {
				return nil, fmt.Errorf("attr %d: bad category index %v", a, v)
			}
			dst = append(dst, c.base[a]+int32(vi))
		}
	}
	return dst, nil
}
