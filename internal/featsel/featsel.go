// Package featsel implements the paper's feature-selection step:
// MMRFS (Algorithm 1), a Maximal-Marginal-Relevance-style greedy search
// that selects patterns that are relevant to the class label and
// minimally redundant with the already-selected set, under a database
// coverage constraint δ. It also provides the plain relevance filters
// (top-k information gain) used for the Item_FS baseline in Tables 1–2.
package featsel

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"dfpc/internal/bitset"
	"dfpc/internal/faults"
	"dfpc/internal/guard"
	"dfpc/internal/measures"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
)

// Relevance selects the relevance measure S(α) used by MMRFS
// (Definition 3: information gain or Fisher score).
type Relevance int

const (
	// InfoGain uses IG(C|X) as relevance.
	InfoGain Relevance = iota
	// Fisher uses the Fisher score as relevance.
	Fisher
)

func (r Relevance) String() string {
	switch r {
	case InfoGain:
		return "information-gain"
	case Fisher:
		return "fisher-score"
	default:
		return fmt.Sprintf("Relevance(%d)", int(r))
	}
}

// relevanceCap bounds relevance so that +Inf Fisher scores (perfectly
// separating features) stay arithmetically safe inside the redundancy
// product of Eq. 9.
const relevanceCap = 1e9

// Candidate is one feature candidate: an itemset together with its
// coverage bitset over the training rows.
type Candidate struct {
	Items []int32
	Cover *bitset.Bitset
}

// Options configures MMRFS.
type Options struct {
	// Relevance is the S measure (default InfoGain).
	Relevance Relevance
	// Coverage is δ: selection stops once every coverable training
	// instance is correctly covered δ times (default 1).
	Coverage int
	// MaxFeatures optionally caps the number of selected features;
	// 0 means unbounded (the coverage constraint decides).
	MaxFeatures int
	// Ctx, when non-nil, makes the greedy loop cancellable; selection
	// aborts with an error satisfying errors.Is(err, guard.ErrCanceled)
	// (or guard.ErrDeadline). Nil costs nothing.
	//vet:ignore ctxfirst per-call Options carrier: Options lives only for one Select call
	Ctx context.Context
	// Deadline aborts selection once passed (0 = none).
	Deadline time.Time
	// Obs, when non-nil, records the MMRFS span, iteration/selection
	// counters, and the final coverage residual. Nil disables recording.
	Obs *obs.Observer
	// Log, when non-nil, receives one structured DEBUG record per
	// selection run (candidates, selected, coverage residual). Nil
	// disables logging.
	Log *slog.Logger
	// Workers bounds the worker pool that scores candidate relevance
	// (0 = GOMAXPROCS, 1 = sequential). The greedy argmax itself is a
	// sequential lazy heap, so the selected set, the audit trail and
	// the counters are identical at any worker count.
	Workers parallel.Workers
	// Faults, when non-nil, enables deterministic fault injection at
	// the selection entry (point featsel.mmrfs). Nil is free.
	Faults *faults.Registry
}

func (o Options) withDefaults() Options {
	if o.Coverage <= 0 {
		o.Coverage = 1
	}
	return o
}

// Result reports the outcome of a selection run.
type Result struct {
	// Selected holds indices into the candidate slice, in selection
	// order (most relevant first).
	Selected []int
	// Relevance holds S(α) for every candidate (same indexing as the
	// input slice), useful for diagnostics and the figures.
	Relevance []float64
	// Audit is the per-iteration decision trail, recorded only when
	// Options.Obs is enabled (the greedy loop is sequential, so the
	// trail is identical at any worker count). Entries appear in
	// decision order; accepted entries correspond 1:1 with Selected.
	Audit []AuditEntry
}

// AuditEntry records one MMRFS iteration's decision: which candidate
// the greedy argmax picked, the Eq. 10 quantities behind the pick, and
// whether the coverage test accepted it.
type AuditEntry struct {
	// Iteration numbers decisions from 1.
	Iteration int `json:"iter"`
	// Candidate indexes the input candidate slice.
	Candidate int `json:"candidate"`
	// Items is the candidate's itemset.
	Items []int32 `json:"items"`
	// Relevance is S(α); Redundancy is max over the selected set of
	// R(α,β) at decision time; Gain is their difference (Eq. 10).
	Relevance  float64 `json:"relevance"`
	Redundancy float64 `json:"redundancy"`
	Gain       float64 `json:"gain"`
	// Accepted is true when the candidate joined the selected set;
	// Reason is "selected" or "no-uncovered-instance" (the candidate
	// correctly covers no instance still below δ and is dropped).
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason"`
}

// parallelMinCandidates is the candidate-pool size below which
// relevance scoring stays sequential: spawning a chunk per worker costs
// more than scoring a few hundred candidates in place.
const parallelMinCandidates = 512

// scoreAll computes S(α) for each candidate, fanning the (independent,
// per-element) measure evaluations out over w workers when the pool is
// large enough to pay for the scheduling.
func scoreAll(cands []Candidate, classMasks []*bitset.Bitset, rel Relevance, w parallel.Workers) []float64 {
	scores := make([]float64, len(cands))
	scoreRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			switch rel {
			case Fisher:
				s = measures.FisherScore(cands[i].Cover, classMasks)
			default:
				s = measures.InfoGain(cands[i].Cover, classMasks)
			}
			if math.IsInf(s, 1) || s > relevanceCap {
				s = relevanceCap
			}
			scores[i] = s
		}
	}
	workers := w.Resolve()
	if workers <= 1 || len(cands) < parallelMinCandidates {
		scoreRange(0, len(cands))
		return scores
	}
	chunks := parallel.Chunks(len(cands), workers)
	// Closures write only their own chunk's scores[i] slots and cannot
	// fail, so the pool never returns an error.
	_ = parallel.ForEach(w, len(chunks), func(c int) error {
		scoreRange(chunks[c][0], chunks[c][1])
		return nil
	})
	return scores
}

// redundancy implements Eq. 9: R(α,β) = P(α,β) / (P(α)+P(β)−P(α,β)) ×
// min(S(α), S(β)), i.e. the Jaccard similarity of the coverage sets
// scaled by the smaller relevance. na and nb are the covers' popcounts.
func redundancy(a, b *bitset.Bitset, na, nb int, sa, sb float64) float64 {
	inter := a.AndCount(b)
	union := na + nb - inter
	if union == 0 {
		return 0
	}
	jac := float64(inter) / float64(union)
	return jac * math.Min(sa, sb)
}

// majorityClass returns the majority class among the rows covered by
// cov (ties broken toward the smaller class index), or -1 for an empty
// cover. A feature "correctly covers" an instance when the instance's
// class matches this label — the sense in which Algorithm 1 requires
// each selected pattern to correctly cover at least one instance.
func majorityClass(cov *bitset.Bitset, classMasks []*bitset.Bitset) int {
	best, bestCount := -1, 0
	for c, mask := range classMasks {
		n := cov.AndCount(mask)
		if n > bestCount {
			best, bestCount = c, n
		}
	}
	return best
}

// gainHeap is a binary max-heap of candidate indices under the strict
// total order (gain descending, index ascending), so its top is the
// candidate a strict-> scan in index order would pick. Keys live in a
// slice indexed by candidate.
type gainHeap struct {
	idx  []int32
	gain []float64
}

func (h *gainHeap) before(a, b int32) bool {
	ga, gb := h.gain[a], h.gain[b]
	return ga > gb || (ga == gb && a < b)
}

// down sifts the entry at position i down to its place.
func (h *gainHeap) down(i int) {
	n := len(h.idx)
	for {
		best := i
		if l := 2*i + 1; l < n && h.before(h.idx[l], h.idx[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && h.before(h.idx[r], h.idx[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.idx[i], h.idx[best] = h.idx[best], h.idx[i]
		i = best
	}
}

func (h *gainHeap) init() {
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *gainHeap) pop() {
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	h.down(0)
}

// MMRFS runs Algorithm 1 over the candidates. labels[i] is the class of
// training row i; classMasks partition the rows by class. It returns
// the selected candidate indices in selection order.
//
// The search starts from the most relevant pattern, then repeatedly
// adds the pattern with maximal marginal gain g(α) = S(α) −
// max_{β∈Fs} R(α,β) (Eq. 10), provided it correctly covers at least one
// instance that is not yet covered δ times; it stops when every
// coverable instance is covered δ times or the candidate pool is
// exhausted.
//
// The argmax is evaluated lazily (Minoux's accelerated greedy). Fs only
// grows and R ≥ 0, so a candidate's gain never rises, and a gain last
// computed against an older Fs is an upper bound on the current one.
// Candidates sit in a max-heap under their last computed gain; a stale
// top is refreshed against only the features selected since, and a top
// that is up to date is the exact argmax, with the full scan's
// lowest-index tie-break.
func MMRFS(cands []Candidate, classMasks []*bitset.Bitset, labels []int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	g := guard.New(opt.Ctx, guard.Limits{Deadline: opt.Deadline})
	if err := g.CheckNow(); err != nil {
		return nil, err
	}
	if err := opt.Faults.Hit(faults.FeatselMMRFS); err != nil {
		return nil, fmt.Errorf("featsel: %w", err)
	}
	n := len(labels)
	for i, c := range cands {
		if c.Cover == nil || c.Cover.Len() != n {
			return nil, fmt.Errorf("featsel: candidate %d cover length mismatch", i)
		}
	}
	// The span opens before the candidate buffers (scores, majority,
	// counts, redundancy caches, heap) are allocated, so its alloc_bytes
	// histogram reflects the selection's real footprint instead of the
	// few KB the greedy loop itself allocates.
	sp := opt.Obs.Start("mmrfs").
		Attr("candidates", len(cands)).
		Attr("delta", opt.Coverage)
	res := &Result{Relevance: scoreAll(cands, classMasks, opt.Relevance, opt.Workers)}
	if len(cands) == 0 {
		sp.End()
		return res, nil
	}

	// open[c] holds the class-c rows still covered fewer than δ times; a
	// candidate correctly covers an uncovered instance iff its cover
	// meets open[majority].
	open := make([]*bitset.Bitset, len(classMasks))
	for c := range open {
		open[c] = bitset.New(n)
	}
	for row, y := range labels {
		if y >= 0 && y < len(open) {
			open[y].Set(row)
		}
	}

	// Per-candidate state: majority class, cover popcount, the running
	// max_{β∈Fs} R(candidate, β), and how many selections that max has
	// seen. coverable counts the rows some candidate correctly covers;
	// rows no candidate can cover are excluded from the δ-coverage
	// stopping test, otherwise selection could never terminate.
	majority := make([]int32, len(cands))
	count := make([]int32, len(cands))
	maxRed := make([]float64, len(cands))
	seen := make([]int32, len(cands))
	h := gainHeap{idx: make([]int32, 0, len(cands)), gain: make([]float64, len(cands))}
	coverableMask := bitset.New(n)
	correct := bitset.New(n)
	for i, c := range cands {
		m := majorityClass(c.Cover, classMasks)
		majority[i] = int32(m)
		if m < 0 {
			continue
		}
		count[i] = int32(c.Cover.Count())
		correct.CopyFrom(c.Cover)
		correct.And(open[m])
		coverableMask.Or(correct)
		h.gain[i] = res.Relevance[i]
		h.idx = append(h.idx, int32(i))
	}
	h.init()
	coverable := coverableMask.Count()
	covered := make([]int, n)
	fullyCovered := 0

	// dead reports whether candidate i correctly covers no instance still
	// below δ. covered only grows, so a dead candidate stays dead.
	dead := func(i int32) bool {
		return cands[i].Cover.AndCount(open[majority[i]]) == 0
	}

	add := func(i int32) {
		res.Selected = append(res.Selected, int(i))
		m := int(majority[i])
		cands[i].Cover.ForEach(func(row int) {
			if labels[row] == m {
				covered[row]++
				if covered[row] == opt.Coverage {
					fullyCovered++
					open[m].Clear(row)
				}
			}
		})
	}

	// A dead candidate is rejected whenever it is picked, and rejecting
	// it changes no state, so when nothing records the rejection (audit
	// trail, counters, log) a stale dead top is dropped unrefreshed.
	skipDead := !opt.Obs.Enabled() && opt.Log == nil
	var gainEvals, redundancyEvals int64

	// top refreshes stale heap tops until the top is up to date and
	// returns it, or -1 once the pool is exhausted.
	top := func() (int32, error) {
		for len(h.idx) > 0 {
			if err := g.Check(); err != nil {
				return -1, err
			}
			i := h.idx[0]
			now := int32(len(res.Selected))
			if seen[i] == now {
				return i, nil
			}
			if skipDead && dead(i) {
				h.pop()
				continue
			}
			for _, s := range res.Selected[seen[i]:] {
				r := redundancy(cands[i].Cover, cands[s].Cover, int(count[i]), int(count[s]),
					res.Relevance[i], res.Relevance[s])
				if r > maxRed[i] {
					maxRed[i] = r
				}
			}
			gainEvals++
			redundancyEvals += int64(now - seen[i])
			seen[i] = now
			h.gain[i] = res.Relevance[i] - maxRed[i]
			h.down(0)
		}
		return -1, nil
	}

	sp.Attr("coverable", coverable)
	iterations := opt.Obs.Counter("mmrfs.iterations")
	rejected := opt.Obs.Counter("mmrfs.rejected_no_coverage")
	gainHist := opt.Obs.Histogram("mmrfs.gain_microbits")
	audit := opt.Obs.Enabled()
	dropped := 0
	for {
		if err := g.CheckNow(); err != nil {
			sp.End()
			return nil, err
		}
		if opt.MaxFeatures > 0 && len(res.Selected) >= opt.MaxFeatures {
			break
		}
		if fullyCovered >= coverable {
			break
		}
		i, err := top()
		if err != nil {
			sp.End()
			return nil, err
		}
		if i < 0 {
			break // pool exhausted
		}
		// Algorithm 1 line 7 removes β from F whether or not it is selected.
		h.pop()
		iterations.Inc()
		accepted := !dead(i)
		if audit {
			reason := "selected"
			if !accepted {
				reason = "no-uncovered-instance"
			}
			res.Audit = append(res.Audit, AuditEntry{
				Iteration:  len(res.Audit) + 1,
				Candidate:  int(i),
				Items:      cands[i].Items,
				Relevance:  res.Relevance[i],
				Redundancy: maxRed[i],
				Gain:       h.gain[i],
				Accepted:   accepted,
				Reason:     reason,
			})
			gainHist.Observe(int64(h.gain[i] * 1e6))
		}
		if accepted {
			add(i)
		} else {
			dropped++
			rejected.Inc()
		}
	}
	opt.Obs.Counter("mmrfs.selected").Add(int64(len(res.Selected)))
	opt.Obs.Counter("mmrfs.dropped").Add(int64(dropped))
	opt.Obs.Counter("mmrfs.gain_evals").Add(gainEvals)
	opt.Obs.Counter("mmrfs.redundancy_evals").Add(redundancyEvals)
	// Coverage residual: instances some candidate could correctly cover
	// that still sit below δ when selection stops.
	opt.Obs.Gauge("mmrfs.coverage_residual").Set(float64(coverable - fullyCovered))
	sp.Attr("selected", len(res.Selected)).Attr("residual", coverable-fullyCovered).End()
	if opt.Log != nil {
		opt.Log.Debug("MMRFS selection done",
			slog.Int("candidates", len(cands)),
			slog.Int("selected", len(res.Selected)),
			slog.Int("dropped", dropped),
			slog.Int("coverage_residual", coverable-fullyCovered))
	}
	return res, nil
}

// TopK returns the indices of the k candidates with the highest
// relevance (no redundancy or coverage reasoning) — the conventional
// filter-style feature selection used for the Item_FS baseline.
func TopK(cands []Candidate, classMasks []*bitset.Bitset, rel Relevance, k int) *Result {
	res := &Result{Relevance: scoreAll(cands, classMasks, rel, 1)}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if res.Relevance[idx[a]] != res.Relevance[idx[b]] {
			return res.Relevance[idx[a]] > res.Relevance[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	if k < 0 {
		k = 0
	}
	res.Selected = idx[:k]
	return res
}

// AboveThreshold returns the indices of candidates whose relevance is
// at least t, in descending relevance order — the IG0-threshold filter
// the paper's Section 3.1.3 equivalence argument is built on.
func AboveThreshold(cands []Candidate, classMasks []*bitset.Bitset, rel Relevance, t float64) *Result {
	res := &Result{Relevance: scoreAll(cands, classMasks, rel, 1)}
	idx := make([]int, 0, len(cands))
	for i := range cands {
		if res.Relevance[i] >= t {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if res.Relevance[idx[a]] != res.Relevance[idx[b]] {
			return res.Relevance[idx[a]] > res.Relevance[idx[b]]
		}
		return idx[a] < idx[b]
	})
	res.Selected = idx
	return res
}

// FireRates returns, per candidate, the fraction of the n training
// rows its coverage bitset fires on. This is the fit-time reference
// the modelobs drift layer compares live pattern fire rates against:
// computed from the same coverage bitmaps MMRFS selected on, so the
// baseline costs no extra pass over the data.
func FireRates(cands []Candidate, n int) []float64 {
	out := make([]float64, len(cands))
	if n <= 0 {
		return out
	}
	for i, c := range cands {
		if c.Cover != nil {
			out[i] = float64(c.Cover.Count()) / float64(n)
		}
	}
	return out
}
