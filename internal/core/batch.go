package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/u128"
)

// Kernel selects the stepping implementation of a Simulator. The zero value
// is KernelExact. Construct batched kernels with KernelBatched and hybrid
// auto kernels with KernelAuto.
type Kernel struct {
	row uint8 // index into kernelRows
	tol float64
}

// kernelRow is one stepping kernel as data: the run loop, Reset and
// batchStep read a kernel's behaviour from its row instead of branching on
// which kernel is running.
type kernelRow struct {
	// name is the kernel's family name, as KernelNames lists it.
	name string
	// floor is the exact-stepping floor: windows of fewer events step
	// exactly, and feasibility halving below it falls back to one exact
	// step. Zero marks the exact kernel, which never samples a window.
	floor int64
	// categorical is the strategy boundary in units of the opinion count:
	// windows of fewer than categorical·k events are sampled by per-event
	// categorical draws, larger ones by binomial chaining. Zero means
	// always chained.
	categorical int64
}

// kernelRows holds every kernel in parse order; Kernel.row indexes it.
var kernelRows = [...]kernelRow{
	exactRow:   {name: "exact"},
	batchedRow: {name: "batched", floor: minBatchWindow},
	autoRow:    {name: "auto", floor: minAutoWindow, categorical: autoCategoricalFactor},
}

const (
	exactRow uint8 = iota
	batchedRow
	autoRow
)

// kernelAt returns the kernel of row i with drift tolerance tol (tol <= 0
// selects DefaultTolerance; values above maxTolerance are clamped). The
// exact row carries no tolerance.
func kernelAt(i uint8, tol float64) Kernel {
	if kernelRows[i].floor == 0 {
		return Kernel{row: i}
	}
	if tol <= 0 {
		tol = DefaultTolerance
	}
	return Kernel{row: i, tol: min(tol, maxTolerance)}
}

// KernelExact samples every productive interaction individually from the
// exact transition law in O(log k). It is the default.
var KernelExact = Kernel{row: exactRow}

// DefaultTolerance is the drift tolerance KernelBatched uses when the caller
// passes tol <= 0. At 0.05 the batched and exact kernels are statistically
// indistinguishable in the kernel-agreement experiment while batches still
// reach ~tol·n/2 productive events at the undecided equilibrium.
const DefaultTolerance = 0.05

// maxTolerance caps the drift tolerance; larger values would let a single
// window move rates by a constant factor, voiding the accuracy contract.
const maxTolerance = 0.25

// KernelBatched returns the batched stepping kernel with the given drift
// tolerance (tol <= 0 selects DefaultTolerance; values above 0.25 are
// clamped). The kernel freezes the transition law of Observation 6 at the
// start of an adaptively-sized window of m productive interactions, samples
// the per-opinion adopt/undecide counts of the whole window at once via
// multinomial chaining, and applies them with one O(k) bulk update — an
// amortized O(k/m + 1) cost per productive interaction instead of O(log k).
//
// Accuracy contract: the window m is chosen by the tau-leaping leap
// condition so that every per-opinion event rate (u·xⱼ and xᵢ·(D−xᵢ)) and
// the productive probability W/n² change by at most a ~tol relative factor
// across the window; windows shrink as the undecided count or the
// productive weight shrink and the kernel degenerates to the exact
// single-step law (m = 1) near absorption and for small supports, so the
// endgame — where individual events decide the winner — is simulated
// exactly. Sampled windows that would drive a support negative are
// resampled at half the window size, down to the exact law.
func KernelBatched(tol float64) Kernel { return kernelAt(batchedRow, tol) }

// KernelAuto returns the hybrid stepping kernel with the given drift
// tolerance (tol <= 0 selects DefaultTolerance; values above 0.25 are
// clamped). It follows exactly the batched kernel's window law — the same
// tau-leaping leap condition, the same frozen multinomial window
// distribution, the same feasibility halving — but picks the cheapest
// sampling strategy per window with a deterministic cost model over the
// window size m and the opinion count k:
//
//   - m < minAutoWindow: exact stepping (the window law degenerates to the
//     single-event law there anyway, and per-window setup would dominate);
//   - m < autoCategoricalFactor·k: per-event categorical draws against the
//     frozen cumulative weights — O(k + m) per window for the cumulative
//     build, a guide table sized to m and the m guided draws, plus a
//     single negative-binomial span draw for the whole window — which
//     beats both exact stepping (one geometric per event) and binomial
//     chaining (whose 2k inversion setups dominate small windows);
//   - larger m: the chained-binomial batch of KernelBatched, whose O(k)
//     cost is independent of m.
//
// The strategy choice depends only on (m, k), never on wall-clock, so runs
// remain deterministic in the seed. Small-n fleet workloads — where windows
// rarely grow past a few multiples of k and KernelBatched degrades to near
// parity with exact stepping — are the regime this kernel exists for; the
// K1 agreement experiment validates its accuracy contract alongside the
// batched kernel's.
func KernelAuto(tol float64) Kernel { return kernelAt(autoRow, tol) }

// KernelNames returns the registered kernel names in parse order; unknown-
// kernel errors enumerate it.
func KernelNames() []string {
	names := make([]string, len(kernelRows))
	for i, r := range kernelRows {
		names[i] = r.name
	}
	return names
}

// ParseKernel returns the kernel named by s: "exact", "batched", or "auto",
// the latter two with drift tolerance tol (tol <= 0 selects
// DefaultTolerance; values above 0.25, +Inf included, are clamped). The
// empty string is the exact kernel. CLI -kernel flags share this parser;
// unknown names, and a NaN tolerance, are rejected with an error.
func ParseKernel(s string, tol float64) (Kernel, error) {
	if math.IsNaN(tol) {
		return Kernel{}, fmt.Errorf("core: kernel tolerance %v is not a number", tol)
	}
	if s == "" {
		return KernelExact, nil
	}
	for i, r := range kernelRows {
		if r.name == s {
			return kernelAt(uint8(i), tol), nil
		}
	}
	return Kernel{}, fmt.Errorf("core: unknown kernel %q (want %s)", s, strings.Join(KernelNames(), ", "))
}

// Batched reports whether the kernel steps in tau-leaping windows (the
// batched and auto kernels) rather than single events.
func (k Kernel) Batched() bool { return kernelRows[k.row].floor > 0 }

// Auto reports whether the kernel is the hybrid auto kernel.
func (k Kernel) Auto() bool { return k.row == autoRow }

// Tolerance returns the drift tolerance of a batched or auto kernel and 0
// for the exact kernel.
func (k Kernel) Tolerance() float64 { return k.tol }

// Name returns the kernel's bare family name — "exact", "batched", or
// "auto" — without the tolerance; it is the identity CLI flags and shard
// job specs use.
func (k Kernel) Name() string { return kernelRows[k.row].name }

// String returns a short name for the kernel.
func (k Kernel) String() string {
	if !k.Batched() {
		return "exact"
	}
	return fmt.Sprintf("%s(%g)", k.Name(), k.tol)
}

// WithKernel selects the stepping kernel used by Run, RunObserved,
// RunWatched, and RunUntil. The default is KernelExact. The single-step
// methods Step and StepProductive always follow the exact law regardless
// of the kernel. The windowed kernels always skip unproductive
// interactions; WithSkipping only affects the exact kernel.
func WithKernel(k Kernel) Option {
	return func(s *Simulator) { s.kernel = k }
}

// SetKernel switches the stepping kernel in place: the equivalent of
// applying WithKernel, without the per-call closure a func-valued option
// costs. Fleet trial bodies that Reset a shared simulator once per trial
// call it right after the reset to stay allocation-free in steady state.
func (s *Simulator) SetKernel(k Kernel) { s.kernel = k }

// minBatchWindow is the smallest window the batched kernel samples as a
// batch; below it the per-window O(k) overhead exceeds the cost of exact
// stepping, so the kernel falls back to the exact law. It also bounds how
// far infeasible windows can halve before the exact law takes over.
const minBatchWindow = 32

// minAutoWindow is the auto kernel's exact-stepping floor. The categorical
// window sampler's per-window setup is a single O(k) cumulative-weight pass
// and one negative-binomial span draw, so batching pays off at much smaller
// windows than the chained-binomial sampler's minBatchWindow; below this
// floor (and whenever feasibility halving drives a window under it) the
// auto kernel steps exactly.
const minAutoWindow = 8

// autoCategoricalFactor is the auto kernel's strategy boundary in units of
// the opinion count: windows of fewer than autoCategoricalFactor·k events
// are sampled by per-event categorical draws, larger ones by binomial
// chaining. The constant is the measured cost ratio of one chained-binomial
// category (two CDF-inversion setups with their transcendentals, ~100ns) to
// one categorical draw (a buffered uniform plus a binary search, ~12ns),
// discounted for the categorical path's O(k) cumulative build. The choice
// is a pure function of (m, k), so trajectories stay deterministic in the
// seed.
const autoCategoricalFactor = 16

// wDriftDivisor bounds the drift of the productive weight W = uD + (D²−r₂)
// across a window. The per-event change of W telescopes: an adopt of
// opinion j changes it by exactly (n − 2xⱼ) − 1 and an undecide of opinion
// i by 2xᵢ − n − 1, so |ΔW| <= n+1 per productive event — the term-wise
// bound of ~5n (u·D by n, D² by 2n+1, r₂ by 2n−1) ignores the cancellation
// between the terms. A window of tol·W/(2n) events therefore keeps the
// relative drift of W below tol·(n+1)/(2n) ~ tol/2, comfortably inside the
// kernel's tolerance, with windows 2.5× the size the term-wise bound
// permitted.
const wDriftDivisor = 2

// window returns the number of productive events the run loop samples as
// its next window, or 0 when the next event steps exactly: always under a
// zero floor (the exact kernel, or a variant without a window law), and
// whenever the window would fall under the floor.
//
// The size is the largest window for which the frozen transition law stays
// within the kernel's drift tolerance, following the tau-leaping leap
// condition: every event changes u by ±1 and one support by ±1, so
// m <= tol·u bounds the relative drift of u, and m <= tol·W/(2n) bounds
// both the relative drift of W (|ΔW| <= n+1 per event, see wDriftDivisor;
// variants supply their own divisor) and — because
// max(tol·xⱼ, 1)·W/(xⱼ·(u+D−xⱼ)) >= tol·W/n >= 2·(tol·W/(2n)) for every
// opinion — the relative drift of each per-opinion rate with support at
// least 1/tol (smaller supports are allowed one whole unit of change, the
// tau-leaping granularity floor). Under a budget the window is further
// capped at a quarter of the productive events the remaining budget is
// expected to hold: batching continues up to the budget with geometrically
// smaller windows, the overshoot-discard tail stays negligible, and the
// final handful of events step exactly, preserving single-event truncation
// resolution.
func (s *Simulator) window(w, budget u128.U128, floor int64) int64 {
	if floor == 0 {
		return 0
	}
	tol := s.kernel.tol
	m := math.Min(tol*float64(s.u), tol*w.Float64()/(s.dyn.driftDivisor()*float64(s.n)))
	if !budget.IsZero() {
		// float64 throughout: the remaining interaction count can exceed
		// int64, but m is bounded by tol·n.
		m = math.Min(m, budget.Sub(s.steps).Float64()*w.Float64()*s.invNSq/4)
	}
	if !(m >= float64(floor)) { // a NaN window steps exactly too
		return 0
	}
	return int64(m)
}

// stepSkip performs one exact productive step with geometric skipping. The
// returned bool is false when the jump to the next productive interaction
// crossed the budget; the clock is then clamped to the budget and no event
// is applied, exactly as if simulation had stopped mid-jump.
func (s *Simulator) stepSkip(w, budget u128.U128) (Event, bool) {
	jump := s.src.GeometricU128(w.Float64() * s.invNSq)
	// The comparison is budget−steps < jump, not budget < steps+jump: the
	// run loop guarantees steps < budget here, so the saturating Sub is the
	// exact remaining budget, whereas steps+jump could saturate at u128.Max
	// for a degenerate jump and silently pass a budget check phrased on the
	// sum. Without a budget the clock saturates instead of wrapping.
	if !budget.IsZero() && budget.Sub(s.steps).Less(jump) {
		s.steps = budget
		return Event{}, false
	}
	s.steps = satAdd(s.steps, jump)
	ev := s.applyProductive(s.src.Uint128n(w))
	ev.Interactions = s.steps
	return ev, true
}

// ensureBatchScratch sizes the batched kernels' scratch buffers for k
// opinions. Allocation happens on first use (or growth); afterwards the
// buffers are resliced only. Reset can shrink the opinion count below a
// previous trial's k while the scratch capacity still suffices; the weight
// slice's *length* drives Multinomial's category count, so all scratch is
// resliced to the live k or stale trailing weights would leak window events
// onto phantom opinions.
func (s *Simulator) ensureBatchScratch(k int) {
	// The categorical sampler's cumulative array carries one slot past the
	// 2k category weights for the absorbing u128.Max sentinel: the guide
	// build's forward scan must stop inside the array even for buckets whose
	// smallest threshold is >= W (the threshold-space bucketing reaches such
	// buckets; no draw does). The guide table's capacity is twice the power
	// of two strictly greater than 2k — two buckets per category slot,
	// which keeps the expected guide scan under half a step for the largest
	// categorical windows; each window builds only the prefix its size
	// needs (see sampleWindowCategorical).
	guideLen := 2 << bits.Len(uint(2*k))
	if cap(s.batchVals) < k || cap(s.batchGuide) < guideLen {
		s.batchVals = make([]int64, k)
		s.batchCounts = make([]int64, 2*k)
		s.batchWeights = make([]float64, k)
		s.batchCum = make([]u128.U128, 2*k+1)
		s.batchGuide = make([]int32, guideLen)
	}
	s.batchVals = s.batchVals[:k]
	s.batchCounts = s.batchCounts[:2*k]
	s.batchWeights = s.batchWeights[:k]
	s.batchCum = s.batchCum[:2*k+1]
	s.batchGuide = s.batchGuide[:guideLen]
}

// sampleWindowChained draws the per-opinion adopt/undecide counts of one
// m-event window from the frozen law by hierarchical binomial chaining: the
// number of adopt events is Binomial(m, uD/W), adopts split over opinions j
// with weights xⱼ, and undecide events split with weights xᵢ·(D−xᵢ) —
// together the exact multinomial law of m independent productive events at
// the frozen configuration. Cost is O(k) binomial draws independent of m.
// It fills batchCounts (adopt counts in the first k slots, undecide counts
// in the next k) from the pre-window supports vals and returns the adopt
// total.
func (s *Simulator) sampleWindowChained(vals []int64, m, d int64, pAdopt float64) int64 {
	k := len(vals)
	adopts := s.src.Binomial(m, pAdopt)
	for j, x := range vals {
		s.batchWeights[j] = float64(x)
	}
	s.src.Multinomial(adopts, s.batchWeights, s.batchCounts[:k:k])
	s.dyn.fillUndecideWeights(s, vals, d, s.batchWeights)
	s.src.Multinomial(m-adopts, s.batchWeights, s.batchCounts[k:])
	return adopts
}

// sampleWindowCategorical draws the same frozen-law window as
// sampleWindowChained by m individual categorical draws against the exact
// integer cumulative weights of the 2k event categories (adopt opinion j
// with weight u·xⱼ, undecide opinion i with weight xᵢ·(D−xᵢ)) — the same
// multinomial distribution, materialized event by event. Cost is O(k + m)
// — the O(k) cumulative build, a guide table of O(m) buckets, and m guided
// draws whose scans total O(k + m) expected steps — which undercuts the
// chained sampler's 2k inversion setups whenever m is small relative to k.
// It fills batchCounts from the pre-window supports vals and returns the
// adopt total.
func (s *Simulator) sampleWindowCategorical(vals []int64, w u128.U128, m, d int64) int64 {
	k := len(vals)
	cum := s.batchCum
	counts := s.batchCounts
	var c u128.U128
	for j, x := range vals {
		c = c.Add(u128.Mul64(uint64(s.u), uint64(x)))
		cum[j] = c
		counts[j] = 0
	}
	for j, x := range vals {
		c = c.Add(s.dyn.undecideWeightU(s, j, x, d))
		cum[k+j] = c
		counts[k+j] = 0
	}
	// c == W by construction; thresholds are drawn in [0, W). The trailing
	// slot is an absorbing sentinel a draw can never reach.
	cum[2*k] = u128.Max
	// Guide table (Chen's method), bucketed by a threshold's top bits within
	// the draw space [0, w): with lz = w's leading-zero count, a threshold
	// shifted left by lz normalizes to the top of the 128-bit range, and its
	// top gb bits select the bucket. Bucket g therefore covers thresholds in
	// [g·2^(128−gb−lz), (g+1)·2^(128−gb−lz)), and guide[g] is the first
	// category index a threshold in that bucket can select — correct as a
	// scan start because thresholds grow with the bucket index. A draw then
	// begins its linear scan at its bucket's entry. The bucket count is the
	// next power of two >= m (at least 8, at most the table's capacity):
	// the build then costs O(m + k), where a fixed table of 4k–8k buckets
	// dominated windows of a dozen draws, and the draws' scans still total
	// O(m + k) expected steps. Every draw selects the first category with
	// cum > r whatever the bucket count, so the sampled window does not
	// depend on it. The build is one merge pass: the category pointer only
	// moves forward.
	nb := max(1<<bits.Len64(uint64(m-1)), 8)
	guide := s.batchGuide[:min(nb, len(s.batchGuide))]
	gb := uint(bits.Len(uint(len(guide)) - 1)) // log₂ of the bucket count
	lz := uint(128 - w.Len())
	idx := 0
	for g := range guide {
		// Smallest threshold of bucket g.
		rg := u128.U128{Hi: uint64(g) << (64 - gb)}.Rsh(lz)
		for cum[idx].Leq(rg) {
			idx++
		}
		guide[g] = int32(idx)
	}
	for e := int64(0); e < m; e++ {
		// For w within 64 bits Uint128n is the same Lemire multiply-shift
		// draw the pre-u128 sampler inlined, consuming identical raw
		// outputs; wider w takes its mask-rejection path. The selected
		// category is a single indexed increment — adopt vs undecide is
		// resolved by the count slot, not a per-draw branch.
		r := s.src.Uint128n(w)
		idx := int(guide[r.Lsh(lz).Hi>>(64-gb)])
		for cum[idx].Leq(r) {
			idx++
		}
		counts[idx]++
	}
	var adopts int64
	for _, c := range counts[:k] {
		adopts += c
	}
	return adopts
}

// batchStep samples one window of m productive events under the law frozen
// at the current configuration and applies it in bulk. The kernel's row
// picks the sampling strategy — per-event categorical draws for windows
// under row.categorical·k events, binomial chaining otherwise; both draw
// from the identical window distribution — and the exact-stepping floor.
// The returned bool is false when the window's interaction span crossed the
// budget; the clock is then clamped to the budget and the window is
// discarded, mirroring the exact kernel's mid-jump budget semantics.
//
// A window whose net deltas would drive a support negative is discarded and
// resampled at half the size (falling back to one exact step below the
// floor), which conditions away a large-deviation event of probability o(1)
// in the window size.
func (s *Simulator) batchStep(w u128.U128, m int64, budget u128.U128, row kernelRow) (Event, bool) {
	d := s.n - s.u
	k := s.tree.Len()
	s.ensureBatchScratch(k)
	pAdopt := u128.Mul64(uint64(s.u), uint64(d)).Float64() / w.Float64()
	categorical := m < row.categorical*int64(k)
	// The pre-window supports are read through the tree's live view — no
	// per-window copy — and stay untouched until applyWindow, including
	// across feasibility resamples.
	vals := s.tree.View()
	for {
		var adopts int64
		if categorical {
			adopts = s.sampleWindowCategorical(vals, w, m, d)
		} else {
			adopts = s.sampleWindowChained(vals, m, d, pAdopt)
		}

		// Feasibility scan: compute the post-window supports (into scratch,
		// the view stays pristine) and Σx², and count touched opinions so
		// the apply step can pick the cheaper of an incremental Fenwick
		// update and a full rebuild.
		feasible := true
		touched := 0
		var r2 u128.U128
		k2 := len(vals)
		for j, x := range vals {
			delta := s.batchCounts[j] - s.batchCounts[k2+j]
			nx := x + delta
			if nx < s.dyn.supportFloor(s, j) {
				feasible = false
				break
			}
			if delta != 0 {
				touched++
			}
			s.batchVals[j] = nx
			r2 = r2.Add(u128.Mul64(uint64(nx), uint64(nx)))
		}
		if !feasible {
			m /= 2
			if m < row.floor {
				return s.stepSkip(w, budget)
			}
			continue
		}

		// The m productive events of the window are spread over a span of
		// interactions distributed NegativeBinomial(m, W/n²) — the law of
		// m consecutive geometric skips of the exact kernel (sampled via
		// rng.NegativeBinomialU128, whose large-m normal approximation
		// carries O(1/√m) relative error, well inside the kernel's
		// tolerance).
		span := s.src.NegativeBinomialU128(m, w.Float64()*s.invNSq)
		// Saturating comparison, as in stepSkip: the span can saturate at
		// u128.Max for degenerate parameters, and a budget check phrased on
		// steps+span would then saturate too and silently pass. steps <
		// budget holds here, so budget−steps is the exact remaining budget.
		if !budget.IsZero() && budget.Sub(s.steps).Less(span) {
			s.steps = budget
			return Event{}, false
		}
		s.steps = satAdd(s.steps, span)
		s.applyWindow(touched, k)
		s.r2 = r2
		s.u += (m - adopts) - adopts
		return Event{Kind: EventBatch, Opinion: -1, Interactions: s.steps, Count: m}, true
	}
}

// applyWindow writes the window's post-state supports (already materialized
// in batchVals, with per-opinion deltas recoverable from the adopt and
// undecide halves of batchCounts) into the Fenwick tree. Windows that touch few
// opinions — routine near absorption and in the many-opinions regime, where
// a window's events concentrate on a handful of survivors — apply as
// incremental O(log k) point updates; denser windows take the one-pass O(k)
// rebuild. The crossover compares touched·(log₂k+2) point-update work
// against the k-slot rebuild.
func (s *Simulator) applyWindow(touched, k int) {
	if touched*(bits.Len(uint(k))+2) < k {
		for j := range s.batchVals {
			if delta := s.batchCounts[j] - s.batchCounts[k+j]; delta != 0 {
				s.tree.Add(j, delta)
			}
		}
		return
	}
	s.tree.SetAll(s.batchVals)
}
