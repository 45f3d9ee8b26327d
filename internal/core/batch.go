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
//     build, a guide table sized to m (none below 2k draws, which bisect)
//     and the m draws, plus a single negative-binomial span draw for the
//     whole window — which beats both exact stepping (one geometric per
//     event) and binomial chaining (whose 2k inversion setups dominate
//     small windows);
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
// the latter two with drift tolerance tol (0 selects DefaultTolerance). The
// empty string is the exact kernel. CLI -kernel and -tol flags share this
// parser; unknown names, and a tolerance that is NaN or outside
// [0, 0.25], are rejected with an error rather than defaulted or clamped
// as KernelBatched and KernelAuto do for callers in code.
func ParseKernel(s string, tol float64) (Kernel, error) {
	if math.IsNaN(tol) {
		return Kernel{}, fmt.Errorf("core: kernel tolerance %v is not a number", tol)
	}
	if tol < 0 || tol > maxTolerance {
		return Kernel{}, fmt.Errorf("core: kernel tolerance %v out of range [0, %v] (0 = default %v)", tol, maxTolerance, DefaultTolerance)
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
// chaining. The constant is the measured cost ratio of one opinion's share
// of a chained window (two binomial inversions with their transcendentals:
// ~7.5µs for a whole window at k = 32, ~230ns per opinion, whatever m) to
// one categorical draw (a buffered uniform, a guide load and a step or
// two: ~14ns, from BenchmarkCategoricalWindow's n=10000 rows at
// m = 128–256 on a 2-vCPU Xeon VM), so the two samplers cost about the
// same at m = 16k. The choice is a pure function of (m, k), so
// trajectories stay deterministic in the seed.
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

// narrowN is the population bound below which every quantity of a window
// fits one 64-bit word: W <= n·D <= n² < 2⁶⁴ for n < 2³², and with it every
// threshold and every cumulative weight. Categorical windows at such n build
// and draw in uint64 (sampleCategorical64); only larger populations pay for
// 128-bit arithmetic (sampleCategorical128). Both widths select the
// same categories from the same raw outputs, because Uint128n of a 64-bit
// bound is Uint64n.
const narrowN = 1 << 32

// ensureBatchScratch sizes the batched kernels' scratch buffers for k
// opinions. Allocation happens on first use (or growth); afterwards the
// buffers are resliced only. Reset can shrink the opinion count below a
// previous trial's k while the scratch capacity still suffices; the weight
// slice's *length* drives Multinomial's category count, so all scratch is
// resliced to the live k or stale trailing weights would leak window events
// onto phantom opinions.
func (s *Simulator) ensureBatchScratch(k int) {
	// The 128-bit categorical sampler's cumulative array carries one slot
	// past the 2k category weights for an absorbing all-ones sentinel: its
	// guide build's forward scan must stop inside the array even for
	// buckets whose smallest threshold is >= W (the threshold-space
	// bucketing reaches such buckets; no draw does). The 64-bit sampler
	// needs none, since its searches never pass cum[2k−1] = W and its guide
	// build does not scan. The guide table holds twice the power of two
	// strictly greater than 2k buckets — two per category slot, which keeps
	// the expected guide scan under half a step for the largest categorical
	// windows — plus one spare slot for the 64-bit build's stores at the
	// bucket count; each window builds only the prefix its size needs (see
	// guideFor). batchZero stays all zero: it is the floor slice of a dual
	// without stubborn floors.
	guideLen := 2<<bits.Len(uint(2*k)) + 1
	if cap(s.batchVals) < k || cap(s.batchGuide) < guideLen {
		s.batchVals = make([]int64, k)
		s.batchZero = make([]int64, k)
		s.batchCounts = make([]int64, 2*k)
		s.batchWeights = make([]float64, k)
		s.batchCum = make([]u128.U128, 2*k+1)
		s.batchCum64 = make([]uint64, 2*k)
		s.batchGuide = make([]int32, guideLen)
	}
	s.batchVals = s.batchVals[:k]
	s.batchZero = s.batchZero[:k]
	s.batchCounts = s.batchCounts[:2*k]
	s.batchWeights = s.batchWeights[:k]
	s.batchCum = s.batchCum[:2*k+1]
	s.batchCum64 = s.batchCum64[:2*k]
	s.batchGuide = s.batchGuide[:guideLen]
}

// windowFloors returns the support floors bⱼ of the frozen window law: the
// dual's stubborn floors, or the all-zero scratch slice when it carries
// none (classic). Every batchable variant's undecide weight is then
// (xⱼ−bⱼ)(D−xⱼ), so the samplers and the feasibility scan read one formula
// with no per-opinion branch or call. It needs ensureBatchScratch(k) first.
func (s *Simulator) windowFloors() []int64 {
	if b := s.tree.Floors(); b != nil {
		return b
	}
	return s.batchZero
}

// sampleWindowChained draws the per-opinion adopt/undecide counts of one
// m-event window from the frozen law by hierarchical binomial chaining: the
// number of adopt events is Binomial(m, uD/W), adopts split over opinions j
// with weights xⱼ, and undecide events split with weights (xⱼ−bⱼ)·(D−xⱼ) —
// together the exact multinomial law of m independent productive events at
// the frozen configuration. Cost is O(k) binomial draws independent of m.
// It fills batchCounts (adopt counts in the first k slots, undecide counts
// in the next k) from the pre-window supports vals and floors.
func (s *Simulator) sampleWindowChained(vals, floors []int64, m, d int64, pAdopt float64) {
	k := len(vals)
	weights := s.batchWeights[:k]
	floors = floors[:k]
	adopts := s.src.Binomial(m, pAdopt)
	for j, x := range vals {
		weights[j] = float64(x)
	}
	s.src.Multinomial(adopts, weights, s.batchCounts[:k:k])
	for j, x := range vals {
		weights[j] = float64(x-floors[j]) * float64(d-x)
	}
	s.src.Multinomial(m-adopts, weights, s.batchCounts[k:])
}

// sampleWindowCategorical draws the same frozen-law window as
// sampleWindowChained by m individual categorical draws against the exact
// integer cumulative weights of the 2k event categories (adopt opinion j
// with weight u·xⱼ, undecide opinion j with weight (xⱼ−bⱼ)·(D−xⱼ)) — the
// same multinomial distribution, materialized event by event. Cost is
// O(k + m) — the O(k) cumulative build, a guide table of O(m) buckets, and
// m guided draws whose scans total O(k + m) expected steps; below narrowN
// a window of fewer than 2k draws bisects instead, O(k + m·log k) — which
// undercuts the chained sampler's 2k inversion setups whenever m is small
// relative to k. It fills batchCounts from the pre-window supports vals and
// floors. Below narrowN it runs in 64-bit words, otherwise in 128-bit ones;
// both select identical categories.
func (s *Simulator) sampleWindowCategorical(vals, floors []int64, w u128.U128, m, d int64) {
	if s.n < narrowN {
		s.sampleCategorical64(vals, floors, w.Lo, m, d)
		return
	}
	s.sampleCategorical128(vals, floors, w, m, d)
}

// guideFor returns the guide table (Chen's method) of an m-draw window and
// the log₂ gb of its bucket count. Buckets partition a threshold's draw
// space [0, w) by its top bits: with lz = w's leading-zero count, a
// threshold shifted left by lz normalizes to the top of its B-bit word
// (B = 64 or 128), and its top gb bits select the bucket. Bucket g
// therefore covers thresholds in [g·2^(B−gb−lz), (g+1)·2^(B−gb−lz)), and
// its entry is the first category index a threshold in that bucket can
// select — correct as a scan start because thresholds grow with the bucket
// index. The bucket count is the next power of two >= m (at least 8, at
// most the table's capacity less its spare slot): the build then costs
// O(m + k), where a fixed table of 4k–8k buckets dominated windows of a
// dozen draws, and the draws' scans still total O(m + k) expected steps.
// Every draw selects the first category with cum > r whatever the bucket
// count, so the sampled window does not depend on it.
func (s *Simulator) guideFor(m int64) ([]int32, uint) {
	nb := max(1<<bits.Len64(uint64(m-1)), 8)
	guide := s.batchGuide[:min(nb, len(s.batchGuide)-1)]
	return guide, uint(bits.Len(uint(len(guide)) - 1))
}

// sampleCategorical64 is sampleWindowCategorical for n < narrowN, where the
// draw space w, every cumulative weight and every threshold fit in uint64.
// Each draw selects the first category j with cum[j] > r; how it finds j
// depends only on (m, k). A window of fewer draws than its 2k categories
// builds no guide and bisects each draw (bisect64): the guide's O(2k)
// build would cost more than it saves. A larger window builds the guide
// with no data-dependent branch and resolves most draws with one table
// load and two branch-free steps.
func (s *Simulator) sampleCategorical64(vals, floors []int64, w uint64, m, d int64) {
	k := len(vals)
	cum := s.batchCum64[:2*k]
	counts := s.batchCounts[:2*k]
	floors = floors[:k]
	u := uint64(s.u)
	var c uint64
	for j, x := range vals {
		c += u * uint64(x)
		cum[j] = c
	}
	for j, x := range vals {
		c += uint64(x-floors[j]) * uint64(d-x)
		cum[k+j] = c
	}
	clear(counts)
	// c == w by construction and every threshold is drawn in [0, w), so
	// cum[2k−1] > r ends every search inside the array.
	if m < int64(2*k) {
		for e := int64(0); e < m; e++ {
			counts[bisect64(cum, s.src.Uint64n(w))]++
		}
		return
	}
	guide, gb := s.guideFor(m)
	lz := uint(bits.LeadingZeros64(w))
	sh := 64 - gb
	// A threshold r falls in bucket (r<<lz)>>sh, and category j lies below
	// every threshold of bucket g exactly when cum[j]<<lz <= g<<sh: from
	// the category's bucket bound ⌈(cum[j]<<lz) / 2^sh⌉ on. Bucket g's
	// entry, the number of categories bounded at or below g, is then the
	// running maximum of j+1 stored at each category's bound. The shift
	// cannot overflow because every cum[j] <= w, and a bound can reach the
	// bucket count, which the table's spare slot absorbs.
	mask := uint64(1)<<sh - 1
	table := s.batchGuide[:len(guide)+1]
	clear(table)
	for j, c := range cum {
		c <<= lz
		table[c>>sh+(c&mask+mask)>>sh] = int32(j + 1)
	}
	var run int32
	for g, v := range guide {
		run = max(run, v)
		guide[g] = run
	}
	for e := int64(0); e < m; e++ {
		// With at least as many buckets as categories, the entry rarely
		// falls more than two categories short: two branch-free steps
		// (each adds 1 unless r − cum[idx] borrows, that is unless
		// cum[idx] > r) and a scan for the rest.
		r := s.src.Uint64n(w)
		idx := int(guide[r<<lz>>sh])
		_, above := bits.Sub64(r, cum[idx], 0)
		idx += int(1 - above)
		_, above = bits.Sub64(r, cum[idx], 0)
		idx += int(1 - above)
		for cum[idx] <= r {
			idx++
		}
		counts[idx]++
	}
}

// bisect64 returns the first index j with cum[j] > r; cum must be
// non-decreasing and its last element above r. Each halving step advances
// by its half unless r − cum borrows (cum > r), as a mask rather than a
// branch: a window's draws land all over the categories, so a branch
// would mispredict about every other step. The step count depends only on
// len(cum).
func bisect64(cum []uint64, r uint64) int {
	base := 0
	for n := len(cum); n > 1; {
		half := n >> 1
		_, above := bits.Sub64(r, cum[base+half-1], 0)
		base += half & (int(above) - 1)
		n -= half
	}
	return base
}

// sampleCategorical128 is sampleWindowCategorical in 128-bit words, for
// n >= narrowN, where W reaches ~2⁷⁴ at MaxN. It consumes the raw stream
// exactly as sampleCategorical64 does whenever W fits 64 bits, because
// Uint128n then delegates to Uint64n; wider W takes its mask-rejection path.
func (s *Simulator) sampleCategorical128(vals, floors []int64, w u128.U128, m, d int64) {
	k := len(vals)
	cum := s.batchCum[:2*k+1]
	counts := s.batchCounts[:2*k]
	floors = floors[:k]
	var c u128.U128
	for j, x := range vals {
		c = c.Add(u128.Mul64(uint64(s.u), uint64(x)))
		cum[j] = c
	}
	for j, x := range vals {
		c = c.Add(u128.Mul64(uint64(x-floors[j]), uint64(d-x)))
		cum[k+j] = c
	}
	clear(counts)
	cum[2*k] = u128.Max
	guide, gb := s.guideFor(m)
	lz := uint(128 - w.Len())
	idx := 0
	for g := range guide {
		rg := u128.U128{Hi: uint64(g) << (64 - gb)}.Rsh(lz)
		for cum[idx].Leq(rg) {
			idx++
		}
		guide[g] = int32(idx)
	}
	for e := int64(0); e < m; e++ {
		r := s.src.Uint128n(w)
		idx := int(guide[r.Lsh(lz).Hi>>(64-gb)])
		for cum[idx].Leq(r) {
			idx++
		}
		counts[idx]++
	}
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
// A window whose net deltas would drive a support under its floor (zero,
// or the opinion's stubborn count) is discarded and resampled at half the
// size (falling back to one exact step below the kernel's floor), which
// conditions away a large-deviation event of probability o(1) in the
// window size: the frozen law's undecide weight already vanishes at the
// floor.
func (s *Simulator) batchStep(w u128.U128, m int64, budget u128.U128, row kernelRow) (Event, bool) {
	d := s.n - s.u
	k := s.tree.Len()
	s.ensureBatchScratch(k)
	pAdopt := u128.Mul64(uint64(s.u), uint64(d)).Float64() / w.Float64()
	categorical := m < row.categorical*int64(k)
	// The pre-window supports are read through the tree's live view — no
	// per-window copy — and stay untouched until SetAll, including across
	// feasibility resamples.
	vals := s.tree.View()
	floors := s.windowFloors()[:k]
	adoptCounts, undecideCounts := s.batchCounts[:k], s.batchCounts[k:2*k]
	next := s.batchVals[:k]
	for {
		if categorical {
			s.sampleWindowCategorical(vals, floors, w, m, d)
		} else {
			s.sampleWindowChained(vals, floors, m, d, pAdopt)
		}

		// One post-draw scan computes the post-window supports (into
		// scratch, the view stays pristine), checks each against its floor
		// and totals the adopts.
		feasible := true
		var adopts int64
		for j, x := range vals {
			nx := x + adoptCounts[j] - undecideCounts[j]
			if nx < floors[j] {
				feasible = false
				break
			}
			adopts += adoptCounts[j]
			next[j] = nx
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
		// One O(k) copy: the dual re-totals Σx and Σx² and rebuilds its
		// prefix trees only when a later exact step descends them.
		s.tree.SetAll(next)
		s.u += (m - adopts) - adopts
		return Event{Kind: EventBatch, Opinion: -1, Interactions: s.steps, Count: m}, true
	}
}
