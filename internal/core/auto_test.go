package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/rng"
	"repro/internal/u128"
)

func TestKernelAutoIdentity(t *testing.T) {
	k := KernelAuto(0.1)
	if got := k.String(); got != "auto(0.1)" {
		t.Fatalf("KernelAuto(0.1).String() = %q", got)
	}
	if !k.Auto() || !k.Batched() {
		t.Fatalf("KernelAuto: Auto()=%v Batched()=%v, want true/true", k.Auto(), k.Batched())
	}
	if KernelBatched(0.1).Auto() || KernelExact.Auto() {
		t.Fatal("non-auto kernels report Auto()")
	}
	if got := KernelAuto(0).Tolerance(); got != DefaultTolerance {
		t.Fatalf("KernelAuto(0).Tolerance() = %v, want DefaultTolerance", got)
	}
	for _, tc := range []struct {
		kern Kernel
		name string
	}{
		{KernelExact, "exact"},
		{KernelBatched(0), "batched"},
		{KernelAuto(0), "auto"},
	} {
		if got := tc.kern.Name(); got != tc.name {
			t.Fatalf("Name() = %q, want %q", got, tc.name)
		}
	}
}

func TestParseKernelAuto(t *testing.T) {
	k, err := ParseKernel("auto", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Auto() || k.Tolerance() != 0.03 {
		t.Fatalf("ParseKernel(auto, 0.03) = %v", k)
	}
	if _, err := ParseKernel("warp", 0); err == nil {
		t.Fatal("ParseKernel accepted an unknown kernel")
	}
}

func TestParseKernelRejectsNaNTolerance(t *testing.T) {
	// A NaN tolerance must fail at parse time: accepted, it labels a run
	// auto(NaN) that steps exactly in process, and the shard-spec encoder
	// cannot encode it.
	for _, name := range KernelNames() {
		if _, err := ParseKernel(name, math.NaN()); err == nil || !strings.Contains(err.Error(), "tolerance") {
			t.Fatalf("ParseKernel(%q, NaN) error = %v, want one naming the tolerance", name, err)
		}
	}
	// A tolerance outside [0, maxTolerance] is rejected too, +Inf
	// included; the constructors in code keep their clamp.
	for _, tol := range []float64{-1, math.Inf(-1), maxTolerance + 0.01, math.Inf(1)} {
		if k, err := ParseKernel("auto", tol); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("ParseKernel(auto, %v) = %v, %v; want an out-of-range error", tol, k, err)
		}
	}
	for _, tol := range []float64{0, maxTolerance} {
		if _, err := ParseKernel("auto", tol); err != nil {
			t.Fatalf("ParseKernel(auto, %v): %v", tol, err)
		}
	}
	if k := KernelAuto(math.Inf(1)); k.Tolerance() != maxTolerance {
		t.Fatalf("KernelAuto(+Inf) tolerance %v, want the clamp %v", k.Tolerance(), maxTolerance)
	}
}

func TestAutoReachesConsensus(t *testing.T) {
	c, err := conf.WithAdditiveBias(1<<16, 8, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, rng.New(11), WithKernel(KernelAuto(0)))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(NoBudget)
	if res.Outcome != OutcomeConsensus {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if !s.IsConsensus() {
		t.Fatal("simulator not at consensus after consensus outcome")
	}
}

func TestAutoInvariantsEveryEvent(t *testing.T) {
	// After every applied event — categorical window, chained window, or
	// exact fallback — the aggregate invariants must hold: Σx + u = n,
	// r₂ = Σx², supports non-negative, and the clock advances by at least
	// Count. The small n keeps windows under autoCategoricalFactor·k so the
	// categorical sampler is the one exercised.
	c, err := conf.Uniform(1<<14, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, rng.New(3), WithKernel(KernelAuto(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	var batches, singles int
	var prevClock u128.U128
	var buf []int64
	res := s.RunObserved(NoBudget, func(sim *Simulator, ev Event) {
		switch ev.Kind {
		case EventBatch:
			batches++
			if ev.Count < minAutoWindow {
				t.Fatalf("batch of %d events below minAutoWindow", ev.Count)
			}
		case EventAdopt, EventUndecide:
			singles++
		default:
			t.Fatalf("unexpected event kind %v", ev.Kind)
		}
		if ev.Interactions.Less(prevClock.Add64(uint64(ev.Count))) {
			t.Fatalf("clock %v advanced less than Count from %v", ev.Interactions, prevClock)
		}
		prevClock = ev.Interactions
		buf = sim.Supports(buf[:0])
		var sum, sq int64
		for _, x := range buf {
			if x < 0 {
				t.Fatalf("negative support %d", x)
			}
			sum += x
			sq += x * x
		}
		if sum+sim.Undecided() != sim.N() {
			t.Fatalf("population leak: Σx=%d u=%d n=%d", sum, sim.Undecided(), sim.N())
		}
		if !sim.SumSquares().Eq(u128.From64(sq)) {
			t.Fatalf("r₂ drift: tracked %v, actual %d", sim.SumSquares(), sq)
		}
	})
	if res.Outcome != OutcomeConsensus {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if batches == 0 {
		t.Fatal("auto kernel never applied a batch window")
	}
	if singles == 0 {
		t.Fatal("auto kernel never fell back to exact steps (endgame should)")
	}
}

func TestAutoDeterministicGivenSeed(t *testing.T) {
	run := func() Result {
		c, err := conf.Uniform(1<<15, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(c, rng.New(77), WithKernel(KernelAuto(0)))
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(NoBudget)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestAutoAndExactAgreeStatistically(t *testing.T) {
	// Mean consensus time under the auto kernel must match the exact
	// kernel's within a few standard errors; the full distributional gates
	// (winner frequencies, KS, phase medians) are the K1 experiment's auto
	// arm.
	if testing.Short() {
		t.Skip("statistical comparison skipped in -short mode")
	}
	const trials = 40
	n := int64(1 << 14)
	sample := func(kern Kernel, seedBase uint64) (mean, sd float64) {
		var xs []float64
		for i := 0; i < trials; i++ {
			c, err := conf.Uniform(n, 8, 0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(c, rng.New(rng.Derive(seedBase, uint64(i))), WithKernel(kern))
			if err != nil {
				t.Fatal(err)
			}
			res := s.Run(NoBudget)
			if res.Outcome != OutcomeConsensus {
				t.Fatalf("outcome %v", res.Outcome)
			}
			xs = append(xs, res.Interactions.Float64())
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean = sum / trials
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		sd = math.Sqrt(ss / (trials - 1))
		return mean, sd
	}
	m1, s1 := sample(KernelExact, 301)
	m2, s2 := sample(KernelAuto(0), 402)
	se := math.Sqrt(s1*s1/trials + s2*s2/trials)
	if math.Abs(m1-m2) > 4*se {
		t.Fatalf("kernel means differ: exact=%.0f auto=%.0f (se %.0f)", m1, m2, se)
	}
}

func TestCategoricalMatchesChainedLaw(t *testing.T) {
	// Both window samplers must draw from the identical frozen multinomial
	// law. Pool per-category adopt/undecide totals over many windows from a
	// frozen mid-run configuration and compare each sampler's totals against
	// the law's expectations with a chi-square gate.
	cfg := mustConfig(t, []int64{4000, 3000, 2000, 500, 500}, 2000)
	const m, windows = 64, 3000
	sample := func(categorical bool, seed uint64) (adoptTot, undecideTot []int64) {
		s := newSim(t, cfg, seed, WithKernel(KernelAuto(0)))
		w := s.productiveWeight()
		d := s.n - s.u
		k := s.tree.Len()
		s.ensureBatchScratch(k)
		adoptTot = make([]int64, k)
		undecideTot = make([]int64, k)
		vals := s.tree.View()
		pAdopt := float64(s.u*d) / w.Float64()
		for i := 0; i < windows; i++ {
			if categorical {
				s.sampleWindowCategorical(vals, s.windowFloors(), w, m, d)
			} else {
				s.sampleWindowChained(vals, s.windowFloors(), m, d, pAdopt)
			}
			for j := 0; j < k; j++ {
				adoptTot[j] += s.batchCounts[j]
				undecideTot[j] += s.batchCounts[k+j]
			}
		}
		return adoptTot, undecideTot
	}
	check := func(name string, adoptTot, undecideTot []int64) {
		s := newSim(t, cfg, 1)
		w := s.productiveWeight()
		d := s.n - s.u
		total := float64(m) * windows
		var chi2 float64
		cells := 0
		for j := 0; j < s.K(); j++ {
			x := s.Support(j)
			for _, c := range []struct {
				obs    int64
				weight int64
			}{
				{adoptTot[j], s.Undecided() * x},
				{undecideTot[j], x * (d - x)},
			} {
				exp := total * float64(c.weight) / w.Float64()
				if exp < 5 {
					continue
				}
				diff := float64(c.obs) - exp
				chi2 += diff * diff / exp
				cells++
			}
		}
		// Pooled totals are multinomial over the 2k categories; the pooled
		// chi-square is approximately chi-square with cells−1 dof. Gate at
		// mean + 5·std.
		dof := float64(cells - 1)
		if limit := dof + 5*math.Sqrt(2*dof); chi2 > limit {
			t.Errorf("%s sampler chi-square %.1f exceeds %.1f (dof %.0f)", name, chi2, limit, dof)
		}
	}
	a1, u1 := sample(true, 7)
	a2, u2 := sample(false, 8)
	check("categorical", a1, u1)
	check("chained", a2, u2)
}

func TestAutoWindowLoopAllocFree(t *testing.T) {
	// Every row of the run loop — exact skip steps, single interactions,
	// and the windowed kernels' scratch, samplers, span draws and Fenwick
	// apply — must run allocation-free in steady state, or fleet throughput
	// silently decays with GC pressure.
	classic := mustConfig(t, []int64{40000, 30000, 20000, 10000}, 0)
	stubborn := mustConfig(t, []int64{40000, 30000, 20000, 10000}, 0)
	stubborn.Stubborn = []int64{100, 0, 0, 0}
	for _, tc := range []struct {
		name string
		cfg  *conf.Config
		opts []Option
	}{
		{"exact", classic, []Option{WithKernel(KernelExact)}},
		{"exact-no-skip", classic, []Option{WithKernel(KernelExact), WithSkipping(false)}},
		{"batched", classic, []Option{WithKernel(KernelBatched(0))}},
		{"auto", classic, []Option{WithKernel(KernelAuto(0))}},
		{"auto-stubborn", stubborn, []Option{WithKernel(KernelAuto(0)), WithDynamics(StubbornAgents)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(5)
			s := newSim(t, tc.cfg, 5, tc.opts...)
			s.Run(u128.From64(200_000)) // warm up scratch
			avg := testing.AllocsPerRun(10, func() {
				src.Reseed(9)
				if err := s.Reset(tc.cfg, src); err != nil {
					t.Fatal(err)
				}
				s.Run(u128.From64(200_000))
			})
			if avg != 0 {
				t.Errorf("%.1f allocs per reset+run, want 0", avg)
			}
		})
	}
}

func TestResetShrinksAutoScratch(t *testing.T) {
	// The auto kernel adds cumulative-weight and guide scratch; Reset to
	// fewer opinions must reslice it with the rest, or stale categories
	// would leak events. Mirrors TestResetShrinksBatchScratch.
	large := mustConfig(t, []int64{10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000}, 0)
	small := mustConfig(t, []int64{25000, 25000, 25000, 25000}, 0)
	s := newSim(t, large, 3, WithKernel(KernelAuto(0)))
	s.Run(NoBudget)
	if err := s.Reset(small, rng.New(4)); err != nil {
		t.Fatal(err)
	}
	n := small.N()
	conserve := Observer(func(s *Simulator, _ Event) {
		var total int64 = s.Undecided()
		for i := 0; i < s.K(); i++ {
			total += s.Support(i)
		}
		if total != n {
			t.Fatalf("population not conserved: %d agents, want %d", total, n)
		}
	})
	got := s.RunWatched(NoBudget, conserve)
	fresh := newSim(t, small, 4, WithKernel(KernelAuto(0)))
	if want := fresh.Run(NoBudget); got != want {
		t.Fatalf("reset-shrunk run %+v != fresh %+v", got, want)
	}
}

func TestAutoBudgetTruncation(t *testing.T) {
	// Budget semantics must match the other kernels: the clock never
	// overruns the budget, and a truncated run reports OutcomeBudget.
	c, err := conf.Uniform(1<<14, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100_000
	s, err := New(c, rng.New(9), WithKernel(KernelAuto(0)))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(u128.From64(budget))
	if res.Outcome != OutcomeBudget {
		t.Fatalf("outcome %v, want budget-exhausted", res.Outcome)
	}
	if u128.From64(budget).Less(res.Interactions) {
		t.Fatalf("clock %v overran budget %d", res.Interactions, budget)
	}
}

// skewedConfig returns a k-opinion configuration of n agents with a quarter
// undecided and the decided agents split in proportion 1:2:…:k, so
// adjacent categories carry distinct, uneven weights.
func skewedConfig(t testing.TB, n int64, k int) *conf.Config {
	t.Helper()
	u := n / 4
	decided := n - u
	parts := int64(k) * int64(k+1) / 2
	support := make([]int64, k)
	var used int64
	for j := range support {
		support[j] = decided / parts * int64(j+1)
		used += support[j]
	}
	support[k-1] += decided - used
	c, err := conf.FromSupport(support, u)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// dealtConfig returns a k-opinion configuration of n agents with a quarter
// undecided and the decided agents dealt one at a time over the opinions,
// so that a population under 4k agents still spreads its weight over many
// categories (skewedConfig would put it all on the last opinion).
func dealtConfig(t testing.TB, n int64, k int) *conf.Config {
	t.Helper()
	u := n / 4
	support := make([]int64, k)
	for a := int64(0); a < n-u; a++ {
		support[a%int64(k)]++
	}
	c, err := conf.FromSupport(support, u)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// withFloors returns a copy of cfg with stubborn floors on every other
// opinion (a third of its support, at least 1 where the support allows it)
// and zero on the rest, so the undecide weights (xⱼ−bⱼ)(D−xⱼ) differ from
// the classic ones on some categories and match them on others.
func withFloors(cfg *conf.Config) *conf.Config {
	c := *cfg
	c.Stubborn = make([]int64, len(cfg.Support))
	for j, x := range cfg.Support {
		if j%2 == 0 {
			c.Stubborn[j] = min(max(x/3, 1), x)
		}
	}
	return &c
}

// windowVariants are the batchable window-law shapes the categorical tests
// cover: classic (no floors) and stubborn with nonzero floors.
var windowVariants = []struct {
	name   string
	dyn    Dynamics
	config func(*conf.Config) *conf.Config
}{
	{"classic", Classic, func(c *conf.Config) *conf.Config { return c }},
	{"stubborn", StubbornAgents, withFloors},
}

func TestCategoricalSelectsFirstCumAboveDraw(t *testing.T) {
	// How the sampler finds a draw's category — bisection, or a guide entry
	// and a short scan — must never change which category it selects.
	// Replay each seed through sampleWindowCategorical and through a plain
	// linear scan over independently built cumulative weights on a second
	// source with the same seed, and require identical per-category counts.
	// The window sizes cover guides below, at and just above the 8-bucket
	// minimum and at the table's cap, and the 64-bit sampler's switch from
	// bisection to the guide at m = 2k. They run in sequence on one
	// simulator, at a state and then at its mirror image, so an entry a
	// window fails to rebuild is read stale from an earlier window. The
	// populations cover draw spaces W below 2⁶⁴ (the 64-bit sampler:
	// n = 12, where at k >= 32 W is below the guide's bucket count;
	// n = 10³, the small-n fleet shape; n = 10⁴, the stubborn and
	// sharded-fleet shape) and above it (n near MaxN, the 128-bit one); the
	// variants cover zero and stubborn floors.
	for _, v := range windowVariants {
		for _, pop := range []struct {
			n      int64
			config func(testing.TB, int64, int) *conf.Config
		}{{12, dealtConfig}, {1000, skewedConfig}, {10_000, skewedConfig}, {conf.MaxN - 7, skewedConfig}} {
			n := pop.n
			for _, k := range []int{1, 2, 32, 33} {
				cfg := v.config(pop.config(t, n, k))
				seed := uint64(n) ^ uint64(k)<<32
				s := newSim(t, cfg, seed, WithKernel(KernelAuto(0)), WithDynamics(v.dyn))
				ref := rng.New(seed)
				for _, state := range []*conf.Config{cfg, mirrored(cfg)} {
					if err := s.Reset(state, s.src); err != nil {
						t.Fatal(err)
					}
					w := s.productiveWeight()
					d := s.n - s.u
					s.ensureBatchScratch(k)
					vals := s.tree.View()
					floors := make([]int64, k)
					copy(floors, state.Stubborn)
					cum := make([]u128.U128, 2*k)
					var c u128.U128
					for j, x := range vals {
						c = c.Add(u128.Mul64(uint64(s.u), uint64(x)))
						cum[j] = c
					}
					for j, x := range vals {
						c = c.Add(u128.Mul64(uint64(x-floors[j]), uint64(d-x)))
						cum[k+j] = c
					}
					if c != w {
						t.Fatalf("%s n=%d k=%d: cumulative total %v != W %v", v.name, n, k, c, w)
					}
					if (n < 1e6) != (w.Hi == 0) {
						t.Fatalf("%s n=%d k=%d: W = %v on the wrong side of 2⁶⁴", v.name, n, k, w)
					}
					for _, m := range []int64{1, 8, 9, 12, int64(2*k - 1), int64(2 * k), int64(2*k + 1), 200, int64(16*k - 1)} {
						s.sampleWindowCategorical(vals, s.windowFloors(), w, m, d)
						want := make([]int64, 2*k)
						for e := int64(0); e < m; e++ {
							r := ref.Uint128n(w)
							idx := 0
							for cum[idx].Leq(r) {
								idx++
							}
							want[idx]++
						}
						for j, got := range s.batchCounts {
							if got != want[j] {
								t.Fatalf("%s n=%d k=%d m=%d: category %d drew %d, linear scan %d", v.name, n, k, m, j, got, want[j])
							}
						}
					}
				}
			}
		}
	}
}

// mirrored returns a copy of cfg with its opinions in reverse order.
func mirrored(cfg *conf.Config) *conf.Config {
	c := *cfg
	c.Support = slices.Clone(cfg.Support)
	slices.Reverse(c.Support)
	if cfg.Stubborn != nil {
		c.Stubborn = slices.Clone(cfg.Stubborn)
		slices.Reverse(c.Stubborn)
	}
	return &c
}

func TestCategoricalWidthsDrawIdenticalWindows(t *testing.T) {
	// Below narrowN the kernel draws categorical windows in 64-bit words;
	// the 128-bit sampler must draw the identical window from the same
	// seed, or trajectories would change with the width. Force the 128-bit
	// path on states up to the width boundary, classic and stubborn.
	for _, v := range windowVariants {
		for _, n := range []int64{40, 1000, 1 << 20, narrowN - 1} {
			for _, k := range []int{1, 2, 32, 33} {
				cfg := v.config(skewedConfig(t, n, k))
				for _, m := range []int64{1, 8, 12, 200, int64(16*k - 1)} {
					seed := uint64(n) ^ uint64(k)<<32 ^ uint64(m)<<48
					categoricalWidthsAgree(t, cfg, v.dyn, seed, m)
				}
			}
		}
	}
}

func BenchmarkCategoricalWindow(b *testing.B) {
	// One categorical window at k = 32: the cumulative build plus m draws,
	// the per-window cost the auto kernel pays between leap-condition
	// checks. n = 10³ is the small-n fleet shape, whose windows of a dozen
	// events bisect; n = 10⁴ is the stubborn and sharded-fleet shape, whose
	// windows of 64–127 events draw through the guide. The m = 63 and
	// m = 64 rows sit either side of the switch at m = 2k. The n = MaxN − 7
	// rows time the 128-bit sampler the fleets no longer reach.
	const k = 32
	for _, tc := range []struct {
		n  int64
		ms []int64
	}{
		{1000, []int64{12, 2*k - 1, 2 * k, 200, 500}},
		{10_000, []int64{2*k - 1, 2 * k, 128, 256}},
		{conf.MaxN - 7, []int64{12, 200, 500}},
	} {
		for _, m := range tc.ms {
			b.Run(benchName("n", int(tc.n))+"/"+benchName("m", int(m)), func(b *testing.B) {
				s, err := New(skewedConfig(b, tc.n, k), rng.New(1), WithKernel(KernelAuto(0)))
				if err != nil {
					b.Fatal(err)
				}
				w := s.productiveWeight()
				d := s.n - s.u
				s.ensureBatchScratch(k)
				vals := s.tree.View()
				floors := s.windowFloors()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.sampleWindowCategorical(vals, floors, w, m, d)
				}
			})
		}
	}
}

// BenchmarkAutoConsensusSmallN runs one auto-kernel trial to absorption
// per op on one simulator that each trial Resets and reseeds, as the trial
// engines run fleets, at k = 32 from a uniform start: n = 10³ to consensus
// (the small-n fleet shape), n = 10⁴ to consensus (the sharded-fleet
// shape) and n = 10⁴ with 100 stubborn agents on opinion 0 to dominance
// (the stubborn shape). Exact steps, window draws and the per-window
// support update do the work; windows run back to back and rarely hand
// over to an exact step, so the dual's prefix trees are rebuilt far less
// often than set.
func BenchmarkAutoConsensusSmallN(b *testing.B) {
	const k = 32
	stubborn := make([]int64, k)
	stubborn[0] = 100
	for _, tc := range []struct {
		name     string
		n        int64
		stubborn []int64
		want     Outcome
	}{
		{"n=1000", 1000, nil, OutcomeConsensus},
		{"n=10000", 10_000, nil, OutcomeConsensus},
		{"n=10000/stubborn", 10_000, stubborn, OutcomeDominance},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := conf.Uniform(tc.n, k, 0)
			if err != nil {
				b.Fatal(err)
			}
			opts := []Option{WithKernel(KernelAuto(0))}
			if tc.stubborn != nil {
				c.Stubborn = tc.stubborn
				opts = append(opts, WithDynamics(StubbornAgents))
			}
			src := rng.New(1)
			s, err := New(c, src, opts...)
			if err != nil {
				b.Fatal(err)
			}
			s.Run(NoBudget) // size the window scratch outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reseed(uint64(i))
				if err := s.Reset(c, src); err != nil {
					b.Fatal(err)
				}
				if res := s.Run(NoBudget); res.Outcome != tc.want {
					b.Fatalf("trial %d ended in %v", i, res.Outcome)
				}
			}
		})
	}
}
