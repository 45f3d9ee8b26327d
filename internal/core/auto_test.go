package core

import (
	"math"
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
				s.sampleWindowCategorical(vals, w, m, d)
			} else {
				s.sampleWindowChained(vals, m, d, pAdopt)
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
	// The whole window loop — scratch, samplers, span draws, Fenwick apply —
	// must run allocation-free in steady state for both windowed kernels, or
	// fleet throughput silently decays with GC pressure.
	cfg := mustConfig(t, []int64{40000, 30000, 20000, 10000}, 0)
	for _, kern := range []Kernel{KernelBatched(0), KernelAuto(0)} {
		src := rng.New(5)
		s := newSim(t, cfg, 5, WithKernel(kern))
		s.Run(u128.From64(200_000)) // warm up scratch
		avg := testing.AllocsPerRun(10, func() {
			src.Reseed(9)
			if err := s.Reset(cfg, src); err != nil {
				t.Fatal(err)
			}
			s.Run(u128.From64(200_000))
		})
		if avg != 0 {
			t.Errorf("kernel %v: %.1f allocs per reset+run, want 0", kern, avg)
		}
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

func TestCategoricalSelectsFirstCumAboveDraw(t *testing.T) {
	// The guide table only picks where a draw's scan starts; it must never
	// change which category the draw selects. Replay each seed through
	// sampleWindowCategorical and through a plain linear scan over
	// independently built cumulative weights on a second source with the
	// same seed, and require identical per-category counts. The window
	// sizes cover guides below, at and just above the 8-bucket minimum and
	// at the table's cap; the populations cover draw spaces W below 2⁶⁴
	// (n = 10³) and above it (n near MaxN), i.e. both Uint128n paths.
	for _, n := range []int64{1000, conf.MaxN - 7} {
		for _, k := range []int{1, 2, 32, 33} {
			cfg := skewedConfig(t, n, k)
			for _, m := range []int64{1, 8, 9, 12, 200, int64(16*k - 1)} {
				seed := uint64(n) ^ uint64(k)<<32 ^ uint64(m)<<48
				s := newSim(t, cfg, seed, WithKernel(KernelAuto(0)))
				w := s.productiveWeight()
				d := s.n - s.u
				s.ensureBatchScratch(k)
				vals := s.tree.View()
				s.sampleWindowCategorical(vals, w, m, d)

				cum := make([]u128.U128, 2*k)
				var c u128.U128
				for j, x := range vals {
					c = c.Add(u128.Mul64(uint64(s.u), uint64(x)))
					cum[j] = c
				}
				for j, x := range vals {
					c = c.Add(u128.Mul64(uint64(x), uint64(d-x)))
					cum[k+j] = c
				}
				if c != w {
					t.Fatalf("n=%d k=%d: cumulative total %v != W %v", n, k, c, w)
				}
				if (n < 1e6) != (w.Hi == 0) {
					t.Fatalf("n=%d k=%d: W = %v on the wrong side of 2⁶⁴", n, k, w)
				}
				want := make([]int64, 2*k)
				ref := rng.New(seed)
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
						t.Fatalf("n=%d k=%d m=%d: category %d drew %d, linear scan %d", n, k, m, j, got, want[j])
					}
				}
			}
		}
	}
}

func BenchmarkCategoricalWindow(b *testing.B) {
	// One categorical window at the small-n fleet shape (n = 10³, k = 32):
	// the cumulative and guide build plus m draws, the per-window cost the
	// auto kernel pays between leap-condition checks.
	const n, k = 1000, 32
	for _, m := range []int64{12, 200, 500} {
		b.Run(benchName("m", int(m)), func(b *testing.B) {
			s, err := New(skewedConfig(b, n, k), rng.New(1), WithKernel(KernelAuto(0)))
			if err != nil {
				b.Fatal(err)
			}
			w := s.productiveWeight()
			d := s.n - s.u
			s.ensureBatchScratch(k)
			vals := s.tree.View()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.sampleWindowCategorical(vals, w, m, d)
			}
		})
	}
}
