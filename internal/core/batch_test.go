package core

import (
	"math"
	"testing"

	"repro/internal/conf"
	"repro/internal/rng"
	"repro/internal/u128"
)

func TestKernelString(t *testing.T) {
	if got := KernelExact.String(); got != "exact" {
		t.Fatalf("KernelExact.String() = %q", got)
	}
	if got := KernelBatched(0.1).String(); got != "batched(0.1)" {
		t.Fatalf("KernelBatched(0.1).String() = %q", got)
	}
	if KernelExact.Batched() {
		t.Fatal("KernelExact reports batched")
	}
	if !KernelBatched(0).Batched() {
		t.Fatal("KernelBatched reports exact")
	}
}

func TestKernelBatchedToleranceClamping(t *testing.T) {
	if got := KernelBatched(0).Tolerance(); got != DefaultTolerance {
		t.Fatalf("tol <= 0 gives %v, want DefaultTolerance", got)
	}
	if got := KernelBatched(-1).Tolerance(); got != DefaultTolerance {
		t.Fatalf("negative tol gives %v, want DefaultTolerance", got)
	}
	if got := KernelBatched(5).Tolerance(); got != maxTolerance {
		t.Fatalf("huge tol gives %v, want clamp at %v", got, maxTolerance)
	}
	if got := KernelExact.Tolerance(); got != 0 {
		t.Fatalf("KernelExact.Tolerance() = %v, want 0", got)
	}
}

func TestBatchedReachesConsensus(t *testing.T) {
	// Large enough that windows exceed minBatchWindow mid-run, so the
	// batched path (not its exact fallback) is actually exercised.
	c, err := conf.WithAdditiveBias(1<<16, 8, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, rng.New(11), WithKernel(KernelBatched(0)))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(NoBudget)
	if res.Outcome != OutcomeConsensus {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.Winner != 0 {
		t.Logf("winner %d (bias start: usually 0)", res.Winner)
	}
	if res.Interactions.IsZero() {
		t.Fatalf("interactions = %v", res.Interactions)
	}
	if !s.IsConsensus() {
		t.Fatal("simulator not at consensus after consensus outcome")
	}
}

func TestBatchedInvariantsEveryEvent(t *testing.T) {
	// After every applied event (batched or exact fallback), the aggregate
	// invariants must hold: Σx + u = n, r₂ = Σx², supports non-negative,
	// and the interaction clock must advance by at least Count.
	c, err := conf.Uniform(1<<15, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, rng.New(3), WithKernel(KernelBatched(0.1)))
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
			if ev.Count < minBatchWindow {
				t.Fatalf("batch of %d events below minBatchWindow", ev.Count)
			}
			if ev.Opinion != -1 {
				t.Fatalf("batch event has opinion %d", ev.Opinion)
			}
		case EventAdopt, EventUndecide:
			singles++
			if ev.Count != 1 {
				t.Fatalf("single event has Count %d", ev.Count)
			}
		default:
			t.Fatalf("unexpected event kind %v", ev.Kind)
		}
		if ev.Interactions.Less(prevClock.Add(u128.FromU64(uint64(ev.Count)))) {
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
		if sim.SumSquares() != u128.From64(sq) {
			t.Fatalf("r₂ drift: tracked %v, actual %d", sim.SumSquares(), sq)
		}
	})
	if res.Outcome != OutcomeConsensus {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if batches == 0 {
		t.Fatal("batched kernel never applied a batch window")
	}
	if singles == 0 {
		t.Fatal("batched kernel never fell back to exact steps (endgame should)")
	}
}

func TestBatchedBudget(t *testing.T) {
	c, err := conf.Uniform(1<<14, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 100, 50000} {
		s, err := New(c, rng.New(9), WithKernel(KernelBatched(0)))
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(u128.From64(budget))
		if res.Outcome != OutcomeBudget {
			t.Fatalf("budget %d: outcome %v", budget, res.Outcome)
		}
		if u128.From64(budget).Less(res.Interactions) {
			t.Fatalf("budget %d: clock %v overran", budget, res.Interactions)
		}
	}
}

func TestBatchedAllUndecidedStart(t *testing.T) {
	c := &conf.Config{Support: []int64{0, 0, 0}, Undecided: 1 << 12}
	s, err := New(c, rng.New(1), WithKernel(KernelBatched(0)))
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(NoBudget)
	if res.Outcome != OutcomeAllUndecided {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if !res.Interactions.IsZero() {
		t.Fatalf("clock advanced %v in an absorbing start", res.Interactions)
	}
}

func TestBatchedDeterministicGivenSeed(t *testing.T) {
	run := func() Result {
		c, err := conf.Uniform(1<<15, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(c, rng.New(77), WithKernel(KernelBatched(0)))
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

func TestBatchedRunUntil(t *testing.T) {
	c, err := conf.Uniform(1<<15, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, rng.New(5), WithKernel(KernelBatched(0)))
	if err != nil {
		t.Fatal(err)
	}
	n := s.N()
	res := s.RunUntil(NoBudget, func(sim *Simulator) bool {
		_, xmax := sim.Max()
		return 3*xmax >= 2*n
	})
	if res.Outcome != OutcomeBudget {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if _, xmax := s.Max(); 3*xmax < 2*n {
		t.Fatalf("stop condition not satisfied: xmax=%d n=%d", xmax, n)
	}
}

func TestBatchedAndExactAgreeStatistically(t *testing.T) {
	// The batched kernel is approximate within its drift tolerance; the
	// mean consensus time over independent trials must match the exact
	// kernel's within a few standard errors. The full distributional
	// comparison (winner frequencies, phase-time quantiles, KS) is the
	// K1-kernel-agreement experiment.
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
	m2, s2 := sample(KernelBatched(0), 402)
	se := math.Sqrt(s1*s1/trials + s2*s2/trials)
	if math.Abs(m1-m2) > 4*se {
		t.Fatalf("kernel means differ: exact=%.0f batched=%.0f (se %.0f)", m1, m2, se)
	}
}

// forceClock pins the interaction clock near a boundary; the regression
// tests below stand in for a forced-saturation randomness source by placing
// the clock where any realistic jump or span crosses the boundary.
func forceClock(s *Simulator, steps u128.U128) { s.steps = steps }

func TestBatchedBudgetComparisonDoesNotWrap(t *testing.T) {
	// Regression: with the clock a few ticks under a huge budget, the old
	// int64 check `steps+span > budget` wrapped negative whenever the
	// sampled span was large, skipped the budget clamp, and drove the
	// clock negative. The saturating u128 comparison must clamp to the
	// budget instead — here with the budget just under the 128-bit
	// ceiling, where any wrap would be immediate. The configuration keeps
	// the productive probability ~6·10⁻³ so every jump and window span is
	// orders of magnitude larger than the remaining budget.
	cfg := mustConfig(t, []int64{995_000, 1000}, 4000)
	for _, kern := range []Kernel{KernelExact, KernelBatched(0)} {
		s := newSim(t, cfg, 11, WithKernel(kern))
		budget := u128.Max.Sub(u128.From64(7))
		forceClock(s, budget.Sub(u128.From64(3)))
		res := s.Run(budget)
		if res.Outcome == OutcomeBudget && res.Interactions != budget {
			t.Fatalf("kernel %v: budget stop at %v, want exactly %v", kern, res.Interactions, budget)
		}
		if budget.Less(res.Interactions) {
			t.Fatalf("kernel %v: clock %v overran budget %v", kern, res.Interactions, budget)
		}
	}
}

func TestUnbudgetedClockSaturatesAtMax(t *testing.T) {
	// Regression for the no-budget path: without a budget there is no
	// clamp to hide behind, so a clock near the 128-bit ceiling must
	// saturate at u128.Max — never wrap — while the run still finishes by
	// absorption. (The int64 predecessor of this test saturated at
	// MaxInt64; the ceiling moved with the clock width.)
	cfg := mustConfig(t, []int64{900, 100}, 24)
	for _, kern := range []Kernel{KernelExact, KernelBatched(0)} {
		s := newSim(t, cfg, 5, WithKernel(kern))
		forceClock(s, u128.Max.Sub(u128.From64(2)))
		res := s.Run(NoBudget)
		if res.Outcome != OutcomeConsensus {
			t.Fatalf("kernel %v: outcome %v, want consensus", kern, res.Outcome)
		}
		if res.Interactions != u128.Max {
			t.Fatalf("kernel %v: clock %v, want saturation at u128.Max", kern, res.Interactions)
		}
	}
}

func TestBatchedClockMonotoneAcrossWindows(t *testing.T) {
	cfg := mustConfig(t, []int64{30000, 20000, 10000}, 5000)
	s := newSim(t, cfg, 17, WithKernel(KernelBatched(0)))
	var last u128.U128
	s.RunWatched(NoBudget, Observer(func(_ *Simulator, ev Event) {
		if ev.Interactions.Less(last) {
			t.Fatalf("clock moved backwards: %v after %v", ev.Interactions, last)
		}
		last = ev.Interactions
	}))
}

func TestResetShrinksBatchScratch(t *testing.T) {
	// Regression: Reset to fewer opinions while the batch scratch capacity
	// still sufficed left the weight slices at the old length, so
	// Multinomial spread window events over stale phantom opinions and
	// agents silently vanished. Population conservation must hold after
	// every window, and the run must match a fresh simulator exactly.
	large := mustConfig(t, []int64{10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000, 10000}, 0)
	small := mustConfig(t, []int64{25000, 25000, 25000, 25000}, 0)
	s := newSim(t, large, 3, WithKernel(KernelBatched(0)))
	s.Run(NoBudget) // allocate and dirty the k=10 scratch
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
	fresh := newSim(t, small, 4, WithKernel(KernelBatched(0)))
	if want := fresh.Run(NoBudget); got != want {
		t.Fatalf("reset-shrunk run %+v != fresh %+v", got, want)
	}
}
