package core

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/conf"
	"repro/internal/potential"
	"repro/internal/rng"
	"repro/internal/u128"
)

func mustConfig(t *testing.T, support []int64, u int64) *conf.Config {
	t.Helper()
	c, err := conf.FromSupport(support, u)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newSim(t *testing.T, c *conf.Config, seed uint64, opts ...Option) *Simulator {
	t.Helper()
	s, err := New(c, rng.New(seed), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(&conf.Config{}, rng.New(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
	c := mustConfig(t, []int64{1, 1}, 0)
	if _, err := New(c, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestNewCopiesConfig(t *testing.T) {
	c := mustConfig(t, []int64{5, 5}, 0)
	s := newSim(t, c, 1)
	c.Support[0] = 0
	if s.Support(0) != 5 {
		t.Fatal("simulator must own a copy of the configuration")
	}
}

func TestAccessors(t *testing.T) {
	c := mustConfig(t, []int64{6, 3}, 1)
	s := newSim(t, c, 1)
	if s.N() != 10 || s.K() != 2 || s.Undecided() != 1 || s.Decided() != 9 {
		t.Fatalf("shape accessors wrong: n=%d k=%d u=%d", s.N(), s.K(), s.Undecided())
	}
	if s.SumSquares() != u128.From64(45) {
		t.Fatalf("SumSquares = %v, want 45", s.SumSquares())
	}
	if op, sup := s.Max(); op != 0 || sup != 6 {
		t.Fatalf("Max = (%d,%d)", op, sup)
	}
	got := s.Supports(nil)
	if len(got) != 2 || got[0] != 6 || got[1] != 3 {
		t.Fatalf("Supports = %v", got)
	}
	got[0] = 99
	if s.Support(0) != 6 {
		t.Fatal("Supports must copy")
	}
	snap := s.Config()
	if snap.N() != 10 || snap.Undecided != 1 {
		t.Fatalf("Config snapshot = %v", snap)
	}
}

func TestConsensusDetection(t *testing.T) {
	s := newSim(t, mustConfig(t, []int64{10, 0, 0}, 0), 1)
	if !s.IsConsensus() || s.ProductiveProbability() != 0 {
		t.Fatal("consensus not detected")
	}
	s2 := newSim(t, mustConfig(t, []int64{9, 1}, 0), 1)
	if s2.IsConsensus() || s2.ProductiveProbability() == 0 {
		t.Fatal("false consensus")
	}
	s3 := newSim(t, mustConfig(t, []int64{9, 0}, 1), 1)
	if s3.IsConsensus() || s3.ProductiveProbability() == 0 {
		t.Fatal("9+1 undecided misdetected as absorbed")
	}
}

func TestAllUndecidedAbsorbing(t *testing.T) {
	s := newSim(t, mustConfig(t, []int64{0, 0}, 10), 1)
	if s.ProductiveProbability() != 0 || s.IsConsensus() {
		t.Fatal("all-undecided must be absorbed, not consensus")
	}
	ev := s.Step()
	if ev.Kind != EventAbsorbed {
		t.Fatalf("Step on absorbed config = %v", ev.Kind)
	}
	if !s.Interactions().IsZero() {
		t.Fatal("clock advanced on absorbed configuration")
	}
	res := s.Run(u128.From64(1000))
	if res.Outcome != OutcomeAllUndecided {
		t.Fatalf("Run outcome = %v, want all-undecided", res.Outcome)
	}
}

func TestStepConservation(t *testing.T) {
	// Property: after any number of steps, Σx + u == n, all counts >= 0,
	// r₂ is consistent, and the clock is non-decreasing.
	check := func(seed uint16, kRaw, uRaw uint8) bool {
		k := int(kRaw%6) + 2
		n := int64(200)
		u := int64(uRaw) % 100
		c, err := conf.Uniform(n, k, u)
		if err != nil {
			return true
		}
		s, err := New(c, rng.New(uint64(seed)), WithSkipping(seed%2 == 0))
		if err != nil {
			return false
		}
		var prevClock u128.U128
		for i := 0; i < 300; i++ {
			var ev Event
			if s.skip {
				ev = s.StepProductive()
			} else {
				ev = s.Step()
			}
			if ev.Kind == EventAbsorbed {
				break
			}
			var sum, r2 int64
			for j := 0; j < s.K(); j++ {
				x := s.Support(j)
				if x < 0 {
					return false
				}
				sum += x
				r2 += x * x
			}
			if sum+s.Undecided() != n || s.Undecided() < 0 {
				return false
			}
			if s.SumSquares() != u128.From64(r2) {
				return false
			}
			if s.Interactions().Less(prevClock) {
				return false
			}
			prevClock = s.Interactions()
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleStepLawMatchesObservation6(t *testing.T) {
	// Empirical one-step frequencies from the non-skipping kernel must
	// match the exact Observation 6/8 probabilities.
	c := mustConfig(t, []int64{6, 3, 1}, 10) // n = 20
	want := potential.UndecidedProbs(c)
	src := rng.New(42)
	const trials = 400000
	var down, up, none int
	adoptCounts := make([]int, c.K())
	undecideCounts := make([]int, c.K())
	for i := 0; i < trials; i++ {
		s, err := New(c, src, WithSkipping(false))
		if err != nil {
			t.Fatal(err)
		}
		switch ev := s.Step(); ev.Kind {
		case EventAdopt:
			down++
			adoptCounts[ev.Opinion]++
		case EventUndecide:
			up++
			undecideCounts[ev.Opinion]++
		case EventNone:
			none++
		default:
			t.Fatalf("unexpected event %v", ev.Kind)
		}
	}
	tol := 4.0 / math.Sqrt(trials) // ~4 sigma on a Bernoulli proportion
	if got := float64(down) / trials; math.Abs(got-want.Down) > tol {
		t.Errorf("adopt rate = %.5f, want %.5f", got, want.Down)
	}
	if got := float64(up) / trials; math.Abs(got-want.Up) > tol {
		t.Errorf("undecide rate = %.5f, want %.5f", got, want.Up)
	}
	if got := float64(none) / trials; math.Abs(got-(1-want.Productive())) > tol {
		t.Errorf("noop rate = %.5f, want %.5f", got, 1-want.Productive())
	}
	// Per-opinion laws (Observation 8).
	for i := 0; i < c.K(); i++ {
		adoptP, undecideP := potential.OpinionProbs(c, i)
		if got := float64(adoptCounts[i]) / trials; math.Abs(got-adoptP) > tol {
			t.Errorf("opinion %d adopt rate = %.5f, want %.5f", i, got, adoptP)
		}
		if got := float64(undecideCounts[i]) / trials; math.Abs(got-undecideP) > tol {
			t.Errorf("opinion %d undecide rate = %.5f, want %.5f", i, got, undecideP)
		}
	}
}

func TestSkippingConditionalLawMatches(t *testing.T) {
	// The skipping kernel's productive event must follow the conditional
	// law: Pr[adopt j | productive] = u·xⱼ/W, etc.
	c := mustConfig(t, []int64{6, 3, 1}, 10)
	src := rng.New(43)
	n := c.N()
	d := c.Decided()
	w := c.Undecided*d + (d*d - int64(c.SumSquares().Lo))
	const trials = 300000
	adoptCounts := make([]int, c.K())
	undecideCounts := make([]int, c.K())
	var jumpSum float64
	for i := 0; i < trials; i++ {
		s, err := New(c, src)
		if err != nil {
			t.Fatal(err)
		}
		ev := s.StepProductive()
		jumpSum += ev.Interactions.Float64()
		switch ev.Kind {
		case EventAdopt:
			adoptCounts[ev.Opinion]++
		case EventUndecide:
			undecideCounts[ev.Opinion]++
		default:
			t.Fatalf("unexpected event %v", ev.Kind)
		}
	}
	tol := 4.0 / math.Sqrt(trials)
	for i, xi := range c.Support {
		wantAdopt := float64(c.Undecided*xi) / float64(w)
		wantUndecide := float64(xi*(d-xi)) / float64(w)
		if got := float64(adoptCounts[i]) / trials; math.Abs(got-wantAdopt) > tol {
			t.Errorf("opinion %d conditional adopt = %.5f, want %.5f", i, got, wantAdopt)
		}
		if got := float64(undecideCounts[i]) / trials; math.Abs(got-wantUndecide) > tol {
			t.Errorf("opinion %d conditional undecide = %.5f, want %.5f", i, got, wantUndecide)
		}
	}
	// Mean jump length must be 1/p.
	p := float64(w) / float64(n*n)
	wantJump := 1 / p
	if got := jumpSum / trials; math.Abs(got-wantJump)/wantJump > 0.02 {
		t.Errorf("mean jump = %.3f, want %.3f", got, wantJump)
	}
}

func TestRunReachesConsensusTwoOpinions(t *testing.T) {
	// k=2 with a strong majority: the initial majority should win
	// essentially always (approximate majority, Angluin et al.).
	const trials = 50
	winners0 := 0
	for i := 0; i < trials; i++ {
		c := mustConfig(t, []int64{700, 300}, 0)
		s, err := New(c, rng.New(rng.Derive(7, uint64(i))))
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(NoBudget)
		if res.Outcome != OutcomeConsensus {
			t.Fatalf("trial %d outcome %v", i, res.Outcome)
		}
		if res.Winner == 0 {
			winners0++
		}
		if res.Interactions.IsZero() {
			t.Fatal("no interactions recorded")
		}
	}
	if winners0 < trials-1 {
		t.Fatalf("initial majority won only %d/%d trials", winners0, trials)
	}
}

func TestRunReachesConsensusManyOpinions(t *testing.T) {
	c, err := conf.Uniform(1000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, c, 11)
	res := s.Run(NoBudget)
	if res.Outcome != OutcomeConsensus {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.Winner < 0 || res.Winner >= 8 {
		t.Fatalf("winner %d out of range", res.Winner)
	}
	if s.Support(res.Winner) != 1000 {
		t.Fatal("winner does not hold the whole population")
	}
	if res.ParallelTime != res.Interactions.Float64()/1000 {
		t.Fatal("parallel time inconsistent")
	}
}

func TestRunBudget(t *testing.T) {
	for _, skip := range []bool{true, false} {
		c, err := conf.Uniform(10000, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := newSim(t, c, 3, WithSkipping(skip))
		res := s.Run(u128.From64(500))
		if res.Outcome != OutcomeBudget {
			t.Fatalf("skip=%v: outcome %v, want budget", skip, res.Outcome)
		}
		if res.Interactions != u128.From64(500) {
			t.Fatalf("skip=%v: clock = %v, want exactly 500", skip, res.Interactions)
		}
	}
}

func TestRunUntil(t *testing.T) {
	c, err := conf.Uniform(2000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, c, 5)
	// Stop when the undecided count first reaches (n - xmax)/2 (end of
	// Phase 1).
	res := s.RunUntil(NoBudget, func(sim *Simulator) bool {
		_, xmax := sim.Max()
		return sim.Undecided() >= (sim.N()-xmax)/2
	})
	if res.Outcome != OutcomeBudget {
		t.Fatalf("outcome %v", res.Outcome)
	}
	_, xmax := s.Max()
	if s.Undecided() < (s.N()-xmax)/2 {
		t.Fatal("stop condition not satisfied at return")
	}
}

func TestObserverSeesEveryProductiveEvent(t *testing.T) {
	c, err := conf.Uniform(500, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, c, 9)
	var events int
	var lastClock u128.U128
	res := s.RunObserved(NoBudget, func(sim *Simulator, ev Event) {
		events++
		if ev.Interactions.Leq(lastClock) {
			t.Fatalf("event clock not strictly increasing: %v then %v", lastClock, ev.Interactions)
		}
		lastClock = ev.Interactions
		if ev.Kind != EventAdopt && ev.Kind != EventUndecide {
			t.Fatalf("unexpected event kind %v with skipping", ev.Kind)
		}
	})
	if res.Outcome != OutcomeConsensus {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if events == 0 {
		t.Fatal("observer saw no events")
	}
	if lastClock != res.Interactions {
		t.Fatalf("last event clock %v != final clock %v", lastClock, res.Interactions)
	}
}

func TestSkipAndExactKernelsAgreeStatistically(t *testing.T) {
	// Two-sample check: consensus times from the two kernels must have
	// compatible means (they sample the same process law).
	if testing.Short() {
		t.Skip("statistical comparison skipped in -short mode")
	}
	const trials = 60
	n := int64(400)
	sample := func(skip bool, seedBase uint64) (mean, sd float64) {
		var xs []float64
		for i := 0; i < trials; i++ {
			c, err := conf.Uniform(n, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(c, rng.New(rng.Derive(seedBase, uint64(i))), WithSkipping(skip))
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
	m1, s1 := sample(true, 101)
	m2, s2 := sample(false, 202)
	// Welch-style tolerance: 4 standard errors of the difference.
	se := math.Sqrt(s1*s1/trials + s2*s2/trials)
	if math.Abs(m1-m2) > 4*se {
		t.Fatalf("kernel means differ: skip=%.0f exact=%.0f (se %.0f)", m1, m2, se)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() Result {
		c, err := conf.Uniform(500, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(c, rng.New(77))
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

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		EventAdopt:    "adopt",
		EventUndecide: "undecide",
		EventNone:     "none",
		EventAbsorbed: "absorbed",
		EventKind(99): "EventKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeConsensus:    "consensus",
		OutcomeAllUndecided: "all-undecided",
		OutcomeBudget:       "budget-exhausted",
		Outcome(42):         "Outcome(42)",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(o), got, want)
		}
	}
}

func TestProductiveProbabilityMatchesPotential(t *testing.T) {
	c := mustConfig(t, []int64{40, 30, 20}, 10)
	s := newSim(t, c, 1)
	want := potential.UndecidedProbs(c).Productive()
	if got := s.ProductiveProbability(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ProductiveProbability = %v, want %v", got, want)
	}
}

func BenchmarkStepProductive(b *testing.B) {
	for _, k := range []int{2, 16, 128} {
		b.Run(benchName("k", k), func(b *testing.B) {
			c, err := conf.Uniform(1<<20, k, 0)
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(c, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ev := s.StepProductive(); ev.Kind == EventAbsorbed {
					// Long benchtimes can drive the chain to consensus;
					// restart it outside the timed region.
					b.StopTimer()
					s, err = New(c, rng.New(uint64(i)))
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestNewRejectsOverflowingN(t *testing.T) {
	// One agent past MaxN the n² clock wraps int64; New must refuse rather
	// than corrupt every downstream probability. The config is built as a
	// raw literal so the check is exercised even for callers that bypass
	// the conf generators.
	over := &conf.Config{Support: []int64{MaxN, 1}}
	if _, err := New(over, rng.New(1)); err == nil {
		t.Fatal("New accepted n = MaxN+1; nSq would have wrapped negative")
	}
	s := &Simulator{}
	if err := s.Reset(over, rng.New(1)); err == nil {
		t.Fatal("Reset accepted n = MaxN+1")
	}
}

func TestNewAtMaxNIsUsable(t *testing.T) {
	// At exactly MaxN the clock arithmetic is still safe: the simulator
	// must construct and step without negative probabilities or panics.
	c := mustConfig(t, []int64{MaxN - 3, 2}, 1)
	s := newSim(t, c, 9)
	if s.N() != MaxN {
		t.Fatalf("N = %d, want MaxN", s.N())
	}
	if p := s.ProductiveProbability(); p <= 0 || p > 1 || math.IsNaN(p) {
		t.Fatalf("productive probability %v out of range at n = MaxN", p)
	}
	for i := 0; i < 4; i++ {
		ev := s.StepProductive()
		if ev.Interactions.IsZero() {
			t.Fatalf("clock did not advance on a productive step")
		}
	}
}

func TestResetMatchesFreshSimulator(t *testing.T) {
	cfg := mustConfig(t, []int64{400, 300, 200, 100}, 24)
	for _, kern := range []Kernel{KernelExact, KernelBatched(0)} {
		reused, err := New(cfg, rng.New(1), WithKernel(kern))
		if err != nil {
			t.Fatal(err)
		}
		reused.Run(NoBudget) // dirty every piece of reusable state
		for trial := uint64(0); trial < 5; trial++ {
			fresh, err := New(cfg, rng.New(trial), WithKernel(kern))
			if err != nil {
				t.Fatal(err)
			}
			if err := reused.Reset(cfg, rng.New(trial)); err != nil {
				t.Fatal(err)
			}
			if got := reused.Interactions(); !got.IsZero() {
				t.Fatalf("Reset clock = %v", got)
			}
			a, b := fresh.Run(NoBudget), reused.Run(NoBudget)
			if a != b {
				t.Fatalf("kernel %v trial %d: fresh %+v != reset %+v", kern, trial, a, b)
			}
		}
	}
}

func TestResetChangesOpinionCount(t *testing.T) {
	small := mustConfig(t, []int64{60, 40}, 0)
	large := mustConfig(t, []int64{30, 30, 20, 10, 5, 5}, 0)
	s := newSim(t, small, 3)
	s.Run(NoBudget)
	if err := s.Reset(large, rng.New(4)); err != nil {
		t.Fatal(err)
	}
	if s.K() != 6 || s.N() != 100 {
		t.Fatalf("after Reset: k=%d n=%d", s.K(), s.N())
	}
	fresh := newSim(t, large, 4)
	if a, b := fresh.Run(NoBudget), s.Run(NoBudget); a != b {
		t.Fatalf("fresh %+v != reset-across-k %+v", a, b)
	}
}

func TestResetPreservesOptions(t *testing.T) {
	cfg := mustConfig(t, []int64{500, 500}, 0)
	s := newSim(t, cfg, 1, WithKernel(KernelBatched(0.1)), WithSkipping(false))
	if err := s.Reset(cfg, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	if !s.kernel.Batched() || s.kernel.tol != 0.1 || s.skip {
		t.Fatalf("Reset dropped options: kernel=%v skip=%v", s.kernel, s.skip)
	}
}

func TestSatAdd(t *testing.T) {
	from := u128.From64
	cases := []struct{ a, b, want u128.U128 }{
		{from(0), from(0), from(0)},
		{from(1), from(2), from(3)},
		// The old int64 rim is now an ordinary point: no saturation there.
		{from(math.MaxInt64), from(1), from(math.MaxInt64).Add(from(1))},
		// Lo-word carry into the hi word.
		{u128.U128{Lo: ^uint64(0)}, from(1), u128.U128{Hi: 1, Lo: 0}},
		{u128.U128{Hi: 1, Lo: ^uint64(0)}, from(1), u128.U128{Hi: 2, Lo: 0}},
		// Hi-word saturation at the 128-bit ceiling.
		{u128.Max, from(0), u128.Max},
		{u128.Max, from(1), u128.Max},
		{u128.Max.Sub(from(5)), from(10), u128.Max},
		{u128.Max, u128.Max, u128.Max},
		{u128.U128{Hi: ^uint64(0) - 1, Lo: ^uint64(0)}, u128.U128{Hi: 1}, u128.Max},
	}
	for _, tc := range cases {
		if got := satAdd(tc.a, tc.b); got != tc.want {
			t.Fatalf("satAdd(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	// The budget regime the 128-bit clock exists for: MaxN² = 10²² must be
	// representable and addable headroom-free — far from saturating.
	nSq := u128.Mul64(uint64(MaxN), uint64(MaxN))
	if want := (u128.U128{Hi: 542, Lo: 1864712049423024128}); nSq != want {
		t.Fatalf("MaxN² = %v, want %v", nSq, want)
	}
	if got := satAdd(nSq, nSq); got != nSq.Add(nSq) || got == u128.Max {
		t.Fatalf("satAdd(MaxN², MaxN²) saturated prematurely: %v", got)
	}
}

func TestProductiveProbabilityPrecisionAtMaxN(t *testing.T) {
	// Regression for the float64 precision satellite: nSq = 10²² is far
	// past 2⁵³, so a naive 1/float64-cast-of-nSq path can be off by many
	// ulps. The hoisted invNSq comes from the correctly-rounded
	// u128.Float64, so the productive probability must sit within a few
	// ulps of a 128-bit math/big reference at n = MaxN.
	c := mustConfig(t, []int64{MaxN / 2, MaxN/2 - 7}, 7)
	s := newSim(t, c, 1)
	got := s.ProductiveProbability()

	d := c.Decided()
	w := new(big.Int).Mul(big.NewInt(c.Undecided), big.NewInt(d))
	dd := new(big.Int).Mul(big.NewInt(d), big.NewInt(d))
	for _, x := range c.Support {
		var sq big.Int
		sq.Mul(big.NewInt(x), big.NewInt(x))
		dd.Sub(dd, &sq)
	}
	w.Add(w, dd)
	n := big.NewInt(c.N())
	nsq := new(big.Int).Mul(n, n)
	ref := new(big.Float).SetPrec(256).Quo(
		new(big.Float).SetPrec(256).SetInt(w),
		new(big.Float).SetPrec(256).SetInt(nsq))
	want, _ := ref.Float64()
	ulp := math.Nextafter(want, math.Inf(1)) - want
	if math.Abs(got-want) > 4*ulp {
		t.Fatalf("ProductiveProbability at MaxN = %v, want %v (math/big reference, gap %v)",
			got, want, math.Abs(got-want))
	}
	if got <= 0 || got > 1 || math.IsNaN(got) {
		t.Fatalf("productive probability %v out of range at n = MaxN", got)
	}
}

func TestNewRejectsWrappedPopulationSum(t *testing.T) {
	// Regression: support/undecided sums that wrap int64 produced a
	// negative n that slipped past the n > MaxN guard, and nSq became
	// garbage. Every wrapping combination must be rejected.
	for i, cfg := range []*conf.Config{
		{Support: []int64{50}, Undecided: math.MaxInt64 - 10},
		{Support: []int64{1, math.MaxInt64}},
		{Support: []int64{MaxN, MaxN, MaxN, MaxN}},
	} {
		if _, err := New(cfg, rng.New(1)); err == nil {
			t.Errorf("case %d: New accepted a wrapped population sum", i)
		}
	}
}
