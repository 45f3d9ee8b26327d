package pop

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/conf"
	"repro/internal/potential"
	"repro/internal/rng"
)

func mustConfig(t *testing.T, support []int64, u int64) *conf.Config {
	t.Helper()
	c, err := conf.FromSupport(support, u)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUSDDeltaTable(t *testing.T) {
	p := USD{Opinions: 3}
	if p.K() != 3 {
		t.Fatalf("K = %d", p.K())
	}
	cases := []struct {
		name           string
		resp, init     State
		wantR, wantI   State
		wantResponderΔ bool
	}{
		{"different opinions", 1, 2, Undecided, 2, true},
		{"same opinion", 2, 2, 2, 2, false},
		{"undecided adopts", Undecided, 3, 3, 3, true},
		{"initiator undecided", 1, Undecided, 1, Undecided, false},
		{"both undecided", Undecided, Undecided, Undecided, Undecided, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, i := p.Delta(tc.resp, tc.init)
			if r != tc.wantR || i != tc.wantI {
				t.Fatalf("Delta(%d,%d) = (%d,%d), want (%d,%d)",
					tc.resp, tc.init, r, i, tc.wantR, tc.wantI)
			}
			if (r != tc.resp) != tc.wantResponderΔ {
				t.Fatalf("responder change = %v, want %v", r != tc.resp, tc.wantResponderΔ)
			}
		})
	}
}

func TestUSDDeltaInitiatorNeverChanges(t *testing.T) {
	p := USD{Opinions: 4}
	check := func(a, b uint8) bool {
		resp := State(a % 5) // 0..4
		init := State(b % 5)
		_, gotInit := p.Delta(resp, init)
		return gotInit == init
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVoterDelta(t *testing.T) {
	p := Voter{Opinions: 2}
	if r, _ := p.Delta(1, 2); r != 2 {
		t.Fatal("voter responder must adopt initiator opinion")
	}
	if r, _ := p.Delta(1, Undecided); r != 1 {
		t.Fatal("voter responder must keep opinion against undecided initiator")
	}
	if r, _ := p.Delta(Undecided, 2); r != 2 {
		t.Fatal("undecided voter responder must adopt")
	}
}

func TestNewEngineValidation(t *testing.T) {
	c := mustConfig(t, []int64{2, 2}, 0)
	if _, err := NewEngine(c, nil, UniformScheduler{Src: rng.New(1)}); err == nil {
		t.Fatal("nil protocol accepted")
	}
	if _, err := NewEngine(c, USD{Opinions: 2}, nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := NewEngine(c, USD{Opinions: 3}, UniformScheduler{Src: rng.New(1)}); err == nil {
		t.Fatal("k mismatch accepted")
	}
	if _, err := NewEngine(&conf.Config{}, USD{Opinions: 0}, UniformScheduler{Src: rng.New(1)}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestEngineInitialState(t *testing.T) {
	c := mustConfig(t, []int64{3, 2}, 1)
	e, err := NewEngine(c, USD{Opinions: 2}, UniformScheduler{Src: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != 6 || e.K() != 2 || e.Undecided() != 1 {
		t.Fatalf("shape: n=%d k=%d u=%d", e.N(), e.K(), e.Undecided())
	}
	// Agent vector layout: opinion 0 ×3, opinion 1 ×2, undecided ×1.
	wantAgents := []State{1, 1, 1, 2, 2, Undecided}
	for i, w := range wantAgents {
		if got := e.agents[i]; got != w {
			t.Fatalf("agent %d = %d, want %d", i, got, w)
		}
	}
	snap := e.Config()
	if snap.Support[0] != 3 || snap.Support[1] != 2 || snap.Undecided != 1 {
		t.Fatalf("Config = %v", snap)
	}
}

func TestEngineCountsStayConsistent(t *testing.T) {
	check := func(seed uint16) bool {
		c, err := conf.Uniform(60, 3, 10)
		if err != nil {
			return false
		}
		e, err := NewEngine(c, USD{Opinions: 3}, UniformScheduler{Src: rng.New(uint64(seed))})
		if err != nil {
			return false
		}
		for s := 0; s < 500; s++ {
			e.Step()
			// Recount from the agent vector.
			var u int64
			counts := make([]int64, 3)
			for i := int64(0); i < e.N(); i++ {
				st := e.agents[int(i)]
				if st == Undecided {
					u++
				} else {
					counts[st-1]++
				}
			}
			if u != e.Undecided() {
				return false
			}
			for i := range counts {
				if counts[i] != e.Support(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineReachesConsensus(t *testing.T) {
	c := mustConfig(t, []int64{80, 20}, 0)
	e, err := NewEngine(c, USD{Opinions: 2}, UniformScheduler{Src: rng.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(0)
	if !res.Consensus {
		t.Fatal("no consensus")
	}
	if res.Winner != 0 && res.Winner != 1 {
		t.Fatalf("winner = %d", res.Winner)
	}
	if !e.IsConsensus() {
		t.Fatal("IsConsensus false after consensus result")
	}
}

func TestEngineBudget(t *testing.T) {
	c, err := conf.Uniform(1000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c, USD{Opinions: 4}, UniformScheduler{Src: rng.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(100)
	if res.Consensus {
		t.Fatal("cannot reach consensus in 100 interactions from uniform 4-opinion start")
	}
	if res.Interactions != 100 {
		t.Fatalf("interactions = %d, want 100", res.Interactions)
	}
}

func TestEngineAllUndecidedAbsorbing(t *testing.T) {
	c := mustConfig(t, []int64{0, 0}, 10)
	e, err := NewEngine(c, USD{Opinions: 2}, UniformScheduler{Src: rng.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(0)
	if res.Consensus || res.Winner != -1 {
		t.Fatalf("all-undecided run: %+v", res)
	}
}

func TestUniformSchedulerLaw(t *testing.T) {
	src := rng.New(21)
	s := UniformScheduler{Src: src}
	const n, trials = 5, 100000
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	selfCount := 0
	for i := 0; i < trials; i++ {
		a, b := s.Pair(n)
		counts[a][b]++
		if a == b {
			selfCount++
		}
	}
	want := float64(trials) / (n * n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(float64(counts[i][j])-want) > 6*math.Sqrt(want) {
				t.Fatalf("pair (%d,%d) count %d, want ~%.0f", i, j, counts[i][j], want)
			}
		}
	}
	if selfCount == 0 {
		t.Fatal("uniform scheduler never produced a self-interaction")
	}
}

func TestNoSelfSchedulerLaw(t *testing.T) {
	src := rng.New(22)
	s := NoSelfScheduler{Src: src}
	const n, trials = 5, 100000
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	for i := 0; i < trials; i++ {
		a, b := s.Pair(n)
		if a == b {
			t.Fatal("self-interaction from NoSelfScheduler")
		}
		counts[a][b]++
	}
	want := float64(trials) / (n * (n - 1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if math.Abs(float64(counts[i][j])-want) > 6*math.Sqrt(want) {
				t.Fatalf("pair (%d,%d) count %d, want ~%.0f", i, j, counts[i][j], want)
			}
		}
	}
}

func TestEngineMatchesObservation6(t *testing.T) {
	// The agent-level engine's one-step law must match the aggregate
	// probabilities, confirming the two simulators implement one process.
	c := mustConfig(t, []int64{6, 3, 1}, 10)
	want := potential.UndecidedProbs(c)
	src := rng.New(55)
	const trials = 200000
	var down, up int
	for i := 0; i < trials; i++ {
		e, err := NewEngine(c, USD{Opinions: 3}, UniformScheduler{Src: src})
		if err != nil {
			t.Fatal(err)
		}
		before := e.Undecided()
		e.Step()
		switch e.Undecided() - before {
		case -1:
			down++
		case 1:
			up++
		}
	}
	tol := 4.0 / math.Sqrt(trials)
	if got := float64(down) / trials; math.Abs(got-want.Down) > tol {
		t.Errorf("down rate %.5f, want %.5f", got, want.Down)
	}
	if got := float64(up) / trials; math.Abs(got-want.Up) > tol {
		t.Errorf("up rate %.5f, want %.5f", got, want.Up)
	}
}

func TestVoterReachesConsensus(t *testing.T) {
	c := mustConfig(t, []int64{50, 50}, 0)
	e, err := NewEngine(c, Voter{Opinions: 2}, UniformScheduler{Src: rng.New(9)})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(0)
	if !res.Consensus {
		t.Fatal("voter did not converge")
	}
}

func BenchmarkEngineStepUSD(b *testing.B) {
	c, err := conf.Uniform(1<<16, 8, 0)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(c, USD{Opinions: 8}, UniformScheduler{Src: rng.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
