package usd

import (
	"fmt"
	"math"
	"testing"
)

func TestRunAdditiveBias(t *testing.T) {
	cfg, err := WithAdditiveBias(5000, 5, 800, 0)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if report.Result.Outcome != OutcomeConsensus {
		t.Fatalf("outcome %v", report.Result.Outcome)
	}
	if report.Result.Winner != 0 {
		t.Fatalf("large additive bias lost: winner %d", report.Result.Winner)
	}
	if report.InitialLeader != 0 {
		t.Fatalf("initial leader %d", report.InitialLeader)
	}
	for p := 1; p <= 5; p++ {
		if !report.Phases.Reached(p) {
			t.Fatalf("phase %d not recorded: %+v", p, report.Phases)
		}
	}
	if report.Phases.End[4] != report.Result.Interactions {
		t.Fatalf("phase 5 end %d != consensus time %d",
			report.Phases.End[4], report.Result.Interactions)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg, err := Uniform(2000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result != b.Result || a.Phases != b.Phases {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Run(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Interactions == c.Result.Interactions {
		t.Log("note: different seeds gave equal consensus times (possible but unlikely)")
	}
}

func TestRunWithBudget(t *testing.T) {
	cfg, err := Uniform(100000, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunVariant(cfg, Variant{}, 1, ClockOf(1000), KernelExact)
	if err != nil {
		t.Fatal(err)
	}
	if report.Result.Outcome != OutcomeBudget {
		t.Fatalf("outcome %v, want budget", report.Result.Outcome)
	}
	if report.Result.Interactions != ClockOf(1000) {
		t.Fatalf("interactions %v, want 1000", report.Result.Interactions)
	}
}

func TestRunInvalidConfig(t *testing.T) {
	if _, err := Run(&Config{}, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewSimulator(&Config{}, 1); err == nil {
		t.Fatal("invalid config accepted by NewSimulator")
	}
}

func TestNewSimulatorOptions(t *testing.T) {
	cfg, err := Uniform(500, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimulator(cfg, 3, WithSkipping(false))
	if err != nil {
		t.Fatal(err)
	}
	ev := s.Step()
	if ev.Interactions != ClockOf(1) {
		t.Fatalf("clock %v after one non-skipping step", ev.Interactions)
	}
}

func TestRunGossip(t *testing.T) {
	cfg, err := WithMultiplicativeBias(2000, 4, 2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGossip(cfg, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus {
		t.Fatalf("gossip did not converge: %+v", res)
	}
	if res.Winner != 0 {
		t.Fatalf("gossip winner %d", res.Winner)
	}
	if _, err := RunGossip(&Config{}, 1, 0); err == nil {
		t.Fatal("invalid config accepted by RunGossip")
	}
}

func TestGeneratorsExported(t *testing.T) {
	if _, err := FromSupport([]int64{3, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Zipf(1000, 5, 1.0, 0); err != nil {
		t.Fatal(err)
	}
	cfg, err := WithMultiplicativeBias(1000, 4, 2.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MultiplicativeBias() < 2 {
		t.Fatalf("ratio %v", cfg.MultiplicativeBias())
	}
}

func TestTheoryHelpers(t *testing.T) {
	if got := EquilibriumUndecided(300, 2); math.Abs(got-100) > 1e-9 {
		t.Fatalf("u* = %v", got)
	}
	if got := SignificanceThreshold(10000, 1); got <= 0 {
		t.Fatalf("threshold = %v", got)
	}
	if got := MonochromaticDistance([]int64{10, 10}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("md = %v", got)
	}
}

func TestTheoremBound(t *testing.T) {
	mult, err := WithMultiplicativeBias(10000, 4, 2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := TheoremBound(mult)
	if err != nil {
		t.Fatal(err)
	}
	n := 10000.0
	_, x1 := mult.Max()
	want := n*math.Log(n) + n*n/float64(x1)
	if math.Abs(bm-want) > 1e-6 {
		t.Fatalf("multiplicative bound = %v, want %v", bm, want)
	}

	flat, err := Uniform(10000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := TheoremBound(flat)
	if err != nil {
		t.Fatal(err)
	}
	_, x1f := flat.Max()
	wantFlat := n * n * math.Log(n) / float64(x1f)
	if math.Abs(bf-wantFlat) > 1e-6 {
		t.Fatalf("no-bias bound = %v, want %v", bf, wantFlat)
	}

	if _, err := TheoremBound(&Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	allU, err := FromSupport([]int64{0, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TheoremBound(allU); err == nil {
		t.Fatal("all-undecided config accepted")
	}
}

func TestRunTimeWithinTheoremBound(t *testing.T) {
	// Smoke-level shape check: measured consensus time should be within a
	// small constant of the Theorem 2 bound.
	cfg, err := WithAdditiveBias(4096, 8, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := TheoremBound(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := report.Result.Interactions.Float64() / bound; ratio > 10 {
		t.Fatalf("consensus time %v is %.1fx the theorem bound %v",
			report.Result.Interactions, ratio, bound)
	}
}

// facadeFingerprint renders a Report's outcome, winner, 128-bit clock,
// initial leader and every phase end, so a pin compares all of them at once.
func facadeFingerprint(r Report) string {
	s := fmt.Sprintf("%v winner=%d clock=%d:%d leader=%d t2=%d phases=",
		r.Result.Outcome, r.Result.Winner, r.Result.Interactions.Hi, r.Result.Interactions.Lo,
		r.InitialLeader, r.Phases.LeaderAtT2)
	for p := 0; p < len(r.Phases.End); p++ {
		if r.Phases.Ended[p] {
			s += fmt.Sprintf("[%d:%d]", r.Phases.End[p].Hi, r.Phases.End[p].Lo)
		} else {
			s += "[-]"
		}
	}
	return s
}

// TestFacadeRunsPinned pins the facade's tracked runs — Run, RunFast, and
// RunVariant under a stubborn variant, the exact and auto kernels, and an
// interaction budget — to the exact results and phase ends they recorded,
// so any change to how the facade builds a trial that alters its stream or
// its tracker shows here.
func TestFacadeRunsPinned(t *testing.T) {
	cfg, err := WithAdditiveBias(5000, 5, 800, 0)
	if err != nil {
		t.Fatal(err)
	}
	stubborn, err := ParseVariantSpec("stubborn:40,0,0,0,60")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() (Report, error)
		want string
	}{
		{"Run", func() (Report, error) { return Run(cfg, 42) },
			"consensus winner=0 clock=0:101288 leader=0 t2=0 phases=[0:8427][0:8427][0:8427][0:48733][0:101288]"},
		{"RunFast", func() (Report, error) { return RunFast(cfg, 42) },
			"consensus winner=0 clock=0:100730 leader=0 t2=0 phases=[0:7984][0:7984][0:7984][0:47901][0:100730]"},
		{"stubborn/exact", func() (Report, error) { return RunVariant(cfg, stubborn, 42, NoBudget, KernelExact) },
			"dominance winner=0 clock=0:60012 leader=0 t2=0 phases=[0:9022][0:9022][0:9022][0:50643][-]"},
		{"stubborn/auto", func() (Report, error) { return RunVariant(cfg, stubborn, 42, NoBudget, KernelAuto(0)) },
			"dominance winner=0 clock=0:60659 leader=0 t2=0 phases=[0:8810][0:8810][0:8810][0:50535][-]"},
		{"budget", func() (Report, error) { return RunVariant(cfg, Variant{}, 42, ClockOf(1000), KernelExact) },
			"budget-exhausted winner=-1 clock=0:1000 leader=0 t2=-1 phases=[-][-][-][-][-]"},
	}
	for _, c := range cases {
		r, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := facadeFingerprint(r); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
