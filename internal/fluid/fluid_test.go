package fluid

import (
	"math"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/u128"
)

func mustState(t *testing.T, a []float64, u float64) State {
	t.Helper()
	s := State{A: a, U: u}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFromConfig(t *testing.T) {
	c, err := conf.FromSupport([]int64{60, 30}, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.A[0]-0.6) > 1e-12 || math.Abs(s.A[1]-0.3) > 1e-12 || math.Abs(s.U-0.1) > 1e-12 {
		t.Fatalf("state %+v", s)
	}
	if _, err := FromConfig(&conf.Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestValidate(t *testing.T) {
	if err := (State{}).Validate(); err == nil {
		t.Fatal("empty state accepted")
	}
	if err := (State{A: []float64{0.5}, U: 0.6}).Validate(); err == nil {
		t.Fatal("mass > 1 accepted")
	}
	if err := (State{A: []float64{-0.1, 1.1}, U: 0}).Validate(); err == nil {
		t.Fatal("negative density accepted")
	}
	if err := (State{A: []float64{0.4, 0.4}, U: 0.2}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFieldConservesMass(t *testing.T) {
	states := []State{
		mustState(t, []float64{0.5, 0.3}, 0.2),
		mustState(t, []float64{0.25, 0.25, 0.25}, 0.25),
		mustState(t, []float64{1, 0}, 0),
	}
	var d State
	for _, s := range states {
		Field(s, &d)
		var sum float64 = d.U
		for _, v := range d.A {
			sum += v
		}
		if math.Abs(sum) > 1e-14 {
			t.Fatalf("state %+v: field mass derivative %v, want 0", s, sum)
		}
	}
}

func TestConsensusIsFixedPoint(t *testing.T) {
	var d State
	Field(mustState(t, []float64{1, 0, 0}, 0), &d)
	for i, v := range d.A {
		if math.Abs(v) > 1e-14 {
			t.Fatalf("consensus not fixed: dA[%d] = %v", i, v)
		}
	}
	if math.Abs(d.U) > 1e-14 {
		t.Fatalf("consensus not fixed: dU = %v", d.U)
	}
}

func TestEquilibriumIsFixedPoint(t *testing.T) {
	// Symmetric state with υ = (k−1)/(2k−1) must be a fixed point — the
	// fluid counterpart of the paper's u*.
	for _, k := range []int{1, 2, 3, 8, 32} {
		u := Equilibrium(k)
		a := (1 - u) / float64(k)
		aVec := make([]float64, k)
		for i := range aVec {
			aVec[i] = a
		}
		var d State
		Field(State{A: aVec, U: u}, &d)
		for i, v := range d.A {
			if math.Abs(v) > 1e-14 {
				t.Fatalf("k=%d: dA[%d] = %v at equilibrium", k, i, v)
			}
		}
		if math.Abs(d.U) > 1e-14 {
			t.Fatalf("k=%d: dU = %v at equilibrium", k, d.U)
		}
	}
	if Equilibrium(0) != 0 {
		t.Fatal("Equilibrium(0) != 0")
	}
}

func TestSymmetricManifoldAttractsToEquilibrium(t *testing.T) {
	// Within the symmetric manifold (all aᵢ equal), υ flows to the
	// equilibrium from both sides.
	k := 4
	uStar := Equilibrium(k)
	in, err := NewIntegrator(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, u0 := range []float64{0.05, 0.6} {
		a := (1 - u0) / float64(k)
		aVec := make([]float64, k)
		for i := range aVec {
			aVec[i] = a
		}
		final, err := in.Solve(State{A: aVec, U: u0}, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(final.U-uStar) > 1e-6 {
			t.Fatalf("from u0=%v: final υ = %v, want u* = %v", u0, final.U, uStar)
		}
	}
}

func TestBiasedStartFlowsToConsensus(t *testing.T) {
	// Any bias is amplified: the fluid trajectory from a slightly biased
	// state converges to consensus of the leader (the interior fixed
	// point is transversally unstable).
	in, err := NewIntegrator(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	s0 := mustState(t, []float64{0.26, 0.25, 0.25, 0.24}, 0)
	// The leader's density crosses 0.999 near τ ≈ 33.
	final, err := in.Solve(s0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.A[0] < 0.999 {
		t.Fatalf("leader did not win the fluid flow: %+v", final)
	}
}

func TestMassConservedAlongTrajectory(t *testing.T) {
	in, err := NewIntegrator(1e-2)
	if err != nil {
		t.Fatal(err)
	}
	s0 := mustState(t, []float64{0.4, 0.35, 0.25}, 0)
	worst := 0.0
	if _, err := in.Solve(s0, 30, func(_ float64, s State) {
		if d := math.Abs(s.Mass() - 1); d > worst {
			worst = d
		}
	}); err != nil {
		t.Fatal(err)
	}
	if worst > 1e-9 {
		t.Fatalf("mass drifted by %v", worst)
	}
}

func TestStepSizeRobustness(t *testing.T) {
	// Halving the step must not change the endpoint materially (RK4 is
	// O(dt⁴)-accurate).
	s0 := mustState(t, []float64{0.3, 0.28, 0.22}, 0.2)
	endpoint := func(dt float64) State {
		in, err := NewIntegrator(dt)
		if err != nil {
			t.Fatal(err)
		}
		s, err := in.Solve(s0, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := endpoint(1e-2)
	b := endpoint(5e-3)
	for i := range a.A {
		if math.Abs(a.A[i]-b.A[i]) > 1e-8 {
			t.Fatalf("step-size sensitivity at opinion %d: %v vs %v", i, a.A[i], b.A[i])
		}
	}
	if math.Abs(a.U-b.U) > 1e-8 {
		t.Fatalf("step-size sensitivity in υ: %v vs %v", a.U, b.U)
	}
}

func TestNewIntegratorValidation(t *testing.T) {
	for _, dt := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewIntegrator(dt); err == nil {
			t.Fatalf("dt = %v accepted", dt)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	in, err := NewIntegrator(1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Solve(State{}, 1, nil); err == nil {
		t.Fatal("invalid state accepted")
	}
	if _, err := in.Solve(mustState(t, []float64{1}, 0), -1, nil); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

// Kurtz-type validation: the stochastic trajectory at large n must track
// the fluid trajectory, with deviation shrinking as n grows.
func TestStochasticTrajectoryTracksFluid(t *testing.T) {
	if testing.Short() {
		t.Skip("fluid-vs-simulation comparison skipped in -short mode")
	}
	k := 4
	horizon := 10.0
	deviation := func(n int64) float64 {
		cfg, err := conf.WithMultiplicativeBias(n, k, 1.3, 0)
		if err != nil {
			t.Fatal(err)
		}
		s0, err := FromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Fluid path sampled on a grid.
		in, err := NewIntegrator(1e-3)
		if err != nil {
			t.Fatal(err)
		}
		grid := map[int]float64{} // parallel time (rounded ms) -> υ
		if _, err := in.Solve(s0, horizon, func(tau float64, s State) {
			grid[int(tau*1000+0.5)] = s.U
		}); err != nil {
			t.Fatal(err)
		}
		// Stochastic path.
		sim, err := core.New(cfg, rng.New(777))
		if err != nil {
			t.Fatal(err)
		}
		budget := u128.FromFloat64(horizon * float64(n))
		var worst float64
		sim.RunObserved(budget, func(s *core.Simulator, ev core.Event) {
			tau := ev.Interactions.Float64() / float64(n)
			fluidU, ok := grid[int(tau*1000+0.5)]
			if !ok {
				return
			}
			simU := float64(s.Undecided()) / float64(n)
			if d := math.Abs(simU - fluidU); d > worst {
				worst = d
			}
		})
		return worst
	}
	small := deviation(1 << 10)
	large := deviation(1 << 16)
	if large > 0.05 {
		t.Fatalf("n=2^16 deviates from fluid path by %v", large)
	}
	if large > small {
		t.Fatalf("deviation did not shrink with n: %v (2^10) vs %v (2^16)", small, large)
	}
}
