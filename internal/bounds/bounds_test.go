package bounds

import (
	"math"
	"testing"
)

// calibration is the measurement table the constants were frozen against:
// batched-kernel mean consensus interactions on uniform starts, 5 trials
// per cell, seed 1 (normalized column T·x₁/(n²·ln n) = T/(k·n·ln n)).
var calibration = []struct {
	n     int64
	k     int
	meanT float64
}{
	{10_000, 2, 2.763e5},
	{1_000_000, 2, 3.942e7},
	{100_000_000, 2, 5.158e9},
	{1_000_000_000, 2, 5.632e10},
	{10_000, 32, 8.075e5},
	{1_000_000, 32, 1.937e8},
	{100_000_000, 32, 3.463e10},
	{1_000_000_000, 32, 4.146e11},
	{10_000, 512, 1.205e6},
	{1_000_000, 512, 5.887e8},
	{100_000_000, 512, 1.937e11},
	{1_000_000_000, 512, 2.947e12},
}

// TestEnvelopeCoversCalibration pins the frozen constants to the data they
// were calibrated on: every measured mean lies strictly inside the envelope
// with at least 25% margin on both sides, at every (n, k) cell. If either
// constant is retuned, this fails before any experiment does.
func TestEnvelopeCoversCalibration(t *testing.T) {
	const margin = 1.25
	for _, c := range calibration {
		lo, hi, ok := Bracket(c.n, c.k, c.meanT)
		if !ok {
			t.Errorf("n=%d k=%d: mean %g outside [%g, %g]", c.n, c.k, c.meanT, lo, hi)
			continue
		}
		if c.meanT < lo*margin || c.meanT > hi/margin {
			t.Errorf("n=%d k=%d: mean %g within 25%% of envelope edge [%g, %g]",
				c.n, c.k, c.meanT, lo, hi)
		}
	}
}

func TestCurveShapes(t *testing.T) {
	// Upper curve reduces to UpperConst·k·n·ln n on the uniform start.
	n, k := int64(1_000_000), 32
	nf := float64(n)
	want := UpperConst * float64(k) * nf * math.Log(nf)
	if got := Theorem2Upper(n, k); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Theorem2Upper = %g, want %g", got, want)
	}
	// Both curves are increasing in n and in k.
	for _, kk := range []int{2, 32, 512} {
		prevUp, prevLo := 0.0, 0.0
		for _, nn := range []int64{10_000, 1_000_000, 1_000_000_000, 3_000_000_000} {
			up, lo := Theorem2Upper(nn, kk), LowerBound(nn, kk)
			if !(up > prevUp) || !(lo > prevLo) {
				t.Fatalf("curves not increasing in n at n=%d k=%d", nn, kk)
			}
			if !(lo < up) {
				t.Fatalf("lower %g not below upper %g at n=%d k=%d", lo, up, nn, kk)
			}
			prevUp, prevLo = up, lo
		}
	}
	if !(Theorem2Upper(n, 64) > Theorem2Upper(n, 32)) {
		t.Fatal("upper curve not increasing in k")
	}
}

func TestLowerBoundRegime(t *testing.T) {
	// The regime the raised conf.MaxN unlocked: n ∈ (2·10⁹, 3·10⁹]. The
	// curves must be finite, ordered, and well inside int64-expressible
	// interaction counts (the clock caps at n² ≈ 9.2·10¹⁸).
	for _, n := range []int64{2_200_000_000, 2_600_000_000, 3_000_000_000} {
		for _, k := range []int{2, 32, 512} {
			lo, hi := LowerBound(n, k), Theorem2Upper(n, k)
			if math.IsNaN(lo) || math.IsNaN(hi) || lo <= 0 || hi <= lo {
				t.Fatalf("degenerate envelope [%g, %g] at n=%d k=%d", lo, hi, n, k)
			}
			if hi > float64(n)*float64(n) {
				t.Fatalf("upper curve %g exceeds the n² clock at n=%d k=%d", hi, n, k)
			}
		}
	}
}

func TestInvalidArguments(t *testing.T) {
	cases := []struct {
		n int64
		k int
	}{
		{15, 2},   // below the ln ln n domain
		{1000, 0}, // no opinions
		{100, 101},
		{-5, 2},
	}
	for _, c := range cases {
		if !math.IsNaN(Theorem2Upper(c.n, c.k)) || !math.IsNaN(LowerBound(c.n, c.k)) {
			t.Fatalf("n=%d k=%d: expected NaN curves", c.n, c.k)
		}
		if _, _, ok := Bracket(c.n, c.k, 1); ok {
			t.Fatalf("n=%d k=%d: Bracket ok on invalid domain", c.n, c.k)
		}
	}
}
