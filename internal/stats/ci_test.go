package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestNormalQuantile(t *testing.T) {
	// Reference values from the standard normal table (15 digits via erfc
	// inversion in an independent system).
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.999, 3.090232306167813},
		{0.025, -1.959963984540054},
		{1e-9, -5.997807015007773},
	}
	for _, c := range cases {
		approx(t, "NormalQuantile", NormalQuantile(c.p), c.want, 1e-9)
	}
	// Round trip through the CDF.
	for _, p := range []float64{0.001, 0.1, 0.3, 0.7, 0.9, 0.999} {
		x := NormalQuantile(p)
		cdf := 0.5 * math.Erfc(-x/math.Sqrt2)
		approx(t, "Φ(Φ⁻¹(p))", cdf, p, 1e-12)
	}
	// Subnormal tail: erfc underflows there, so the quantile comes from the
	// Mills-ratio inversion. Reference 38.2691253 solves the tail series
	// Φ(−t) = φ(t)/t·(1 − 1/t² + 3/t⁴ − …) = 1e-320 to full precision.
	approx(t, "NormalQuantile(1e-320)", NormalQuantile(1e-320), -38.2691253, 1e-4)
	for _, p := range []float64{0, 1, -0.5, math.NaN()} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestTQuantile(t *testing.T) {
	// Classic t-table values (two-sided 95% → p = 0.975, etc.).
	cases := []struct {
		p, nu, want float64
	}{
		{0.975, 1, 12.706204736174698},
		{0.975, 2, 4.302652729911275},
		{0.975, 5, 2.5705818366147395},
		{0.975, 30, 2.0422724563012373},
		{0.95, 10, 1.8124611228107335},
		{0.995, 8, 3.3553873313333957},
	}
	for _, c := range cases {
		approx(t, "TQuantile", TQuantile(c.p, c.nu), c.want, 1e-6)
	}
	if got := TQuantile(0.5, 7); got != 0 {
		t.Fatalf("median t quantile = %v", got)
	}
	approx(t, "symmetry", TQuantile(0.025, 5), -TQuantile(0.975, 5), 1e-12)
	// Large ν converges to the normal quantile.
	approx(t, "ν→∞", TQuantile(0.975, 2e6), NormalQuantile(0.975), 1e-9)
	approx(t, "ν=1e5 vs normal", TQuantile(0.975, 1e5), NormalQuantile(0.975), 1e-3)
}

func TestBetaIncReg(t *testing.T) {
	// I_x(1,1) = x and I_x(2,2) = 3x² − 2x³ are exact closed forms.
	for _, x := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		approx(t, "I_x(1,1)", BetaIncReg(1, 1, x), x, 1e-12)
		approx(t, "I_x(2,2)", BetaIncReg(2, 2, x), 3*x*x-2*x*x*x, 1e-12)
	}
	// Symmetry I_x(a,b) = 1 − I_{1−x}(b,a).
	for _, x := range []float64{0.2, 0.5, 0.8} {
		approx(t, "symmetry", BetaIncReg(3, 7, x), 1-BetaIncReg(7, 3, 1-x), 1e-12)
	}
}

func TestChiSquareCritical(t *testing.T) {
	// Wilson–Hilferty against exact table values; 1% relative tolerance.
	cases := []struct {
		dof   int
		alpha float64
		want  float64
	}{
		{10, 0.05, 18.307},
		{7, 0.01, 18.475},
		{63, 0.001, 103.442},
	}
	for _, c := range cases {
		got := ChiSquareCritical(c.dof, c.alpha)
		if math.Abs(got-c.want)/c.want > 0.01 {
			t.Fatalf("ChiSquareCritical(%d, %v) = %v, want ≈ %v", c.dof, c.alpha, got, c.want)
		}
	}
	if !math.IsNaN(ChiSquareCritical(0, 0.05)) || !math.IsNaN(ChiSquareCritical(5, 0)) {
		t.Fatal("invalid arguments must return NaN")
	}
}

func TestStudentTCIKnownSample(t *testing.T) {
	// Hand-checked sample: {1,2,3,4,5}, mean 3, s = √2.5, n = 5,
	// t_{0.975,4} = 2.7764451052, half = 2.7764451052·√(2.5/5) = 1.9633509...
	var o Online
	for _, x := range []float64{1, 2, 3, 4, 5} {
		o.Add(x)
	}
	ci := StudentTCI(&o, 0.95)
	approx(t, "mean", ci.Mean, 3, 1e-12)
	approx(t, "half", ci.Half, 2.7764451051977987*math.Sqrt(2.5/5), 1e-9)
	approx(t, "rel", ci.Rel(), ci.Half/3, 1e-12)
	approx(t, "lo", ci.Lo(), 3-ci.Half, 1e-12)
	approx(t, "hi", ci.Hi(), 3+ci.Half, 1e-12)
}

func TestCIDegenerate(t *testing.T) {
	var o Online
	if ci := StudentTCI(&o, 0.95); !math.IsInf(ci.Half, 1) || !math.IsInf(ci.Rel(), 1) {
		t.Fatalf("empty CI = %+v", ci)
	}
	o.Add(7)
	if ci := StudentTCI(&o, 0.95); !math.IsInf(ci.Half, 1) {
		t.Fatalf("n=1 CI = %+v", ci)
	}
	// Zero mean → Rel is +Inf, so width targets are never met vacuously.
	var z Online
	z.Add(-1)
	z.Add(1)
	if got := StudentTCI(&z, 0.95).Rel(); !math.IsInf(got, 1) {
		t.Fatalf("zero-mean Rel = %v", got)
	}
}

// TestStudentTCICoverage simulates many fixed-seed Gaussian samples and
// checks the empirical coverage of the 95% interval is near nominal — the
// end-to-end sanity check on quantile, CDF, and interval plumbing together.
func TestStudentTCICoverage(t *testing.T) {
	src := rng.New(42)
	const (
		experiments = 2000
		n           = 12
		mu          = 10.0
	)
	coveredT := 0
	for e := 0; e < experiments; e++ {
		var o Online
		for i := 0; i < n; i++ {
			o.Add(mu + 3*src.Normal())
		}
		if ci := StudentTCI(&o, 0.95); ci.Lo() <= mu && mu <= ci.Hi() {
			coveredT++
		}
	}
	if cov := float64(coveredT) / experiments; cov < 0.93 || cov > 0.97 {
		t.Fatalf("Student-t 95%% interval covered %.3f of the time", cov)
	}
}

func TestStoppingRules(t *testing.T) {
	var o Online
	for _, x := range []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1} {
		o.Add(x)
	}
	tight := RelWidth(0.05, 0.95) // ±5% of a ~100 mean: satisfied here
	loose := RelWidth(1e-6, 0.95) // one-in-a-million width: not satisfied
	if !tight.Stop(&o) {
		t.Fatalf("5%% rule should stop: rel = %v", StudentTCI(&o, 0.95).Rel())
	}
	if loose.Stop(&o) {
		t.Fatal("1e-6 rule should not stop")
	}
	if AfterN(8).Stop(&o) != true || AfterN(9).Stop(&o) != false {
		t.Fatal("AfterN miscounts")
	}
	if All(tight, AfterN(9)).Stop(&o) {
		t.Fatal("All must wait for the minimum-sample guard")
	}
	if !All(tight, AfterN(8)).Stop(&o) {
		t.Fatal("All with satisfied parts must stop")
	}
	if !All().Stop(&o) {
		t.Fatal("empty All must stop")
	}
	// Width rules never fire below two samples.
	var fresh Online
	fresh.Add(5)
	if RelWidth(10, 0.95).Stop(&fresh) {
		t.Fatal("width rule fired on a single sample")
	}
}
