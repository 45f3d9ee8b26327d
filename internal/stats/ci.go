package stats

import "math"

// This file provides the confidence-interval machinery behind adaptive
// (sequential-stopping) trial counts: closed-form intervals computed from an
// Online aggregator, the quantile functions they need, and a small
// StoppingRule combinator language so experiments can say "at least 5 trials,
// then stop once the 95% CI half-width is below 2% of the mean" and hand the
// composed rule to the trial engine.

// CI is a two-sided confidence interval for a mean: Mean ± Half at the given
// confidence level. A degenerate interval (too few samples to estimate a
// width) has Half = +Inf, which correctly never satisfies a width target.
type CI struct {
	// Level is the two-sided confidence level, e.g. 0.95.
	Level float64
	// Mean is the interval center, the sample mean.
	Mean float64
	// Half is the interval half-width.
	Half float64
}

// Lo returns the lower endpoint Mean − Half.
func (c CI) Lo() float64 { return c.Mean - c.Half }

// Hi returns the upper endpoint Mean + Half.
func (c CI) Hi() float64 { return c.Mean + c.Half }

// Rel returns the relative half-width |Half / Mean|, the quantity sequential
// stopping targets. It is +Inf when the mean is zero or the width undefined,
// so width targets are never met vacuously.
func (c CI) Rel() float64 {
	if c.Mean == 0 || math.IsInf(c.Half, 1) || math.IsNaN(c.Half) {
		return math.Inf(1)
	}
	return math.Abs(c.Half / c.Mean)
}

// StudentTCI returns the Student-t confidence interval for the mean of the
// samples folded into o: mean ± t_{1−α/2, n−1}·s/√n. With fewer than two
// samples the half-width is +Inf. level must be in (0, 1).
func StudentTCI(o *Online, level float64) CI {
	checkLevel(level)
	ci := CI{Level: level, Mean: o.Mean(), Half: math.Inf(1)}
	n := o.N()
	if n < 2 {
		return ci
	}
	t := TQuantile((1+level)/2, float64(n-1))
	ci.Half = t * o.Std() / math.Sqrt(float64(n))
	return ci
}

func checkLevel(level float64) {
	if !(level > 0 && level < 1) {
		panic("stats: confidence level outside (0, 1)")
	}
}

// NormalQuantile returns the standard normal quantile Φ⁻¹(p) for p in (0, 1)
// using Acklam's rational approximation refined by one Halley step on the
// complementary error function. It is accurate to ~1e-15 wherever erfc is
// representable (|Φ⁻¹(p)| < 37, i.e. p down to ~1e-300); the deeper
// subnormal tail — where erfc underflows and the rational approximation
// leaves its designed domain — is instead inverted through the asymptotic
// tail law Φ(−t) ≈ φ(t)/t (Mills' ratio), accurate to ~1e-6 relative down
// to the smallest subnormal p.
func NormalQuantile(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic("stats: NormalQuantile argument outside (0, 1)")
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// Past x = −37, erfc underflows so Halley cannot run (and this is
	// reachable only on the lower side: the upper branch caps at
	// 1 − p >= ulp, i.e. x ≲ 8.2). Invert the Mills-ratio tail law
	// Φ(−t) ≈ exp(−t²/2)/(t·√(2π)) = p instead: the fixed-point iteration
	// t ← √(2·(−ln p − ln(t·√(2π)))) converges in a handful of steps from
	// the rational estimate and lands within ~1e-6 relative of the true
	// quantile even for the smallest subnormal p.
	if x <= -37 {
		// math.Log collapses the exponent of subnormal arguments (observed
		// on this toolchain: Log(1e-320) = Log-of-smallest-normal); scaling
		// by 2¹⁰²² first is exact and keeps the argument normal, since p
		// here is at most ~1e-300.
		l := 1022*math.Ln2 - math.Log(p*0x1p1022)
		t := -x
		for i := 0; i < 4; i++ {
			t = math.Sqrt(2 * (l - math.Log(t*math.Sqrt(2*math.Pi))))
		}
		return -t
	}
	// One Halley refinement: e = Φ(x) − p, u = e·√(2π)·exp(x²/2).
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// TQuantile returns the Student-t quantile t_{p, ν} for p in (0, 1) and
// ν > 0 degrees of freedom, by bisection on the exact CDF (regularized
// incomplete beta function), deterministic to ~1e-12. Large ν (> 1e6) uses
// the normal quantile directly, where the distributions are
// indistinguishable at double precision.
func TQuantile(p, nu float64) float64 {
	if !(p > 0 && p < 1) {
		panic("stats: TQuantile argument outside (0, 1)")
	}
	if !(nu > 0) {
		panic("stats: TQuantile needs positive degrees of freedom")
	}
	if nu > 1e6 {
		return NormalQuantile(p)
	}
	if p == 0.5 {
		return 0
	}
	if p < 0.5 {
		return -TQuantile(1-p, nu)
	}
	// Bracket the root: the normal quantile is a lower bound for p > 0.5,
	// and doubling from there finds an upper bound quickly even at ν = 1.
	lo := 0.0
	hi := math.Max(1, 2*NormalQuantile(p))
	for tCDF(hi, nu) < p {
		hi *= 2
		if math.IsInf(hi, 1) {
			return hi
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if tCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// tCDF returns P(T <= t) for Student's t with ν degrees of freedom, via
// F(t) = 1 − ½·I_{ν/(ν+t²)}(ν/2, ½) for t >= 0 and symmetry below 0.
func tCDF(t, nu float64) float64 {
	if t < 0 {
		return 1 - tCDF(-t, nu)
	}
	x := nu / (nu + t*t)
	return 1 - 0.5*BetaIncReg(nu/2, 0.5, x)
}

// BetaIncReg returns the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0, 1], evaluated with the standard continued fraction
// (modified Lentz algorithm), using the symmetry I_x(a,b) = 1 − I_{1−x}(b,a)
// to stay in the rapidly-converging regime.
func BetaIncReg(a, b, x float64) float64 {
	switch {
	case !(a > 0) || !(b > 0):
		panic("stats: BetaIncReg needs positive parameters")
	case math.IsNaN(x) || x < 0 || x > 1:
		panic("stats: BetaIncReg argument outside [0, 1]")
	case x == 0:
		return 0
	case x == 1:
		return 1
	}
	// Prefactor x^a·(1−x)^b / (a·B(a,b)), in log space for stability.
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	front := math.Exp(a*math.Log(x)+b*math.Log1p(-x)-lbeta) / a
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x)
	}
	lbetaSym := lbeta // B(a,b) is symmetric
	frontSym := math.Exp(b*math.Log1p(-x)+a*math.Log(x)-lbetaSym) / b
	return 1 - frontSym*betaCF(b, a, 1-x)
}

// betaCF evaluates the continued fraction of the incomplete beta function
// with the modified Lentz algorithm (Numerical Recipes §6.4 structure,
// re-derived; converges in O(√(a+b)) iterations for x below the switchover).
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 500
		tiny    = 1e-300
		eps     = 1e-15
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		mf := float64(m)
		m2 := 2 * mf
		// Even step.
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// lgamma is math.Lgamma without the sign return (all call sites here have
// positive arguments).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// ChiSquareCritical returns the upper-tail critical value of the chi-square
// distribution with dof degrees of freedom at significance level alpha: the
// value c with P(X > c) = alpha, via the Wilson–Hilferty cube approximation
// (relative error below ~1% for dof >= 3, conservative enough for
// goodness-of-fit gates with generous alpha).
func ChiSquareCritical(dof int, alpha float64) float64 {
	if dof <= 0 || !(alpha > 0 && alpha < 1) {
		return math.NaN()
	}
	k := float64(dof)
	z := NormalQuantile(1 - alpha)
	t := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * t * t * t
}

// StoppingRule decides, from the aggregate state of one metric, whether
// sampling that metric can stop. Rules are pure functions of the aggregate,
// so a rule sequence evaluated in trial-index order is independent of
// parallelism — the property that keeps adaptive runs byte-identical to
// fixed-count runs of the same length.
type StoppingRule interface {
	// Stop reports whether the metric aggregated in o needs no more samples.
	Stop(o *Online) bool
}

// StopFunc adapts a function to the StoppingRule interface.
type StopFunc func(o *Online) bool

// Stop implements StoppingRule.
func (f StopFunc) Stop(o *Online) bool { return f(o) }

// RelWidth returns a rule that stops once the Student-t confidence interval
// at the given level has relative half-width at most rel. It never stops on
// fewer than two samples (the width is undefined there); compose with AfterN
// to guard against lucky early agreement among a handful of trials.
func RelWidth(rel, level float64) StoppingRule {
	checkLevel(level)
	return StopFunc(func(o *Online) bool {
		return StudentTCI(o, level).Rel() <= rel
	})
}

// AfterN returns a rule that stops only once at least n samples were seen.
// Alone it reproduces a fixed trial count; composed under All it acts as a
// minimum-sample guard for width-based rules.
func AfterN(n int64) StoppingRule {
	return StopFunc(func(o *Online) bool { return o.N() >= n })
}

// All composes rules conjunctively: stop only when every rule stops. With no
// rules it stops immediately.
func All(rules ...StoppingRule) StoppingRule {
	return StopFunc(func(o *Online) bool {
		for _, r := range rules {
			if !r.Stop(o) {
				return false
			}
		}
		return true
	})
}
