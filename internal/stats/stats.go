// Package stats provides the summary statistics, confidence intervals,
// goodness-of-fit measures, and least-squares fits used to post-process
// experiment trials. Everything is implemented from first principles on the
// standard library.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a computation needs at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the basic statistics of a sample.
type Summary struct {
	// N is the sample size.
	N int
	// Mean is the arithmetic mean.
	Mean float64
	// Std is the sample standard deviation (n−1 denominator; 0 for n < 2).
	Std float64
	// Min and Max are the extreme values.
	Min, Max float64
	// Median is the 0.5 quantile.
	Median float64
	// P10 and P90 are the 0.1 and 0.9 quantiles.
	P10, P90 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	var ss float64
	for _, x := range sorted {
		d := x - mean
		ss += d * d
	}
	std := 0.0
	if len(sorted) > 1 {
		std = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Std:    std,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: quantileSorted(sorted, 0.5),
		P10:    quantileSorted(sorted, 0.1),
		P90:    quantileSorted(sorted, 0.9),
	}, nil
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g med=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanCI returns the mean of xs and the half-width of a z-score confidence
// interval (z = 1.96 for ~95%).
func MeanCI(xs []float64, z float64) (mean, halfWidth float64, err error) {
	s, err := Summarize(xs)
	if err != nil {
		return 0, 0, err
	}
	if s.N < 2 {
		return s.Mean, math.Inf(1), nil
	}
	return s.Mean, z * s.Std / math.Sqrt(float64(s.N)), nil
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion with the given success count, trial count, and z-score.
func WilsonInterval(successes, trials int, z float64) (lo, hi float64, err error) {
	if trials <= 0 || successes < 0 || successes > trials {
		return 0, 0, fmt.Errorf("stats: invalid proportion %d/%d", successes, trials)
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}

// LinearFit returns the least-squares line y = slope·x + intercept through
// the points, together with the coefficient of determination R².
func LinearFit(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, 0, 0, ErrEmpty
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("stats: degenerate fit (constant x)")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1, nil
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2, nil
}

// PowerFit fits y = a·x^b by least squares in log-log space and returns
// (a, b, r2). All inputs must be positive.
func PowerFit(xs, ys []float64) (a, b, r2 float64, err error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("stats: PowerFit needs positive data, got (%v, %v)", xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	slope, intercept, r2, err := LinearFit(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return math.Exp(intercept), slope, r2, nil
}

// KSTwoSample returns the two-sample Kolmogorov-Smirnov statistic
// D = sup_t |F_xs(t) − F_ys(t)|, the largest vertical distance between the
// empirical CDFs of the two samples. Both samples must be non-empty.
func KSTwoSample(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, ErrEmpty
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Advance past every copy of the smaller value in both samples so
		// the CDF gap is measured between jump points, never mid-tie.
		v := math.Min(a[i], b[j])
		for i < len(a) && a[i] <= v {
			i++
		}
		for j < len(b) && b[j] <= v {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(a)) - float64(j)/float64(len(b)))
		if diff > d {
			d = diff
		}
	}
	return d, nil
}

// KSCriticalValue returns the large-sample critical value of the two-sample
// KS statistic at significance level alpha (0 < alpha < 1) for sample sizes
// n and m: c(α)·√((n+m)/(n·m)) with c(α) = √(−ln(α/2)/2). A statistic above
// this value rejects "same distribution" at level alpha.
func KSCriticalValue(n, m int, alpha float64) float64 {
	if n <= 0 || m <= 0 || alpha <= 0 || alpha >= 1 {
		return math.NaN()
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/(float64(n)*float64(m)))
}

// ChiSquare returns the chi-square statistic of observed counts against
// expected probabilities (which must sum to ~1) and the degrees of freedom.
func ChiSquare(observed []int64, expectedProb []float64) (stat float64, dof int, err error) {
	if len(observed) != len(expectedProb) {
		return 0, 0, fmt.Errorf("stats: mismatched lengths %d and %d", len(observed), len(expectedProb))
	}
	if len(observed) < 2 {
		return 0, 0, ErrEmpty
	}
	var total int64
	var psum float64
	for i, o := range observed {
		if o < 0 || expectedProb[i] < 0 {
			return 0, 0, errors.New("stats: negative count or probability")
		}
		total += o
		psum += expectedProb[i]
	}
	if math.Abs(psum-1) > 1e-9 {
		return 0, 0, fmt.Errorf("stats: expected probabilities sum to %v, want 1", psum)
	}
	if total == 0 {
		return 0, 0, ErrEmpty
	}
	for i, o := range observed {
		exp := expectedProb[i] * float64(total)
		if exp == 0 {
			if o != 0 {
				return math.Inf(1), len(observed) - 1, nil
			}
			continue
		}
		d := float64(o) - exp
		stat += d * d / exp
	}
	return stat, len(observed) - 1, nil
}

// ChiSquareUniform is ChiSquare against the uniform distribution.
func ChiSquareUniform(observed []int64) (stat float64, dof int, err error) {
	p := make([]float64, len(observed))
	for i := range p {
		p[i] = 1 / float64(len(observed))
	}
	return ChiSquare(observed, p)
}
