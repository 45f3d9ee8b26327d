package stats

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary: %+v", s)
	}
	wantStd := math.Sqrt(2.5) // var = (4+1+0+1+4)/4
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Std != 0 || s.Mean != 7 || s.Median != 7 || s.P10 != 7 || s.P90 != 7 {
		t.Fatalf("single-sample summary: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty sample accepted")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Summarize(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	check := func(raw []float64) bool {
		clean := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				// Keep magnitudes bounded so sums cannot overflow.
				clean = append(clean, math.Mod(x, 1e9))
			}
		}
		if len(clean) == 0 {
			return true
		}
		s, err := Summarize(clean)
		if err != nil {
			return false
		}
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.P10 <= s.Median && s.Median <= s.P90 && s.Std >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, tc := range cases {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("q > 1 accepted")
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty accepted")
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{2, 4, 6, 8}
	mean, hw, err := MeanCI(xs, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if mean != 5 {
		t.Fatalf("mean = %v", mean)
	}
	wantStd := math.Sqrt((9 + 1 + 1 + 9) / 3.0)
	if math.Abs(hw-1.96*wantStd/2) > 1e-12 {
		t.Fatalf("half-width = %v", hw)
	}
	_, hw, err = MeanCI([]float64{1}, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(hw, 1) {
		t.Fatal("single-sample CI must be infinite")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi, err := WilsonInterval(50, 100, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < 0.5 && 0.5 < hi) {
		t.Fatalf("Wilson(50/100) = [%v, %v] does not bracket 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("Wilson(50/100) too wide: [%v, %v]", lo, hi)
	}
	// Extreme proportions stay in [0, 1].
	lo, hi, err = WilsonInterval(0, 10, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi <= 0 || hi >= 1 {
		t.Fatalf("Wilson(0/10) = [%v, %v]", lo, hi)
	}
	lo, hi, err = WilsonInterval(10, 10, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if hi != 1 || lo >= 1 || lo <= 0 {
		t.Fatalf("Wilson(10/10) = [%v, %v]", lo, hi)
	}
	if _, _, err := WilsonInterval(5, 0, 1.96); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, _, err := WilsonInterval(11, 10, 1.96); err == nil {
		t.Fatal("successes > trials accepted")
	}
}

func TestWilsonCoverage(t *testing.T) {
	// Wilson intervals get narrower with more trials at fixed proportion.
	_, hi1, err := WilsonInterval(50, 100, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	lo1, _, _ := WilsonInterval(50, 100, 1.96)
	lo2, hi2, err := WilsonInterval(500, 1000, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("interval did not narrow with more trials")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	slope, intercept, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-3) > 1e-12 || math.Abs(r2-1) > 1e-12 {
		t.Fatalf("fit = (%v, %v, %v)", slope, intercept, r2)
	}
}

func TestLinearFitNoise(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9} // ~2x
	slope, _, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 0.1 {
		t.Fatalf("slope = %v", slope)
	}
	if r2 < 0.99 {
		t.Fatalf("r2 = %v", r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); !errors.Is(err, ErrEmpty) {
		t.Fatal("single point accepted")
	}
	if _, _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, _, _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
}

func TestPowerFit(t *testing.T) {
	// y = 3 x^1.5
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	a, b, r2, err := PowerFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-3) > 1e-9 || math.Abs(b-1.5) > 1e-9 || r2 < 1-1e-9 {
		t.Fatalf("power fit = (%v, %v, %v)", a, b, r2)
	}
	if _, _, _, err := PowerFit([]float64{0, 1}, []float64{1, 1}); err == nil {
		t.Fatal("non-positive x accepted")
	}
}

func TestChiSquare(t *testing.T) {
	// Perfect match gives ~0.
	obs := []int64{25, 25, 25, 25}
	stat, dof, err := ChiSquareUniform(obs)
	if err != nil {
		t.Fatal(err)
	}
	if stat != 0 || dof != 3 {
		t.Fatalf("chi2 = (%v, %d)", stat, dof)
	}
	// Known value: obs [10, 30] vs uniform: exp 20 each, chi2 = 100/20*2 = 10.
	stat, _, err = ChiSquareUniform([]int64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stat-10) > 1e-12 {
		t.Fatalf("chi2 = %v, want 10", stat)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, err := ChiSquare([]int64{1}, []float64{1}); !errors.Is(err, ErrEmpty) {
		t.Fatal("single category accepted")
	}
	if _, _, err := ChiSquare([]int64{1, 1}, []float64{0.5}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, _, err := ChiSquare([]int64{1, 1}, []float64{0.7, 0.7}); err == nil {
		t.Fatal("probabilities not summing to 1 accepted")
	}
	if _, _, err := ChiSquare([]int64{0, 0}, []float64{0.5, 0.5}); !errors.Is(err, ErrEmpty) {
		t.Fatal("zero total accepted")
	}
	if _, _, err := ChiSquare([]int64{-1, 2}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("negative count accepted")
	}
	// Zero expected probability with nonzero observed count -> +Inf.
	stat, _, err := ChiSquare([]int64{1, 1}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(stat, 1) {
		t.Fatalf("chi2 = %v, want +Inf", stat)
	}
}

func TestSummaryString(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if str := s.String(); !strings.Contains(str, "mean=2") {
		t.Fatalf("String = %q", str)
	}
}

func TestKSTwoSampleIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	d, err := KSTwoSample(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("KS of a sample against itself = %v, want 0", d)
	}
}

func TestKSTwoSampleDisjoint(t *testing.T) {
	d, err := KSTwoSample([]float64{1, 2, 3}, []float64{10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSTwoSampleKnownValue(t *testing.T) {
	// F_xs jumps at 1,2,3,4 (steps of 1/4); F_ys jumps at 2.5,3.5,4.5,5.5.
	// Just before 2.5 the gap is |2/4 - 0| = 0.5, the supremum.
	d, err := KSTwoSample([]float64{1, 2, 3, 4}, []float64{2.5, 3.5, 4.5, 5.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("KS = %v, want 0.5", d)
	}
}

func TestKSTwoSampleUnsortedInput(t *testing.T) {
	a := []float64{3, 1, 2}
	b := []float64{2, 3, 1}
	d, err := KSTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("KS of permuted identical samples = %v, want 0", d)
	}
}

func TestKSTwoSampleEmpty(t *testing.T) {
	if _, err := KSTwoSample(nil, []float64{1}); err == nil {
		t.Fatal("expected error for empty first sample")
	}
	if _, err := KSTwoSample([]float64{1}, nil); err == nil {
		t.Fatal("expected error for empty second sample")
	}
}

func TestKSCriticalValue(t *testing.T) {
	// c(0.05) = sqrt(-ln(0.025)/2) ~ 1.358; with n = m = 100 the critical
	// value is 1.358*sqrt(2/100) ~ 0.192.
	got := KSCriticalValue(100, 100, 0.05)
	if math.Abs(got-0.19206) > 1e-3 {
		t.Fatalf("KSCriticalValue(100,100,0.05) = %v, want ~0.192", got)
	}
	if !math.IsNaN(KSCriticalValue(0, 10, 0.05)) {
		t.Fatal("expected NaN for invalid sample size")
	}
}
