package rng

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
)

func TestSplitMix64KnownVector(t *testing.T) {
	// Reference outputs for SplitMix64 seeded with 0 (Vigna's reference
	// implementation).
	state := uint64(0)
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestXoshiroKnownState(t *testing.T) {
	// xoshiro256** with state {1,2,3,4}: first output is
	// rotl(2*5, 7)*9 = 11520; after the update s[1] becomes 0, so the
	// second output is 0.
	src := &Source{s: [4]uint64{1, 2, 3, 4}, pos: bufLen}
	if got := src.Uint64(); got != 11520 {
		t.Fatalf("first output = %d, want 11520", got)
	}
	if got := src.Uint64(); got != 0 {
		t.Fatalf("second output = %d, want 0", got)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverged at step %d: %d != %d", i, x, y)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 outputs collided across distinct seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		s := Derive(7, i)
		if seen[s] {
			t.Fatalf("Derive(7, %d) collided with an earlier index", i)
		}
		seen[s] = true
	}
	if Derive(1, 0) == Derive(2, 0) {
		t.Fatal("Derive should depend on the base seed")
	}
}

func TestUint64nBounds(t *testing.T) {
	src := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := src.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	src := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[src.Uint64n(n)]++
	}
	// Chi-square with 9 dof; 99.9% critical value is 27.88.
	expected := float64(trials) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("chi-square = %.2f exceeds 27.88; counts %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(5)
	var sum float64
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := src.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %.4f, want ~0.5", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	src := New(23)
	for _, p := range []float64{0.9, 0.5, 0.1, 0.01} {
		const trials = 50000
		var sum float64
		for i := 0; i < trials; i++ {
			g := src.Geometric(p)
			if g < 1 {
				t.Fatalf("Geometric(%v) = %d < 1", p, g)
			}
			sum += float64(g)
		}
		mean := sum / trials
		want := 1 / p
		// Std of the mean is sqrt((1-p)/p^2/trials); allow 5 sigma.
		tol := 5 * math.Sqrt((1-p)/(p*p)/trials)
		if math.Abs(mean-want) > tol {
			t.Fatalf("Geometric(%v) mean = %.3f, want %.3f +- %.3f", p, mean, want, tol)
		}
	}
}

func TestGeometricPOne(t *testing.T) {
	src := New(2)
	for i := 0; i < 10; i++ {
		if g := src.Geometric(1); g != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", g)
		}
	}
}

func TestGeometricTinyPCapped(t *testing.T) {
	src := New(4)
	for i := 0; i < 100; i++ {
		if g := src.Geometric(1e-300); g > maxGeometric {
			t.Fatalf("Geometric(1e-300) = %d exceeds cap", g)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	src := New(6)
	if got := src.Binomial(0, 0.5); got != 0 {
		t.Fatalf("Binomial(0, .5) = %d", got)
	}
	if got := src.Binomial(10, 0); got != 0 {
		t.Fatalf("Binomial(10, 0) = %d", got)
	}
	if got := src.Binomial(10, 1); got != 10 {
		t.Fatalf("Binomial(10, 1) = %d", got)
	}
}

func TestBinomialMoments(t *testing.T) {
	src := New(77)
	cases := []struct {
		n int64
		p float64
	}{
		{12, 0.5},   // direct-summation path
		{1000, 0.1}, // BTRS path
		{1000, 0.9}, // complement path
	}
	for _, tc := range cases {
		const trials = 20000
		var sum, sum2 float64
		for i := 0; i < trials; i++ {
			v := src.Binomial(tc.n, tc.p)
			if v < 0 || v > tc.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", tc.n, tc.p, v)
			}
			f := float64(v)
			sum += f
			sum2 += f * f
		}
		mean := sum / trials
		variance := sum2/trials - mean*mean
		wantMean := float64(tc.n) * tc.p
		wantVar := float64(tc.n) * tc.p * (1 - tc.p)
		if math.Abs(mean-wantMean) > 6*math.Sqrt(wantVar/trials) {
			t.Errorf("Binomial(%d,%v) mean = %.3f, want %.3f", tc.n, tc.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 0.1 {
			t.Errorf("Binomial(%d,%v) variance = %.3f, want %.3f", tc.n, tc.p, variance, wantVar)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	src := New(41)
	const trials = 200000
	var sum, sum2 float64
	for i := 0; i < trials; i++ {
		v := src.Normal()
		sum += v
		sum2 += v * v
	}
	mean := sum / trials
	variance := sum2/trials - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Normal mean = %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Normal variance = %.4f, want ~1", variance)
	}
}

// binomialPMF returns the Binomial(n, p) probabilities for k = 0..n via the
// standard ratio recurrence.
func binomialPMF(n int64, p float64) []float64 {
	pmf := make([]float64, n+1)
	// Start from the log of P[0] to stay in range for moderate n.
	logP := float64(n) * math.Log1p(-p)
	pmf[0] = math.Exp(logP)
	for k := int64(1); k <= n; k++ {
		pmf[k] = pmf[k-1] * float64(n-k+1) / float64(k) * p / (1 - p)
	}
	return pmf
}

// chiSquareGoF pools cells with small expectation and returns the
// chi-square statistic and degrees of freedom.
func chiSquareGoF(counts []int64, probs []float64, total int64) (float64, int) {
	var stat float64
	dof := -1
	var poolObs, poolExp float64
	for i, c := range counts {
		exp := probs[i] * float64(total)
		poolObs += float64(c)
		poolExp += exp
		if poolExp >= 5 {
			d := poolObs - poolExp
			stat += d * d / poolExp
			dof++
			poolObs, poolExp = 0, 0
		}
	}
	if poolExp > 0 {
		d := poolObs - poolExp
		stat += d * d / poolExp
		dof++
	}
	return stat, dof
}

func TestBinomialBTRSGoodnessOfFit(t *testing.T) {
	// n·p >= 10 exercises the BTRS transformed-rejection path; the
	// empirical distribution must match the exact pmf, including at the
	// small n the path now admits (n just above the direct-summation limit).
	src := New(91)
	cases := []struct {
		n int64
		p float64
	}{
		{100, 0.25},
		{500, 0.5},
		{10000, 0.002}, // n·p = 20, BTRS with a skewed pmf
		{20, 0.5},      // smallest-n corner of the BTRS regime
		{64, 0.25},     // formerly the direct-summation regime
	}
	for _, tc := range cases {
		const trials = 100000
		counts := make([]int64, tc.n+1)
		for i := 0; i < trials; i++ {
			v := src.Binomial(tc.n, tc.p)
			if v < 0 || v > tc.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", tc.n, tc.p, v)
			}
			counts[v]++
		}
		stat, dof := chiSquareGoF(counts, binomialPMF(tc.n, tc.p), trials)
		// Accept below mean + 5 std of the chi-square distribution
		// (dof + 5·√(2·dof)), a ~1e-6 false-failure rate per case.
		limit := float64(dof) + 5*math.Sqrt(2*float64(dof))
		if stat > limit {
			t.Errorf("Binomial(%d,%v) chi-square = %.1f exceeds %.1f (dof %d)",
				tc.n, tc.p, stat, limit, dof)
		}
	}
}

func TestNegativeBinomialMoments(t *testing.T) {
	src := New(53)
	cases := []struct {
		m int64
		p float64
	}{
		{10, 0.3},   // CDF-inversion path (mean failures 23 <= nbInvLimit)
		{200, 0.05}, // summed-geometric path (mean failures 3800 > nbInvLimit)
		{1000, 0.2}, // normal-approximation path
	}
	for _, tc := range cases {
		const trials = 20000
		var sum, sum2 float64
		for i := 0; i < trials; i++ {
			v := src.NegativeBinomial(tc.m, tc.p)
			if v < tc.m {
				t.Fatalf("NegativeBinomial(%d,%v) = %d < m", tc.m, tc.p, v)
			}
			f := float64(v)
			sum += f
			sum2 += f * f
		}
		mean := sum / trials
		variance := sum2/trials - mean*mean
		wantMean := float64(tc.m) / tc.p
		wantVar := float64(tc.m) * (1 - tc.p) / (tc.p * tc.p)
		if math.Abs(mean-wantMean) > 6*math.Sqrt(wantVar/trials) {
			t.Errorf("NegativeBinomial(%d,%v) mean = %.1f, want %.1f", tc.m, tc.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 0.1 {
			t.Errorf("NegativeBinomial(%d,%v) variance = %.1f, want %.1f", tc.m, tc.p, variance, wantVar)
		}
	}
}

func TestNegativeBinomialEdges(t *testing.T) {
	src := New(8)
	if got := src.NegativeBinomial(0, 0.5); got != 0 {
		t.Fatalf("NegativeBinomial(0, .5) = %d, want 0", got)
	}
	for i := 0; i < 10; i++ {
		if got := src.NegativeBinomial(7, 1); got != 7 {
			t.Fatalf("NegativeBinomial(7, 1) = %d, want 7", got)
		}
	}
}

func TestNegativeBinomialClampNeverNegative(t *testing.T) {
	// Tiny p with large m drives the normal-approximation mean past both
	// 2^56·m and MaxInt64; the clamp must saturate, never wrap negative.
	src := New(12)
	for _, tc := range []struct {
		m int64
		p float64
	}{
		{1000, 1e-16}, // mean 1e19 > MaxInt64; 2^56·m overflows int64
		{300, 1e-300}, // astronomically past every bound
		{500, 1e-14},  // mean 5e16 within range, cap overflows
	} {
		for i := 0; i < 50; i++ {
			got := src.NegativeBinomial(tc.m, tc.p)
			if got < tc.m {
				t.Fatalf("NegativeBinomial(%d, %g) = %d < m (overflowed clamp?)",
					tc.m, tc.p, got)
			}
		}
	}
}

func TestNegativeBinomialExactPathSaturates(t *testing.T) {
	// The exact path (m <= 256) sums Geometric draws that individually cap
	// at 2^56; with p small enough that most draws hit the cap, the running
	// sum crosses MaxInt64 and must saturate there instead of wrapping.
	src := New(3)
	for i := 0; i < 20; i++ {
		got := src.NegativeBinomial(256, 1e-18)
		if got < 256 {
			t.Fatalf("NegativeBinomial(256, 1e-18) = %d, wrapped negative or below m", got)
		}
	}
	// With p this extreme every draw caps, so the sum deterministically
	// saturates regardless of the stream.
	if got := src.NegativeBinomial(256, 1e-300); got != math.MaxInt64 {
		t.Fatalf("NegativeBinomial(256, 1e-300) = %d, want MaxInt64 saturation", got)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		fresh := New(seed)
		reused := New(seed ^ 0xdeadbeef)
		reused.Uint64() // desynchronize before reseeding
		reused.Reseed(seed)
		for i := 0; i < 100; i++ {
			if a, b := fresh.Uint64(), reused.Uint64(); a != b {
				t.Fatalf("seed %d output %d: Reseed diverged from New (%d vs %d)", seed, i, a, b)
			}
		}
	}
}

// xoshiro256 is the unbuffered xoshiro256** step: it returns the next
// output of state s and advances s.
func xoshiro256(s *[4]uint64) uint64 {
	out := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return out
}

// TestBufferedMatchesUnbuffered checks that the buffered Source serves
// exactly the unbuffered xoshiro256** sequence across every block length
// (firstBlock, 2·firstBlock, …, bufLen) and past it: from a reseed, after
// reseeding a Source midway through a block, and from a struct literal.
func TestBufferedMatchesUnbuffered(t *testing.T) {
	const outputs = 1000
	check := func(t *testing.T, src *Source, state [4]uint64) {
		t.Helper()
		for i := 0; i < outputs; i++ {
			if got, want := src.Uint64(), xoshiro256(&state); got != want {
				t.Fatalf("output %d = %#x, want %#x", i, got, want)
			}
		}
	}
	seeded := func(seed uint64) [4]uint64 {
		var s [4]uint64
		for i := range s {
			s[i] = SplitMix64(&seed)
		}
		return s
	}
	for _, seed := range []uint64{0, 1, 42, 0x9E3779B97F4A7C15, 1 << 63} {
		t.Run(fmt.Sprintf("reseed-%#x", seed), func(t *testing.T) {
			check(t, New(seed), seeded(seed))
			// Reseed part-way through blocks of every length.
			var src Source
			for _, used := range []int{0, 1, 7, 8, 9, 23, 24, 100, 300} {
				src.Reseed(seed ^ 0xdeadbeef)
				for range used {
					src.Uint64()
				}
				src.Reseed(seed)
				check(t, &src, seeded(seed))
			}
		})
		t.Run(fmt.Sprintf("literal-%#x", seed), func(t *testing.T) {
			state := seeded(seed)
			check(t, &Source{s: state, pos: bufLen}, state)
		})
	}
}

func TestMultinomialGoodnessOfFit(t *testing.T) {
	// Pooled totals over many draws are Multinomial(trials·m, p), so a
	// chi-square of the totals against the weight proportions checks the
	// chained-binomial marginals.
	src := New(67)
	weights := []float64{5, 0, 1, 3, 0.5}
	const m, trials = 40, 20000
	totals := make([]int64, len(weights))
	var buf []int64
	for i := 0; i < trials; i++ {
		buf = src.Multinomial(m, weights, buf)
		var rowSum int64
		for j, c := range buf {
			if c < 0 {
				t.Fatalf("negative count %d in category %d", c, j)
			}
			if weights[j] == 0 && c != 0 {
				t.Fatalf("zero-weight category %d received %d trials", j, c)
			}
			totals[j] += c
			rowSum += c
		}
		if rowSum != m {
			t.Fatalf("counts sum to %d, want %d", rowSum, m)
		}
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	var stat float64
	dof := 0
	for j, w := range weights {
		if w == 0 {
			continue
		}
		exp := float64(trials) * m * w / wsum
		d := float64(totals[j]) - exp
		stat += d * d / exp
		dof++
	}
	dof--
	limit := float64(dof) + 5*math.Sqrt(2*float64(dof))
	if stat > limit {
		t.Errorf("Multinomial totals chi-square = %.1f exceeds %.1f (dof %d)", stat, limit, dof)
	}
}

func TestMultinomialMarginalVariance(t *testing.T) {
	// Each marginal count is Binomial(m, w_i/Σw); check mean and variance
	// of a middle category (the one most affected by chaining drift).
	src := New(29)
	weights := []float64{2, 3, 5}
	const m, trials = 100, 30000
	p := weights[1] / 10.0
	var sum, sum2 float64
	var buf []int64
	for i := 0; i < trials; i++ {
		buf = src.Multinomial(m, weights, buf)
		f := float64(buf[1])
		sum += f
		sum2 += f * f
	}
	mean := sum / trials
	variance := sum2/trials - mean*mean
	wantMean := float64(m) * p
	wantVar := float64(m) * p * (1 - p)
	if math.Abs(mean-wantMean) > 6*math.Sqrt(wantVar/trials) {
		t.Errorf("marginal mean = %.3f, want %.3f", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.1 {
		t.Errorf("marginal variance = %.3f, want %.3f", variance, wantVar)
	}
}

func TestMultinomialEdges(t *testing.T) {
	src := New(3)
	// m = 0: all-zero counts, even with zero weights present.
	out := src.Multinomial(0, []float64{1, 0, 2}, nil)
	for i, c := range out {
		if c != 0 {
			t.Fatalf("m=0 category %d = %d, want 0", i, c)
		}
	}
	// k = 1: the single category takes every trial.
	if out := src.Multinomial(17, []float64{0.3}, nil); out[0] != 17 {
		t.Fatalf("k=1 count = %d, want 17", out[0])
	}
	// Empty weight vector with m = 0 is fine.
	if out := src.Multinomial(0, nil, nil); len(out) != 0 {
		t.Fatalf("empty weights returned %v", out)
	}
	// dst is reused when it has capacity.
	dst := make([]int64, 3)
	out = src.Multinomial(5, []float64{1, 1, 1}, dst)
	if &out[0] != &dst[0] {
		t.Fatal("Multinomial did not reuse dst")
	}
	// A single positive weight among zeros takes every trial.
	out = src.Multinomial(9, []float64{0, 4, 0}, out)
	if out[0] != 0 || out[1] != 9 || out[2] != 0 {
		t.Fatalf("counts %v, want [0 9 0]", out)
	}
}

func TestMultinomialPanics(t *testing.T) {
	src := New(1)
	cases := []struct {
		name string
		fn   func()
	}{
		{"negative m", func() { src.Multinomial(-1, []float64{1}, nil) }},
		{"negative weight", func() { src.Multinomial(1, []float64{1, -2}, nil) }},
		{"NaN weight", func() { src.Multinomial(1, []float64{math.NaN()}, nil) }},
		{"all-zero weights", func() { src.Multinomial(1, []float64{0, 0}, nil) }},
		{"NegativeBinomial m<0", func() { src.NegativeBinomial(-1, 0.5) }},
		{"NegativeBinomial p=0", func() { src.NegativeBinomial(1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestPanics(t *testing.T) {
	src := New(0)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Uint64n(0)", func() { src.Uint64n(0) }},
		{"Int63n(0)", func() { src.Int63n(0) }},
		{"Int63n(-1)", func() { src.Int63n(-1) }},
		{"Intn(0)", func() { src.Intn(0) }},
		{"Geometric(0)", func() { src.Geometric(0) }},
		{"Binomial(-1)", func() { src.Binomial(-1, 0.5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func BenchmarkUint64(b *testing.B) {
	src := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += src.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	src := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += src.Uint64n(1000003)
	}
	_ = sink
}

func BenchmarkGeometric(b *testing.B) {
	src := New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += src.Geometric(0.3)
	}
	_ = sink
}
