package rng

import (
	"math"
	"testing"

	"repro/internal/u128"
)

// TestUint128nSmallMatchesUint64n pins the stream-compatibility contract:
// for n that fits 64 bits, Uint128n consumes and produces exactly what
// Uint64n would, so pre-u128 trajectories replay bit-identically.
func TestUint128nSmallMatchesUint64n(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		n := a.Uint64n(1e18) + 1
		_ = b.Uint64n(1e18)
		got := a.Uint128n(u128.FromU64(n))
		want := u128.FromU64(b.Uint64n(n))
		if got != want {
			t.Fatalf("draw %d: Uint128n(%d) = %v, want %v", i, n, got, want)
		}
	}
}

// TestUint128nWideBounds checks the rejection path: draws land in [0, n),
// reach both 64-bit halves, and have roughly the uniform mean.
func TestUint128nWideBounds(t *testing.T) {
	src := New(7)
	n := u128.U128{Hi: 542, Lo: 1864712049423024128} // 10²² = MaxN²
	const draws = 20000
	var sum u128.U128
	var sawHighHalf bool
	for i := 0; i < draws; i++ {
		v := src.Uint128n(n)
		if !v.Less(n) {
			t.Fatalf("draw %d: %v >= n = %v", i, v, n)
		}
		if v.Hi >= n.Hi/2 {
			sawHighHalf = true
		}
		sum = sum.Add(v)
	}
	if !sawHighHalf {
		t.Fatal("no draw reached the top half of [0, n)")
	}
	mean := sum.Div64(draws).Float64()
	want := n.Float64() / 2
	if math.Abs(mean-want) > 0.02*want {
		t.Fatalf("mean %g, want ~%g", mean, want)
	}
}

func TestUint128nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint128n(0) did not panic")
		}
	}()
	New(1).Uint128n(u128.U128{})
}

// TestGeometricU128MatchesInt64 pins stream interchangeability below the old
// cap: both samplers consume one uniform and agree exactly while the int64
// sample is uncapped.
func TestGeometricU128MatchesInt64(t *testing.T) {
	a, b := New(11), New(11)
	for _, p := range []float64{0.9, 0.5, 1e-3, 1e-9} {
		for i := 0; i < 200; i++ {
			got := a.GeometricU128(p)
			want := b.Geometric(p)
			if want < maxGeometric && got != u128.From64(want) {
				t.Fatalf("p=%g draw %d: GeometricU128 = %v, Geometric = %d", p, i, got, want)
			}
		}
	}
	if got := New(1).GeometricU128(1); got != (u128.U128{Lo: 1}) {
		t.Fatalf("GeometricU128(1) = %v, want 1", got)
	}
}

// TestGeometricU128BeyondOldCap exercises the regime the migration exists
// for: at p = 10⁻²² (one productive pair among MaxN² = 10²²) samples
// routinely exceed the old 2⁵⁶ cap, and their empirical mean tracks 1/p.
func TestGeometricU128BeyondOldCap(t *testing.T) {
	src := New(3)
	const p = 1e-22
	oldCap := u128.From64(maxGeometric)
	var sum u128.U128
	var beyond int
	const draws = 2000
	for i := 0; i < draws; i++ {
		g := src.GeometricU128(p)
		if g.IsZero() || g == u128.Max {
			t.Fatalf("draw %d: degenerate sample %v", i, g)
		}
		if oldCap.Less(g) {
			beyond++
		}
		sum = sum.Add(g)
	}
	// P(G <= 2⁵⁶) ≈ 2⁵⁶·10⁻²² ≈ 7·10⁻⁶ per draw, so effectively every
	// draw lands beyond the old cap.
	if beyond < draws-1 {
		t.Fatalf("only %d/%d draws exceeded the old 2⁵⁶ cap", beyond, draws)
	}
	mean := sum.Div64(draws).Float64()
	if mean < 0.9e22 || mean > 1.1e22 {
		t.Fatalf("empirical mean %g, want ~1e22", mean)
	}
}

// TestNegativeBinomialU128MatchesInt64 pins stream interchangeability on
// all three method branches while the int64 result is unclamped.
func TestNegativeBinomialU128MatchesInt64(t *testing.T) {
	cases := []struct {
		m int64
		p float64
	}{
		{1, 0.5},
		{100, 0.9},  // inversion: mean failures ≈ 11
		{100, 0.01}, // summed geometrics: mean failures ≈ 9900
		{5000, 0.7}, // normal approximation
		{5000, 1.0}, // p >= 1 fast path
	}
	for _, tc := range cases {
		a, b := New(99), New(99)
		for i := 0; i < 100; i++ {
			got := a.NegativeBinomialU128(tc.m, tc.p)
			want := b.NegativeBinomial(tc.m, tc.p)
			if want < math.MaxInt64 && got != u128.From64(want) {
				t.Fatalf("m=%d p=%g draw %d: U128 = %v, int64 = %d", tc.m, tc.p, i, got, want)
			}
		}
	}
}

// TestNegativeBinomialU128LargeSpan checks the window-span regime at the new
// scale: m successes at p ≈ m/10²² must land near 10²² without saturating.
func TestNegativeBinomialU128LargeSpan(t *testing.T) {
	src := New(5)
	const m = 64
	p := float64(m) / 1e22
	var sum u128.U128
	const draws = 500
	for i := 0; i < draws; i++ {
		v := src.NegativeBinomialU128(m, p)
		if v == u128.Max {
			t.Fatalf("draw %d saturated", i)
		}
		if v.Less(u128.From64(m)) {
			t.Fatalf("draw %d: %v < m", i, v)
		}
		sum = sum.Add(v)
	}
	mean := sum.Div64(draws).Float64()
	want := float64(m) / p
	if math.Abs(mean-want) > 0.1*want {
		t.Fatalf("empirical mean %g, want ~%g", mean, want)
	}
}

func TestNegativeBinomialU128Degenerate(t *testing.T) {
	if got := New(1).NegativeBinomialU128(0, 0.5); !got.IsZero() {
		t.Fatalf("m=0: got %v, want 0", got)
	}
	for _, fn := range []func(){
		func() { New(1).NegativeBinomialU128(-1, 0.5) },
		func() { New(1).NegativeBinomialU128(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
