package u128

import (
	"math"
	"math/big"
	"testing"
)

// toBig returns x as a math/big integer.
func toBig(x U128) *big.Int {
	b := new(big.Int).SetUint64(x.Hi)
	b.Lsh(b, 64)
	return b.Or(b, new(big.Int).SetUint64(x.Lo))
}

// fromBig converts a big integer in [0, 2¹²⁸) to a U128.
func fromBig(t *testing.T, b *big.Int) U128 {
	t.Helper()
	if b.Sign() < 0 || b.BitLen() > 128 {
		t.Fatalf("fromBig: %v out of range", b)
	}
	lo := new(big.Int).And(b, new(big.Int).SetUint64(math.MaxUint64))
	hi := new(big.Int).Rsh(b, 64)
	return U128{Hi: hi.Uint64(), Lo: lo.Uint64()}
}

var maxBig = toBig(Max)

// interesting 128-bit boundary values: zero, small, the int64 and uint64
// edges, lo-word carry neighborhoods, hi-word saturation neighborhoods, and
// the new MaxN² scale.
var corner = []U128{
	{},
	{Lo: 1},
	{Lo: 2},
	{Lo: math.MaxInt64},
	{Lo: math.MaxInt64 + 1},
	{Lo: math.MaxUint64 - 1},
	{Lo: math.MaxUint64},
	{Hi: 1},
	{Hi: 1, Lo: 1},
	{Hi: 1, Lo: math.MaxUint64},
	{Hi: 542, Lo: 1864712049423024128}, // 10²² = MaxN² at MaxN = 10¹¹
	{Hi: math.MaxUint64 >> 1},
	{Hi: math.MaxUint64, Lo: 0},
	{Hi: math.MaxUint64, Lo: math.MaxUint64 - 1},
	Max,
}

func TestAddSubMulAgainstBig(t *testing.T) {
	for _, a := range corner {
		for _, b := range corner {
			wantAdd := new(big.Int).Add(toBig(a), toBig(b))
			if wantAdd.Cmp(maxBig) > 0 {
				wantAdd.Set(maxBig)
			}
			if got := toBig(a.Add(b)); got.Cmp(wantAdd) != 0 {
				t.Fatalf("%v.Add(%v) = %v, want %v", a, b, got, wantAdd)
			}
			wantSub := new(big.Int).Sub(toBig(a), toBig(b))
			if wantSub.Sign() < 0 {
				wantSub.SetInt64(0)
			}
			if got := toBig(a.Sub(b)); got.Cmp(wantSub) != 0 {
				t.Fatalf("%v.Sub(%v) = %v, want %v", a, b, got, wantSub)
			}
			wantMul := new(big.Int).Mul(new(big.Int).SetUint64(a.Lo), new(big.Int).SetUint64(b.Lo))
			if got := toBig(Mul64(a.Lo, b.Lo)); got.Cmp(wantMul) != 0 {
				t.Fatalf("Mul64(%d, %d) = %v, want %v", a.Lo, b.Lo, got, wantMul)
			}
			if got, want := a.Less(b), toBig(a).Cmp(toBig(b)) < 0; got != want {
				t.Fatalf("%v.Less(%v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestMul64(t *testing.T) {
	vals := []uint64{0, 1, 3, math.MaxInt64, math.MaxUint64, 100_000_000_000}
	for _, a := range vals {
		for _, b := range vals {
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			if got := toBig(Mul64(a, b)); got.Cmp(want) != 0 {
				t.Fatalf("Mul64(%d, %d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestDivMod64(t *testing.T) {
	divisors := []uint64{1, 2, 3, 1e19, math.MaxUint64, 100_000_000_000}
	for _, x := range corner {
		for _, v := range divisors {
			q, r := x.DivMod64(v)
			bq, br := new(big.Int).QuoRem(toBig(x), new(big.Int).SetUint64(v), new(big.Int))
			if toBig(q).Cmp(bq) != 0 || r != br.Uint64() {
				t.Fatalf("%v.DivMod64(%d) = (%v, %d), want (%v, %v)", x, v, q, r, bq, br)
			}
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div64 by zero did not panic")
		}
	}()
	U128{Lo: 1}.Div64(0)
}

func TestFloat64CorrectlyRounded(t *testing.T) {
	for _, x := range corner {
		got := x.Float64()
		want, _ := new(big.Float).SetInt(toBig(x)).Float64()
		if got != want {
			t.Fatalf("%v.Float64() = %g, want %g", x, got, want)
		}
	}
	// Round-to-odd corner: a value exactly halfway between two float64s,
	// plus a sticky bit far below, must round up — a naive truncating
	// reduction would round to even instead.
	x := U128{Hi: 1, Lo: 1<<11 | 1} // 2⁶⁴ + 2¹¹ + 1: halfway + sticky
	got := x.Float64()
	want, _ := new(big.Float).SetInt(toBig(x)).Float64()
	if got != want {
		t.Fatalf("sticky rounding: got %g, want %g", got, want)
	}
}

func TestFromFloat64(t *testing.T) {
	cases := []struct {
		f    float64
		want U128
	}{
		{0, U128{}},
		{-1, U128{}},
		{math.Inf(-1), U128{}},
		{0.99, U128{}},
		{1, U128{Lo: 1}},
		{1e19, U128{Lo: 1e19}},
		{0x1p64, U128{Hi: 1}},
		{0x1.8p64, U128{Hi: 1, Lo: 1 << 63}},
		{1e22, U128{Hi: 542, Lo: 1864712049423024128}},
		{0x1p128, Max},
		{math.Inf(1), Max},
		{math.NaN(), Max},
		{math.MaxFloat64, Max},
	}
	for _, tc := range cases {
		if got := FromFloat64(tc.f); got != tc.want {
			t.Fatalf("FromFloat64(%g) = %v, want %v", tc.f, got, tc.want)
		}
	}
	// Exactness: every representable float64 in [0, 2¹²⁸) converts to its
	// exact truncation.
	for _, f := range []float64{3.7, 1e15 + 0.5, 0x1.fffffffffffffp63, 0x1.123456789abcdp100} {
		want, _ := new(big.Float).SetFloat64(f).Int(nil)
		if got := FromFloat64(f); toBig(got).Cmp(want) != 0 {
			t.Fatalf("FromFloat64(%g) = %v, want %v", f, got, want)
		}
	}
}

func TestRoundTripFloat(t *testing.T) {
	// FromFloat64 ∘ Float64 is the identity on values with <= 53
	// significant bits, including across the 64-bit word boundary.
	for _, x := range []U128{{Lo: 12345}, {Hi: 3}, {Hi: 1 << 40}, {Hi: 542, Lo: 1864712049423024128}} {
		if got := FromFloat64(x.Float64()); got != x {
			t.Fatalf("round trip %v -> %g -> %v", x, x.Float64(), got)
		}
	}
}

func TestShifts(t *testing.T) {
	for _, x := range corner {
		for _, k := range []uint{0, 1, 11, 63, 64, 65, 127} {
			wantL := new(big.Int).Lsh(toBig(x), k)
			wantL.And(wantL, maxBig)
			if got := toBig(x.Lsh(k)); got.Cmp(wantL) != 0 {
				t.Fatalf("%v.Lsh(%d) = %v, want %v", x, k, got, wantL)
			}
			wantR := new(big.Int).Rsh(toBig(x), k)
			if got := toBig(x.Rsh(k)); got.Cmp(wantR) != 0 {
				t.Fatalf("%v.Rsh(%d) = %v, want %v", x, k, got, wantR)
			}
		}
	}
}

func TestLen(t *testing.T) {
	for _, x := range corner {
		if got, want := x.Len(), toBig(x).BitLen(); got != want {
			t.Fatalf("%v.Len() = %d, want %d", x, got, want)
		}
	}
}

func TestString(t *testing.T) {
	for _, x := range corner {
		if got, want := x.String(), toBig(x).String(); got != want {
			t.Fatalf("%v.String() = %q, want %q", toBig(x), got, want)
		}
	}
}

func TestFrom64(t *testing.T) {
	if got := From64(-7); !got.IsZero() {
		t.Fatalf("From64(-7) = %v, want 0", got)
	}
	if got := From64(math.MaxInt64); got != (U128{Lo: math.MaxInt64}) {
		t.Fatalf("From64(MaxInt64) = %v", got)
	}
	if got := FromU64(math.MaxUint64); got != (U128{Lo: math.MaxUint64}) {
		t.Fatalf("FromU64(MaxUint64) = %v", got)
	}
}
