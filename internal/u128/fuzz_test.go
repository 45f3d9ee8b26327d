package u128

import (
	"math"
	"math/big"
	"testing"
)

// FuzzU128 cross-checks every arithmetic operation against math/big on
// arbitrary word pairs: saturating add/sub, exact Mul64 and DivMod64,
// ordering, shifts, decimal formatting, and the two float64 conversions
// (correct rounding out, exact truncation in). It is the coverage-guided
// arm of the corner-case tables in u128_test.go and runs in the CI
// fuzz-smoke job.
func FuzzU128(f *testing.F) {
	seeds := []struct{ ahi, alo, bhi, blo uint64 }{
		{0, 0, 0, 0},
		{0, 1, 0, math.MaxUint64},
		{0, math.MaxUint64, 0, 1},                   // lo-word carry
		{math.MaxUint64, math.MaxUint64, 0, 1},      // hi-word saturation
		{542, 1864712049423024128, 0, 1e19},         // 10²² = MaxN²
		{math.MaxUint64 >> 1, 0, math.MaxUint64, 0}, // hi-word compare
		{1, 0, 0, math.MaxUint64},
	}
	for _, s := range seeds {
		f.Add(s.ahi, s.alo, s.bhi, s.blo)
	}
	maxB := toBigF(Max)
	f.Fuzz(func(t *testing.T, ahi, alo, bhi, blo uint64) {
		a := U128{Hi: ahi, Lo: alo}
		b := U128{Hi: bhi, Lo: blo}
		ab, bb := toBigF(a), toBigF(b)

		wantAdd := new(big.Int).Add(ab, bb)
		if wantAdd.Cmp(maxB) > 0 {
			wantAdd.Set(maxB)
		}
		if got := toBigF(a.Add(b)); got.Cmp(wantAdd) != 0 {
			t.Fatalf("%v.Add(%v) = %v, want %v", a, b, got, wantAdd)
		}
		wantSub := new(big.Int).Sub(ab, bb)
		if wantSub.Sign() < 0 {
			wantSub.SetInt64(0)
		}
		if got := toBigF(a.Sub(b)); got.Cmp(wantSub) != 0 {
			t.Fatalf("%v.Sub(%v) = %v, want %v", a, b, got, wantSub)
		}
		if got := toBigF(Mul64(alo, blo)); got.Cmp(new(big.Int).Mul(new(big.Int).SetUint64(alo), new(big.Int).SetUint64(blo))) != 0 {
			t.Fatalf("Mul64(%d, %d) = %v", alo, blo, got)
		}
		if got, want := a.Less(b), ab.Cmp(bb) < 0; got != want {
			t.Fatalf("%v.Less(%v) = %v, want %v", a, b, got, want)
		}
		if blo != 0 {
			q, r := a.DivMod64(blo)
			bq, br := new(big.Int).QuoRem(ab, new(big.Int).SetUint64(blo), new(big.Int))
			if toBigF(q).Cmp(bq) != 0 || r != br.Uint64() {
				t.Fatalf("%v.DivMod64(%d) = (%v, %d), want (%v, %v)", a, blo, q, r, bq, br)
			}
		}
		k := uint(bhi % 128)
		wantL := new(big.Int).Lsh(ab, k)
		wantL.And(wantL, maxB)
		if got := toBigF(a.Lsh(k)); got.Cmp(wantL) != 0 {
			t.Fatalf("%v.Lsh(%d) = %v, want %v", a, k, got, wantL)
		}
		if got, want := toBigF(a.Rsh(k)), new(big.Int).Rsh(ab, k); got.Cmp(want) != 0 {
			t.Fatalf("%v.Rsh(%d) = %v, want %v", a, k, got, want)
		}
		if got, want := a.Len(), ab.BitLen(); got != want {
			t.Fatalf("%v.Len() = %d, want %d", a, got, want)
		}
		if got, want := a.String(), ab.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		gotF := a.Float64()
		wantF, _ := new(big.Float).SetInt(ab).Float64()
		if gotF != wantF {
			t.Fatalf("%v.Float64() = %g, want %g (correct rounding)", a, gotF, wantF)
		}
		// FromFloat64 must truncate exactly for every in-range float.
		if !math.IsInf(gotF, 1) {
			want, _ := new(big.Float).SetFloat64(gotF).Int(nil)
			if want.Cmp(maxB) > 0 {
				want.Set(maxB)
			}
			if got := toBigF(FromFloat64(gotF)); got.Cmp(want) != 0 {
				t.Fatalf("FromFloat64(%g) = %v, want %v", gotF, got, want)
			}
		}
	})
}

// toBigF is toBig without the testing.T plumbing, shared with the fuzz
// target.
func toBigF(x U128) *big.Int {
	b := new(big.Int).SetUint64(x.Hi)
	b.Lsh(b, 64)
	return b.Or(b, new(big.Int).SetUint64(x.Lo))
}
