// Package u128 provides an unsigned 128-bit integer with saturating
// arithmetic, sized for the simulator's interaction-clock and pair-count
// quantities.
//
// The k-opinion USD draws ordered agent pairs, so a population of n agents
// has n² pair states and consensus takes Θ(n²·log n/x₁) interactions. With
// conf.MaxN = 10¹¹ both quantities reach ~10²² ≈ 2⁷⁴ — far past int64 —
// while 2¹²⁸ ≈ 3.4·10³⁸ leaves over fifty bits of headroom above the
// longest representable run. Every quantity measured in interactions or in
// ordered pairs (the clock, budgets, geometric jumps, negative-binomial
// window spans, the productive weight W, r₂ = Σxᵢ², and the Fenwick Σx²
// prefix sums) is a U128.
//
// Arithmetic saturates instead of wrapping: Add clamps at Max, Sub clamps
// at zero, exactly as the int64 clock's satAdd did before the migration —
// except that with 128 bits the clamp is unreachable for any simulation the
// population bound admits, so saturation is a defense-in-depth invariant
// rather than a behavior runs actually exercise. Float64 and FromFloat64
// are the audited precision boundary between the integer clock and the
// float64 probability layer: Float64 is correctly rounded (round-to-odd
// reduction to 64 bits, then the hardware's correctly rounded conversion),
// and FromFloat64 is exact for every non-negative float64 below 2¹²⁸.
package u128

import (
	"math"
	"math/bits"
	"strconv"
)

// U128 is an unsigned 128-bit integer: Hi·2⁶⁴ + Lo. The zero value is 0.
// Hi and Lo are exported so wire formats (dist checkpoints, shard results)
// can serialize the exact value as two uint64 fields.
type U128 struct {
	// Hi is the high 64 bits.
	Hi uint64
	// Lo is the low 64 bits.
	Lo uint64
}

// Max is the largest representable value, 2¹²⁸ − 1: the saturation point of
// Add.
var Max = U128{Hi: math.MaxUint64, Lo: math.MaxUint64}

// From64 converts a non-negative int64. Negative values clamp to zero,
// matching the "budget <= 0 means unlimited" convention of the run APIs
// (zero is the unlimited budget).
func From64(v int64) U128 {
	if v <= 0 {
		return U128{}
	}
	return U128{Lo: uint64(v)}
}

// FromU64 converts a uint64.
func FromU64(v uint64) U128 {
	return U128{Lo: v}
}

// Mul64 returns the full 128-bit product a·b of two uint64 values. It is
// exact — a 64×64-bit product always fits in 128 bits.
func Mul64(a, b uint64) U128 {
	hi, lo := bits.Mul64(a, b)
	return U128{Hi: hi, Lo: lo}
}

// Add returns x+y, saturating at Max.
func (x U128) Add(y U128) U128 {
	lo, c := bits.Add64(x.Lo, y.Lo, 0)
	hi, c := bits.Add64(x.Hi, y.Hi, c)
	if c != 0 {
		return Max
	}
	return U128{Hi: hi, Lo: lo}
}

// Sub returns x−y, saturating at zero.
func (x U128) Sub(y U128) U128 {
	lo, b := bits.Sub64(x.Lo, y.Lo, 0)
	hi, b := bits.Sub64(x.Hi, y.Hi, b)
	if b != 0 {
		return U128{}
	}
	return U128{Hi: hi, Lo: lo}
}

// Less reports x < y.
func (x U128) Less(y U128) bool {
	return x.Hi < y.Hi || (x.Hi == y.Hi && x.Lo < y.Lo)
}

// Leq reports x <= y.
func (x U128) Leq(y U128) bool {
	return !y.Less(x)
}

// IsZero reports x == 0.
func (x U128) IsZero() bool { return x.Hi == 0 && x.Lo == 0 }

// Lsh returns x << k for 0 <= k < 128. Bits shifted past the top are lost.
func (x U128) Lsh(k uint) U128 {
	switch {
	case k == 0:
		return x
	case k < 64:
		return U128{Hi: x.Hi<<k | x.Lo>>(64-k), Lo: x.Lo << k}
	case k < 128:
		return U128{Hi: x.Lo << (k - 64)}
	default:
		return U128{}
	}
}

// Rsh returns x >> k for 0 <= k < 128.
func (x U128) Rsh(k uint) U128 {
	switch {
	case k == 0:
		return x
	case k < 64:
		return U128{Hi: x.Hi >> k, Lo: x.Lo>>k | x.Hi<<(64-k)}
	case k < 128:
		return U128{Lo: x.Hi >> (k - 64)}
	default:
		return U128{}
	}
}

// Len returns the minimum number of bits required to represent x; Len of
// zero is 0.
func (x U128) Len() int {
	if x.Hi != 0 {
		return 64 + bits.Len64(x.Hi)
	}
	return bits.Len64(x.Lo)
}

// Div64 returns the quotient x/v. v must be nonzero.
func (x U128) Div64(v uint64) U128 {
	q, _ := x.DivMod64(v)
	return q
}

// DivMod64 returns the quotient and remainder of x/v. v must be nonzero.
func (x U128) DivMod64(v uint64) (U128, uint64) {
	if v == 0 {
		panic("u128: division by zero")
	}
	qhi := x.Hi / v
	rem := x.Hi % v
	qlo, r := bits.Div64(rem, x.Lo, v)
	return U128{Hi: qhi, Lo: qlo}, r
}

// Float64 returns the correctly rounded (round-to-nearest-even) float64
// value of x. Values with at most 64 bits use the hardware's correctly
// rounded uint64 conversion directly; wider values are first reduced to a
// 64-bit integer by a round-to-odd shift (the dropped bits' OR is jammed
// into the lowest kept bit) and then converted. Because the reduction keeps
// 64 >= 53+2 significant bits, the round-to-odd intermediate makes the
// final conversion exact — no double-rounding error. This is the audited
// precision path the simulator's probability layer (W/n², geometric and
// negative-binomial parameters) relies on: every probability it computes
// from U128 counts is within one rounding of the true real value.
func (x U128) Float64() float64 {
	if x.Hi == 0 {
		return float64(x.Lo)
	}
	k := uint(bits.Len64(x.Hi)) // 1..64 low bits are dropped
	z := x.Hi<<(64-k) | x.Lo>>k
	if x.Lo<<(64-k) != 0 {
		z |= 1 // sticky: round the dropped bits to odd
	}
	return math.Ldexp(float64(z), int(k))
}

// FromFloat64 converts a float64 to a U128, saturating: NaN and values
// >= 2¹²⁸ map to Max, values <= 0 map to zero, and everything in between is
// truncated toward zero. The conversion is exact for every float64 in
// [0, 2¹²⁸): a float64's 53-bit significand splits losslessly across the
// two words. Clock spans sampled in float64 (geometric jumps, large
// negative-binomial spans) enter the integer clock through this function.
func FromFloat64(f float64) U128 {
	if math.IsNaN(f) || f >= 0x1p128 {
		return Max
	}
	if f <= 0 {
		return U128{}
	}
	if f < 0x1p64 {
		return U128{Lo: uint64(f)}
	}
	// f in [2⁶⁴, 2¹²⁸): both the scaled division and the remainder are
	// exact — f/2⁶⁴ is a power-of-two rescale, its truncation has at most
	// 53 significant bits, and the remainder is a multiple of f's ulp
	// below 2⁶⁴.
	hi := uint64(f / 0x1p64)
	lo := uint64(f - float64(hi)*0x1p64)
	return U128{Hi: hi, Lo: lo}
}

// String returns the decimal representation of x.
func (x U128) String() string {
	if x.Hi == 0 {
		return strconv.FormatUint(x.Lo, 10)
	}
	// Peel 19 decimal digits at a time (10¹⁹ is the largest power of ten
	// in a uint64); at most three chunks cover 2¹²⁸.
	const chunk = uint64(1e19)
	q, r := x.DivMod64(chunk)
	if q.Hi == 0 {
		return strconv.FormatUint(q.Lo, 10) + pad19(r)
	}
	q2, r2 := q.DivMod64(chunk)
	return strconv.FormatUint(q2.Lo, 10) + pad19(r2) + pad19(r)
}

// pad19 formats v as exactly 19 digits with leading zeros.
func pad19(v uint64) string {
	s := strconv.FormatUint(v, 10)
	const zeros = "0000000000000000000"
	return zeros[:19-len(s)] + s
}
