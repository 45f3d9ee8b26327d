// Package jsonint parses integers in the one spelling json.Marshal writes
// for Go integer types: decimal digits without a leading zero, after a
// minus sign for a negative signed value, never -0. The trial result
// payload parser (internal/experiment) accepts exactly this spelling, so
// every payload it accepts re-encodes to the same bytes.
package jsonint

import "math"

// CutInt parses an int off the front of b and returns it with the rest of
// b. It reports false when b does not start with one or it overflows.
func CutInt(b []byte) (int, []byte, bool) {
	neg := len(b) > 0 && b[0] == '-'
	limit := uint64(math.MaxInt)
	if neg {
		b, limit = b[1:], limit+1
	}
	u, rest, ok := cutDigits(b, limit)
	if !ok || neg && u == 0 {
		return 0, nil, false
	}
	// Negating in int wraps the magnitude 2^63 to math.MinInt.
	v := int(u)
	if neg {
		v = -v
	}
	return v, rest, true
}

// CutUint64 parses a uint64 off the front of b and returns it with the
// rest of b. It reports false when b does not start with one or it
// overflows.
func CutUint64(b []byte) (uint64, []byte, bool) {
	return cutDigits(b, math.MaxUint64)
}

// cutDigits parses decimal digits without a leading zero off the front of
// b as a value no greater than limit.
func cutDigits(b []byte, limit uint64) (uint64, []byte, bool) {
	var u uint64
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if u > (limit-d)/10 {
			return 0, nil, false
		}
		u = u*10 + d
	}
	if i == 0 || b[0] == '0' && i > 1 {
		return 0, nil, false
	}
	return u, b[i:], true
}
