package jsonint

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// TestCutAgreesWithMarshal pins both parsers at the boundaries of their
// types: every value json.Marshal writes parses back, with the rest of the
// input intact, and every other spelling of a number is refused.
func TestCutAgreesWithMarshal(t *testing.T) {
	for _, v := range []int{0, 1, -1, 9, 10, -10, math.MaxInt, math.MinInt, math.MaxInt - 1, math.MinInt + 1} {
		b, _ := json.Marshal(v)
		got, rest, ok := CutInt(append(b, ','))
		if !ok || got != v || string(rest) != "," {
			t.Errorf("CutInt(%s,) = %d, %q, %v; want %d", b, got, rest, ok, v)
		}
	}
	for _, v := range []uint64{0, 1, 10, math.MaxInt64 + 1, math.MaxUint64 - 1, math.MaxUint64} {
		b, _ := json.Marshal(v)
		got, rest, ok := CutUint64(append(b, '}'))
		if !ok || got != v || string(rest) != "}" {
			t.Errorf("CutUint64(%s}) = %d, %q, %v; want %d", b, got, rest, ok, v)
		}
	}
	over := strconv.FormatUint(math.MaxInt64+1, 10)
	for _, s := range []string{"", "-", "-0", "00", "01", "-01", "+1", " 1", "x", over, "-9223372036854775809", "18446744073709551616"} {
		if v, _, ok := CutInt([]byte(s)); ok {
			t.Errorf("CutInt(%q) accepted %d", s, v)
		}
	}
	for _, s := range []string{"", "-1", "-0", "00", "01", "+1", "18446744073709551616", "99999999999999999999"} {
		if v, _, ok := CutUint64([]byte(s)); ok {
			t.Errorf("CutUint64(%q) accepted %d", s, v)
		}
	}
}
