package conf

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/u128"
)

func TestFromSupport(t *testing.T) {
	c, err := FromSupport([]int64{3, 2, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 10 || c.K() != 3 || c.Undecided != 4 {
		t.Fatalf("unexpected shape: %v", c)
	}
}

func TestFromSupportCopies(t *testing.T) {
	src := []int64{5, 5}
	c, err := FromSupport(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if c.Support[0] != 5 {
		t.Fatal("FromSupport must copy the slice")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"no opinions", Config{}, ErrNoOpinions},
		{"negative support", Config{Support: []int64{-1}}, ErrNegative},
		{"negative undecided", Config{Support: []int64{1}, Undecided: -2}, ErrNegative},
		{"empty population", Config{Support: []int64{0, 0}}, ErrEmpty},
		{"too large", Config{Support: []int64{MaxN, 1}}, ErrTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestMaxNBoundary(t *testing.T) {
	// MaxN = 10¹¹ is set by the constraints documented on the constant, not
	// by the interaction clock any more (the u128 clock holds n² = 10²²
	// with ~54 bits of headroom). Pin each documented constraint:
	//
	//   - n² must fit u128 without saturating, with room for the
	//     n²·ln n-scale worst-case consensus times;
	//   - 2·MaxN must stay exact in float64 (the probability layer uses
	//     quantities up to 2n) and fit int64 (Validate's running sum).
	nSq := u128.Mul64(uint64(MaxN), uint64(MaxN))
	if want := (u128.U128{Hi: 542, Lo: 1864712049423024128}); nSq != want {
		t.Fatalf("MaxN² = %v, want 10²² = %v", nSq, want)
	}
	if nSq.Len() > 128-50 {
		t.Fatalf("MaxN² uses %d bits; headroom for n²·ln n budgets is gone", nSq.Len())
	}
	if two := 2 * MaxN; two != int64(float64(two)) || two > 1<<53 {
		t.Fatalf("2·MaxN = %d is not exact in float64", two)
	}
	if _, err := Uniform(MaxN, 2, 0); err != nil {
		t.Fatalf("Uniform(MaxN) rejected: %v", err)
	}
	if _, err := Uniform(MaxN+1, 2, 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Uniform(MaxN+1) = %v, want ErrTooLarge", err)
	}
}

func TestUniform(t *testing.T) {
	c, err := Uniform(100, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 100 || c.Undecided != 10 {
		t.Fatalf("shape: %v", c)
	}
	if c.Support[0] != 30 || c.Support[1] != 30 || c.Support[2] != 30 {
		t.Fatalf("support: %v", c.Support)
	}
	c2, err := Uniform(101, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Support[0] != 30 || c2.Support[1] != 30 || c2.Support[2] != 30 {
		t.Fatalf("remainder distribution: %v", c2.Support)
	}
	c3, err := Uniform(10, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Support[0] != 4 || c3.Support[1] != 3 || c3.Support[2] != 3 {
		t.Fatalf("remainder to low indices: %v", c3.Support)
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(0, 3, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Uniform(10, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Uniform(10, 3, 11); err == nil {
		t.Fatal("u>n accepted")
	}
	if _, err := Uniform(10, 3, -1); err == nil {
		t.Fatal("u<0 accepted")
	}
	if _, err := Uniform(10, 9, 5); err == nil {
		t.Fatal("k exceeding decided agents accepted")
	}
}

func TestWithAdditiveBias(t *testing.T) {
	c, err := WithAdditiveBias(1000, 4, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 1000 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.AdditiveBias(); got < 50 {
		t.Fatalf("additive bias = %d, want >= 50", got)
	}
	if idx, _ := c.Max(); idx != 0 {
		t.Fatalf("leader index = %d, want 0", idx)
	}
	for i := 2; i < 4; i++ {
		if c.Support[i] != c.Support[1] {
			t.Fatalf("trailing opinions unequal: %v", c.Support)
		}
	}
}

func TestWithAdditiveBiasZero(t *testing.T) {
	c, err := WithAdditiveBias(100, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 100 {
		t.Fatalf("N = %d", c.N())
	}
}

func TestWithAdditiveBiasErrors(t *testing.T) {
	if _, err := WithAdditiveBias(10, 3, -1, 0); err == nil {
		t.Fatal("negative bias accepted")
	}
	if _, err := WithAdditiveBias(10, 3, 100, 0); err == nil {
		t.Fatal("infeasible bias accepted")
	}
}

func TestWithMultiplicativeBias(t *testing.T) {
	c, err := WithMultiplicativeBias(1000, 4, 2.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 1000 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.MultiplicativeBias(); got < 2.0 {
		t.Fatalf("multiplicative bias = %v, want >= 2", got)
	}
}

func TestWithMultiplicativeBiasErrors(t *testing.T) {
	if _, err := WithMultiplicativeBias(100, 3, 1.0, 0); err == nil {
		t.Fatal("ratio 1 accepted")
	}
	if _, err := WithMultiplicativeBias(100, 3, math.NaN(), 0); err == nil {
		t.Fatal("NaN ratio accepted")
	}
	if _, err := WithMultiplicativeBias(10, 8, 100, 0); err == nil {
		t.Fatal("infeasible ratio accepted")
	}
}

func TestZipf(t *testing.T) {
	c, err := Zipf(10000, 8, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 10000 {
		t.Fatalf("N = %d", c.N())
	}
	for i := 1; i < c.K(); i++ {
		if c.Support[i] > c.Support[i-1] {
			t.Fatalf("zipf supports not non-increasing: %v", c.Support)
		}
	}
	// s=0 should match Uniform.
	z, err := Zipf(100, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Uniform(100, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range z.Support {
		if z.Support[i] != u.Support[i] {
			t.Fatalf("Zipf(s=0) %v != Uniform %v", z.Support, u.Support)
		}
	}
}

func TestTwoBlock(t *testing.T) {
	c, err := TwoBlock(1000, 5, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Support[0] != 500 {
		t.Fatalf("leader = %d, want 500", c.Support[0])
	}
	var rest int64
	for _, x := range c.Support[1:] {
		rest += x
	}
	if rest != 500 {
		t.Fatalf("trailing total = %d, want 500", rest)
	}
	if _, err := TwoBlock(100, 3, 1.5, 0); err == nil {
		t.Fatal("share > 1 accepted")
	}
}

func TestGeneratorsConserveN(t *testing.T) {
	check := func(nRaw uint16, kRaw, uRaw uint8) bool {
		n := int64(nRaw%5000) + 20
		k := int(kRaw%8) + 1
		u := int64(uRaw) % (n / 2)
		if int64(k) > n-u {
			return true
		}
		gens := []func() (*Config, error){
			func() (*Config, error) { return Uniform(n, k, u) },
			func() (*Config, error) { return WithAdditiveBias(n, k, 5, u) },
			func() (*Config, error) { return Zipf(n, k, 0.8, u) },
		}
		for _, g := range gens {
			c, err := g()
			if err != nil {
				continue // infeasible parameter combination is fine
			}
			if c.N() != n || c.Undecided != u {
				return false
			}
			if err := c.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAndTopTwo(t *testing.T) {
	c := &Config{Support: []int64{3, 9, 9, 1}, Undecided: 0}
	idx, v := c.Max()
	if idx != 1 || v != 9 {
		t.Fatalf("Max = (%d, %d), want (1, 9)", idx, v)
	}
	first, second := c.TopTwo()
	if first != 9 || second != 9 {
		t.Fatalf("TopTwo = (%d, %d), want (9, 9)", first, second)
	}
	if c.AdditiveBias() != 0 {
		t.Fatalf("AdditiveBias = %d, want 0 (tie)", c.AdditiveBias())
	}
}

func TestTopTwoSingleOpinion(t *testing.T) {
	c := &Config{Support: []int64{7}}
	first, second := c.TopTwo()
	if first != 7 || second != 0 {
		t.Fatalf("TopTwo = (%d, %d)", first, second)
	}
}

func TestMultiplicativeBiasInf(t *testing.T) {
	c := &Config{Support: []int64{5, 0}}
	if !math.IsInf(c.MultiplicativeBias(), 1) {
		t.Fatal("expected +Inf with zero runner-up")
	}
}

func TestSumSquaresAndDecided(t *testing.T) {
	c := &Config{Support: []int64{3, 4}, Undecided: 2}
	if c.SumSquares() != u128.From64(25) {
		t.Fatalf("SumSquares = %v", c.SumSquares())
	}
	if c.Decided() != 7 {
		t.Fatalf("Decided = %d", c.Decided())
	}
}

func TestIsConsensus(t *testing.T) {
	yes := &Config{Support: []int64{10, 0}}
	no1 := &Config{Support: []int64{9, 1}}
	no2 := &Config{Support: []int64{9, 0}, Undecided: 1}
	if !yes.IsConsensus() {
		t.Fatal("consensus not detected")
	}
	if no1.IsConsensus() || no2.IsConsensus() {
		t.Fatal("false consensus")
	}
}

func TestCloneIndependent(t *testing.T) {
	c := &Config{Support: []int64{1, 2}, Undecided: 3}
	d := c.Clone()
	d.Support[0] = 100
	d.Undecided = 0
	if c.Support[0] != 1 || c.Undecided != 3 {
		t.Fatal("Clone aliases the original")
	}
}

func TestStringTruncates(t *testing.T) {
	long := make([]int64, 20)
	for i := range long {
		long[i] = 1
	}
	c := &Config{Support: long}
	s := c.String()
	if !strings.Contains(s, "more") {
		t.Fatalf("String did not truncate: %q", s)
	}
	short := &Config{Support: []int64{1, 2}, Undecided: 3}
	if got := short.String(); got != "n=6 k=2 u=3 x=[1 2]" {
		t.Fatalf("String = %q", got)
	}
}

func TestValidateSumCannotWrap(t *testing.T) {
	// Addends near MaxInt64 used to wrap the running population sum
	// negative before the > MaxN check could fire, accepting a garbage
	// population. Every wrapping combination must now be rejected.
	cases := []Config{
		{Support: []int64{1, math.MaxInt64}},
		{Support: []int64{math.MaxInt64, math.MaxInt64}},
		{Support: []int64{50}, Undecided: math.MaxInt64 - 10},
		{Support: []int64{MaxN, MaxN, MaxN, MaxN}},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); !errors.Is(err, ErrTooLarge) {
			t.Errorf("case %d: Validate() = %v, want ErrTooLarge", i, err)
		}
	}
}
