package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestOnlineMatchesSummarize(t *testing.T) {
	src := rng.New(41)
	xs := make([]float64, 4001)
	var o Online
	for i := range xs {
		xs[i] = src.Normal()*3 + 7
		o.Add(xs[i])
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if o.N() != int64(s.N) {
		t.Fatalf("N = %d, want %d", o.N(), s.N)
	}
	if math.Abs(o.Mean()-s.Mean) > 1e-9 {
		t.Fatalf("mean %v vs %v", o.Mean(), s.Mean)
	}
	if math.Abs(o.Std()-s.Std) > 1e-9 {
		t.Fatalf("std %v vs %v", o.Std(), s.Std)
	}
	if o.Min() != s.Min || o.Max() != s.Max {
		t.Fatalf("extrema (%v, %v) vs (%v, %v)", o.Min(), o.Max(), s.Min, s.Max)
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.N() != 0 || o.Mean() != 0 || o.Std() != 0 || o.Min() != 0 || o.Max() != 0 {
		t.Fatalf("empty accumulator not zero: %+v", o)
	}
	o.Add(3.5)
	if o.Mean() != 3.5 || o.Var() != 0 || o.Min() != 3.5 || o.Max() != 3.5 {
		t.Fatalf("single sample: %+v", o)
	}
}

func TestP2SmallStreamsExact(t *testing.T) {
	p := NewP2(0.5)
	if !math.IsNaN(p.Value()) {
		t.Fatal("empty P2 must return NaN")
	}
	for _, x := range []float64{5, 1, 3} {
		p.Add(x)
	}
	if got := p.Value(); got != 3 {
		t.Fatalf("median of {5,1,3} = %v, want 3", got)
	}
	q, err := Quantile([]float64{5, 1, 3}, 0.5)
	if err != nil || p.Value() != q {
		t.Fatalf("small-stream P2 %v != exact %v", p.Value(), q)
	}
}

func TestP2AgainstExactQuantiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    float64
		gen  func(src *rng.Source) float64
	}{
		{"uniform-median", 0.5, func(s *rng.Source) float64 { return s.Float64() }},
		{"uniform-p90", 0.9, func(s *rng.Source) float64 { return s.Float64() }},
		{"normal-median", 0.5, func(s *rng.Source) float64 { return s.Normal() }},
		{"exp-p10", 0.1, func(s *rng.Source) float64 { return -math.Log1p(-s.Float64()) / 2 }},
		{"heavy-tail-median", 0.5, func(s *rng.Source) float64 {
			x := s.Float64()
			return 1 / (1 - x) // Pareto-like
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(99)
			p := NewP2(tc.q)
			xs := make([]float64, 20000)
			for i := range xs {
				xs[i] = tc.gen(src)
				p.Add(xs[i])
			}
			exact, err := Quantile(xs, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			// P² carries a few-percent error on 2·10⁴ samples; compare on
			// the scale of the sample spread.
			s, _ := Summarize(xs)
			scale := s.P90 - s.P10
			if scale == 0 {
				scale = 1
			}
			if gap := math.Abs(p.Value() - exact); gap > 0.05*scale {
				t.Fatalf("P2(%v) = %v, exact %v (gap %v, scale %v)", tc.q, p.Value(), exact, gap, scale)
			}
		})
	}
}

func TestP2ExtremeQuantiles(t *testing.T) {
	src := rng.New(7)
	lo, hi := NewP2(0), NewP2(1)
	var o Online
	for i := 0; i < 5000; i++ {
		x := src.Normal()
		lo.Add(x)
		hi.Add(x)
		o.Add(x)
	}
	if lo.Value() != o.Min() || hi.Value() != o.Max() {
		t.Fatalf("q=0 %v want %v; q=1 %v want %v", lo.Value(), o.Min(), hi.Value(), o.Max())
	}
}

func TestP2PanicsOnBadQuantile(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewP2(%v) did not panic", q)
				}
			}()
			NewP2(q)
		}()
	}
}
