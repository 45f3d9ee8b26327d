package rng

import (
	"fmt"
	"testing"
)

// TestSamplerAllocFree pins the allocation profile of every sampler on the
// simulation hot path: zero heap allocations per draw in steady state. The
// buffered generator, the binomial paths on both sides of the BTRS
// switchover, the negative-binomial paths, and multinomial chaining into a
// caller-owned slice must all stay alloc-free, or fleet throughput silently
// decays with GC pressure.
func TestSamplerAllocFree(t *testing.T) {
	src := New(5)
	dst := make([]int64, 8)
	weights := []float64{5, 3, 2, 1, 1, 1, 1, 2}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Uint64", func() { src.Uint64() }},
		{"Uint64n", func() { src.Uint64n(12345) }},
		{"Float64", func() { src.Float64() }},
		{"Geometric", func() { src.Geometric(0.3) }},
		{"Binomial-direct", func() { src.Binomial(12, 0.4) }},
		{"Binomial-binv", func() { src.Binomial(1000, 0.005) }},
		{"Binomial-btrs", func() { src.Binomial(1000, 0.3) }},
		{"NegativeBinomial-inv", func() { src.NegativeBinomial(100, 0.9) }},
		{"NegativeBinomial-sum", func() { src.NegativeBinomial(100, 0.05) }},
		{"NegativeBinomial-normal", func() { src.NegativeBinomial(1000, 0.3) }},
		{"Multinomial", func() { dst = src.Multinomial(500, weights, dst) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
				t.Errorf("%s allocates %.1f objects per draw, want 0", tc.name, avg)
			}
		})
	}
}

// Benchmarks across the sampler switchovers (direct / BINV inversion / BTRS
// for Binomial, inversion / summed-geometric / normal for NegativeBinomial),
// so the per-regime costs the kernel cost model assumes stay visible in the
// perf trajectory.

func BenchmarkBinomial(b *testing.B) {
	cases := []struct {
		name string
		n    int64
		p    float64
	}{
		{"direct/n=12,p=0.4", 12, 0.4},
		{"binv/n=64,p=0.1", 64, 0.1},
		{"binv/n=5000,p=0.001", 5000, 0.001},
		{"btrs/n=100,p=0.25", 100, 0.25},
		{"btrs/n=1e6,p=0.3", 1_000_000, 0.3},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			src := New(1)
			var sink int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += src.Binomial(tc.n, tc.p)
			}
			_ = sink
		})
	}
}

func BenchmarkNegativeBinomial(b *testing.B) {
	cases := []struct {
		name string
		m    int64
		p    float64
	}{
		{"inv/m=200,p=0.9", 200, 0.9},
		{"sum/m=100,p=0.05", 100, 0.05},
		{"normal/m=1000,p=0.3", 1000, 0.3},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			src := New(1)
			var sink int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += src.NegativeBinomial(tc.m, tc.p)
			}
			_ = sink
		})
	}
}

func BenchmarkMultinomial(b *testing.B) {
	cases := []struct {
		name string
		m    int64
		k    int
	}{
		{"small-window/m=100,k=32", 100, 32},
		{"btrs-regime/m=100000,k=32", 100_000, 32},
		{"wide/m=1000,k=512", 1000, 512},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			src := New(1)
			weights := make([]float64, tc.k)
			for i := range weights {
				weights[i] = float64(1 + i%7)
			}
			dst := make([]int64, tc.k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = src.Multinomial(tc.m, weights, dst)
			}
			_ = dst
		})
	}
}

func BenchmarkFloat64(b *testing.B) {
	src := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += src.Float64()
	}
	_ = sink
}

// BenchmarkReseedFirstDraws times a trial's start on a reused Source: one
// Reseed and the first few draws. A one-interaction trial draws about 3
// values; 128 draws cross every block length up to bufLen.
func BenchmarkReseedFirstDraws(b *testing.B) {
	for _, draws := range []int{3, 128} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			var src Source
			var sink uint64
			for i := 0; i < b.N; i++ {
				src.Reseed(uint64(i))
				for range draws {
					sink += src.Uint64()
				}
			}
			_ = sink
		})
	}
}
