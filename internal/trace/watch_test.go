package trace

import (
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/u128"
)

func TestBoundedRecorderStaysBounded(t *testing.T) {
	r := NewBoundedRecorder("u", 16)
	for i := int64(0); i < 100000; i++ {
		r.Observe(u128.From64(i), float64(i))
	}
	if got := r.Series.Len(); got > 16 {
		t.Fatalf("recorded %d points, cap 16", got)
	}
	if got := r.Series.Len(); got < 8 {
		t.Fatalf("recorded only %d points; compaction too aggressive", got)
	}
	// Points must stay in increasing clock order and start at the origin.
	if r.Series.X[0] != 0 {
		t.Fatalf("first point at %v, want 0", r.Series.X[0])
	}
	for i := 1; i < r.Series.Len(); i++ {
		if r.Series.X[i] <= r.Series.X[i-1] {
			t.Fatalf("clock order violated at %d: %v after %v", i, r.Series.X[i], r.Series.X[i-1])
		}
	}
}

func TestBoundedRecorderIrregularClock(t *testing.T) {
	// Batched-kernel observations arrive at irregular, growing clock spans;
	// the bound must hold regardless.
	r := NewBoundedRecorder("x", 32)
	clock := int64(0)
	for i := int64(1); i < 4000; i++ {
		clock += i * i % 977
		r.Observe(u128.From64(clock), 1)
	}
	if got := r.Series.Len(); got > 32 {
		t.Fatalf("recorded %d points, cap 32", got)
	}
}

func TestBoundedRecorderFinal(t *testing.T) {
	r := NewBoundedRecorder("u", 8)
	for i := int64(0); i < 1000; i += 3 {
		r.Observe(u128.From64(i), float64(i))
	}
	r.Final(u128.From64(1234), 42)
	last := r.Series.Len() - 1
	if r.Series.X[last] != 1234 || r.Series.Y[last] != 42 {
		t.Fatalf("final point (%v, %v)", r.Series.X[last], r.Series.Y[last])
	}
	r.Final(u128.From64(1234), 42) // idempotent at the same clock
	if r.Series.Len() != last+1 {
		t.Fatal("duplicate final point recorded")
	}
}

func TestBoundedRecorderReset(t *testing.T) {
	r := NewBoundedRecorder("u", 8)
	for i := int64(0); i < 500; i++ {
		r.Observe(u128.From64(i), 1)
	}
	r.Reset()
	if r.Series.Len() != 0 {
		t.Fatalf("Reset left %d points", r.Series.Len())
	}
	r.Observe(u128.U128{}, 5)
	if r.Series.Len() != 1 || r.Series.X[0] != 0 {
		t.Fatal("recorder unusable after Reset")
	}
}

func TestSamplerRecordsPerAppliedEvent(t *testing.T) {
	cfg, err := conf.Uniform(5000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range []core.Kernel{core.KernelExact, core.KernelBatched(0)} {
		s, err := core.New(cfg, rng.New(3), core.WithKernel(kern))
		if err != nil {
			t.Fatal(err)
		}
		sa := NewSampler().
			Track("u/n", 64, func(s *core.Simulator) float64 {
				return float64(s.Undecided()) / float64(s.N())
			}).
			Track("xmax/n", 64, func(s *core.Simulator) float64 {
				_, x := s.Max()
				return float64(x) / float64(s.N())
			})
		res := s.RunWatched(core.NoBudget, sa)
		sa.Final(s)
		series := sa.Series()
		if len(series) != 2 {
			t.Fatalf("kernel %v: %d series", kern, len(series))
		}
		for _, sr := range series {
			if sr.Len() < 2 || sr.Len() > 65 {
				t.Fatalf("kernel %v: series %q has %d points", kern, sr.Name, sr.Len())
			}
			if got := sr.X[sr.Len()-1]; got != res.Interactions.Float64() {
				t.Fatalf("kernel %v: series %q ends at %v, run at %v", kern, sr.Name, got, res.Interactions)
			}
		}
		// The final xmax/n of a consensus run is exactly 1.
		if last := series[1].Y[series[1].Len()-1]; last != 1 {
			t.Fatalf("kernel %v: final xmax/n = %v", kern, last)
		}
	}
}

func TestSamplerWithWatchersFanOut(t *testing.T) {
	cfg, err := conf.Uniform(2000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(cfg, rng.New(9), core.WithKernel(core.KernelBatched(0)))
	if err != nil {
		t.Fatal(err)
	}
	sa := NewSampler().Track("u", 32, func(s *core.Simulator) float64 {
		return float64(s.Undecided())
	})
	events := 0
	s.RunWatched(core.NoBudget, core.Observer(func(s *core.Simulator, ev core.Event) {
		sa.Watch(s, ev)
		events++
	}))
	if events == 0 || sa.Series()[0].Len() == 0 {
		t.Fatalf("fan-out lost observations: events=%d points=%d", events, sa.Series()[0].Len())
	}
	sa.Reset()
	if sa.Series()[0].Len() != 0 {
		t.Fatal("Sampler.Reset left points")
	}
}
