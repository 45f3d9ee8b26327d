package usd

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/experiment"
)

// benchParams keeps each experiment's benchmark iteration small enough for
// `go test -bench=.` to finish in minutes while still executing the real
// workload end to end (simulation, tracking, statistics, and formatting).
func benchParams(i int) experiment.Params {
	return experiment.Params{Quick: true, Seed: uint64(i) + 1, Trials: 2}
}

// runExperiment benchmarks one named experiment end to end.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiment.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(benchParams(i), io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// One benchmark per paper artifact (see the experiment index in docs/EXPERIMENTS.md).

func BenchmarkT1Phases(b *testing.B)         { runExperiment(b, "T1-phases") }
func BenchmarkT2Multiplicative(b *testing.B) { runExperiment(b, "T2-multiplicative") }
func BenchmarkT3Additive(b *testing.B)       { runExperiment(b, "T3-additive") }
func BenchmarkT4NoBias(b *testing.B)         { runExperiment(b, "T4-nobias") }
func BenchmarkT5Baselines(b *testing.B)      { runExperiment(b, "T5-baselines") }
func BenchmarkT6Phase1(b *testing.B)         { runExperiment(b, "T6-phase1-preservation") }
func BenchmarkF1Undecided(b *testing.B)      { runExperiment(b, "F1-undecided") }
func BenchmarkF2GapGrowth(b *testing.B)      { runExperiment(b, "F2-gap-growth") }
func BenchmarkF3Threshold(b *testing.B)      { runExperiment(b, "F3-majority-threshold") }
func BenchmarkF4ModelCompare(b *testing.B)   { runExperiment(b, "F4-model-compare") }
func BenchmarkF5KScaling(b *testing.B)       { runExperiment(b, "F5-k-scaling") }
func BenchmarkF6Endgame(b *testing.B)        { runExperiment(b, "F6-endgame-coupling") }
func BenchmarkF7Fluid(b *testing.B)          { runExperiment(b, "F7-fluid-limit") }

// Ablation benchmarks.

func BenchmarkA1SkipAblation(b *testing.B)   { runExperiment(b, "A1-skip") }
func BenchmarkA2EngineAblation(b *testing.B) { runExperiment(b, "A2-agent-vs-aggregate") }
func BenchmarkA3SelfInteraction(b *testing.B) {
	runExperiment(b, "A3-self-interaction")
}

// Extension benchmarks (features beyond the paper's main theorem).

func BenchmarkX1Synchronized(b *testing.B) { runExperiment(b, "X1-synchronized") }
func BenchmarkX2LargeK(b *testing.B)       { runExperiment(b, "X2-large-k") }
func BenchmarkX3Exact(b *testing.B)        { runExperiment(b, "X3-exact-validation") }
func BenchmarkX4Scheduler(b *testing.B)    { runExperiment(b, "X4-scheduler-robustness") }
func BenchmarkX5Undecided(b *testing.B)    { runExperiment(b, "X5-undecided-start") }

// BenchmarkConsensus measures full end-to-end consensus runs of the public
// API across the three bias regimes of Theorem 2, reporting interactions
// and parallel time as custom metrics.
func BenchmarkConsensus(b *testing.B) {
	regimes := []struct {
		name string
		mk   func(n int64, k int) (*Config, error)
	}{
		{"multiplicative", func(n int64, k int) (*Config, error) {
			return WithMultiplicativeBias(n, k, 2.0, 0)
		}},
		{"additive", func(n int64, k int) (*Config, error) {
			return WithAdditiveBias(n, k, 4*int64(SignificanceThreshold(n, 1)), 0)
		}},
		{"nobias", func(n int64, k int) (*Config, error) {
			return Uniform(n, k, 0)
		}},
	}
	for _, reg := range regimes {
		for _, nk := range []struct {
			n int64
			k int
		}{{1 << 12, 8}, {1 << 14, 8}, {1 << 14, 32}} {
			name := fmt.Sprintf("%s/n=%d/k=%d", reg.name, nk.n, nk.k)
			b.Run(name, func(b *testing.B) {
				cfg, err := reg.mk(nk.n, nk.k)
				if err != nil {
					b.Fatal(err)
				}
				var runs int64
				var totalInteractions float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					report, err := Run(cfg, uint64(i)+1)
					if err != nil {
						b.Fatal(err)
					}
					if report.Result.Outcome != OutcomeConsensus {
						b.Fatalf("outcome %v", report.Result.Outcome)
					}
					totalInteractions += report.Result.Interactions.Float64()
					runs++
				}
				b.ReportMetric(totalInteractions/float64(runs), "interactions/run")
				b.ReportMetric(totalInteractions/float64(runs)/float64(nk.n), "parallel-time/run")
			})
		}
	}
}

// BenchmarkKernelExact measures the exact kernel end to end on the
// RunObserved phase-tracking path (one tracked consensus run per op).
// With ReportAllocs, any per-event allocation on the hot path would show up
// multiplied by the millions of events per run; the expected profile is a
// small constant number of allocations per run (simulator + tracker
// construction only).
func BenchmarkKernelExact(b *testing.B) { benchKernelTracked(b, false) }

// BenchmarkKernelBatched is BenchmarkKernelExact with the batched kernel.
func BenchmarkKernelBatched(b *testing.B) { benchKernelTracked(b, true) }

func benchKernelTracked(b *testing.B, batched bool) {
	cfg, err := Uniform(1<<17, 32, 0)
	if err != nil {
		b.Fatal(err)
	}
	var totalInteractions float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var report Report
		var err error
		if batched {
			report, err = RunFast(cfg, uint64(i)+1)
		} else {
			report, err = Run(cfg, uint64(i)+1)
		}
		if err != nil {
			b.Fatal(err)
		}
		if report.Result.Outcome != OutcomeConsensus {
			b.Fatalf("outcome %v", report.Result.Outcome)
		}
		totalInteractions += report.Result.Interactions.Float64()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/totalInteractions, "ns/interaction")
	b.ReportMetric(totalInteractions/float64(b.N), "interactions/run")
}

// BenchmarkKernel measures the per-productive-event cost of the aggregate
// simulator as k grows (the O(log k) Fenwick sampling).
func BenchmarkKernel(b *testing.B) {
	for _, k := range []int{2, 8, 64, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cfg, err := Uniform(1<<20, k, 0)
			if err != nil {
				b.Fatal(err)
			}
			s, err := NewSimulator(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ev := s.StepProductive(); ev.Kind == EventAbsorbed {
					// Long benchtimes can drive the chain all the way to
					// consensus; restart it outside the timed region.
					b.StopTimer()
					s, err = NewSimulator(cfg, uint64(i))
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}
