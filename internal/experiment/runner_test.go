package experiment

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/u128"
)

// renderRuns serializes tracked-run outputs byte-for-byte, so the
// determinism tests below compare complete trial outcomes, not summaries.
func renderRuns(runs []USDRun) []byte {
	var b bytes.Buffer
	for i, r := range runs {
		fmt.Fprintf(&b, "%d %+v %+v %d\n", i, r.Result, r.Phases, r.InitialLeader)
	}
	return b.Bytes()
}

// streamSlice runs Stream and returns the outputs in trial order.
func streamSlice[T any](trials, par int, seed uint64, fn func(i int, src *rng.Source, a *Arena) T) []T {
	out := make([]T, trials)
	Stream(trials, par, seed, fn, func(i int, v T) { out[i] = v })
	return out
}

// TestStreamByteIdenticalAcrossParallelism is the arena-safety contract:
// with a fixed seed, Stream output must be byte-identical at parallelism
// 1, 4, and GOMAXPROCS, for both kernels. Any state leaking between trials
// through a reused simulator, tracker, or source would break this.
func TestStreamByteIdenticalAcrossParallelism(t *testing.T) {
	cfg, err := conf.Uniform(2000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, kern := range []core.Kernel{core.KernelExact, core.KernelBatched(0)} {
		var want []byte
		for _, par := range levels {
			runs := streamSlice(60, par, 99, func(i int, src *rng.Source, a *Arena) USDRun {
				r, err := RunTracked(a, cfg, src, core.NoBudget, 0, kern)
				if err != nil {
					t.Errorf("trial %d: %v", i, err)
				}
				return r
			})
			got := renderRuns(runs)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("kernel %v: parallelism %d diverged from parallelism %d\n%s\nvs\n%s",
					kern, par, levels[0], got[:200], want[:200])
			}
		}
	}
}

// TestArenaReuseMatchesFreshAllocation pins the engine's arena path to the
// no-arena path: reusing a worker's simulator and tracker must be
// observationally identical to allocating per trial.
func TestArenaReuseMatchesFreshAllocation(t *testing.T) {
	cfg, err := conf.WithAdditiveBias(3000, 6, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range []core.Kernel{core.KernelExact, core.KernelBatched(0)} {
		reused := streamSlice(40, 1, 7, func(i int, src *rng.Source, a *Arena) USDRun {
			r, err := RunTracked(a, cfg, src, core.NoBudget, 0, kern)
			if err != nil {
				t.Errorf("trial %d: %v", i, err)
			}
			return r
		})
		fresh := streamSlice(40, 1, 7, func(i int, src *rng.Source, _ *Arena) USDRun {
			r, err := RunTracked(nil, cfg, src, core.NoBudget, 0, kern)
			if err != nil {
				t.Errorf("trial %d: %v", i, err)
			}
			return r
		})
		if !bytes.Equal(renderRuns(reused), renderRuns(fresh)) {
			t.Fatalf("kernel %v: arena reuse changed trial outcomes", kern)
		}
	}
}

func TestStreamDeliversInOrder(t *testing.T) {
	for _, par := range []int{1, 3, 16} {
		var got []int
		Stream(200, par, 1, func(i int, src *rng.Source, _ *Arena) int {
			return i
		}, func(i int, v int) {
			if i != v {
				t.Fatalf("sink got (%d, %d)", i, v)
			}
			got = append(got, v)
		})
		if len(got) != 200 {
			t.Fatalf("parallelism %d: %d deliveries, want 200", par, len(got))
		}
		for i, v := range got {
			if i != v {
				t.Fatalf("parallelism %d: out-of-order delivery at %d: %d", par, i, v)
			}
		}
	}
}

// TestStreamAggregationByteIdentical checks that order-sensitive streamed
// aggregation (Welford mean/variance and a P² sketch) is bit-identical
// across parallelism levels — the property that lets streamed sweeps
// replace slice-collecting ones without changing any reported number.
func TestStreamAggregationByteIdentical(t *testing.T) {
	run := func(par int) string {
		var o stats.Online
		med := stats.NewP2(0.5)
		Stream(500, par, 3, func(i int, src *rng.Source, _ *Arena) float64 {
			return src.Normal()*10 + float64(i%7)
		}, func(_ int, v float64) {
			o.Add(v)
			med.Add(v)
		})
		return fmt.Sprintf("%v %v %v %v %v", o.N(), o.Mean(), o.Var(), o.Min(), med.Value())
	}
	want := run(1)
	for _, par := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if got := run(par); got != want {
			t.Fatalf("parallelism %d: %s != %s", par, got, want)
		}
	}
}

func TestStreamBoundedInFlight(t *testing.T) {
	const par = 4
	var inFlight, maxSeen atomic.Int64
	Stream(300, par, 1, func(i int, src *rng.Source, _ *Arena) int {
		n := inFlight.Add(1)
		for {
			m := maxSeen.Load()
			if n <= m || maxSeen.CompareAndSwap(m, n) {
				break
			}
		}
		return i
	}, func(i int, v int) {
		inFlight.Add(-1)
	})
	// The dispatch window is parallelism*4; anything wildly beyond it means
	// the engine materialized unconsumed results.
	if maxSeen.Load() > par*4+par {
		t.Fatalf("max in-flight %d exceeds dispatch window", maxSeen.Load())
	}
}

func TestStreamEdgeCases(t *testing.T) {
	calls := 0
	Stream(0, 4, 1, func(i int, src *rng.Source, _ *Arena) int { return i },
		func(int, int) { calls++ })
	if calls != 0 {
		t.Fatal("zero trials must not call sink")
	}
	Stream(3, 100, 1, func(i int, src *rng.Source, _ *Arena) int { return i },
		func(int, int) { calls++ })
	if calls != 3 {
		t.Fatalf("delivered %d, want 3", calls)
	}
}

func TestArenaSimulatorAcrossConfigs(t *testing.T) {
	// One arena must survive trials over configurations with different
	// opinion counts (the tree is rebuilt) and still match fresh state.
	small, _ := conf.Uniform(500, 2, 0)
	large, _ := conf.Uniform(500, 10, 0)
	var a Arena
	for trial, cfg := range []*conf.Config{small, large, small} {
		seed := uint64(trial)
		s, err := a.Simulator(cfg, rng.New(seed), core.WithKernel(core.KernelExact))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.New(cfg, rng.New(seed), core.WithKernel(core.KernelExact))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Run(core.NoBudget), fresh.Run(core.NoBudget); got != want {
			t.Fatalf("trial %d: arena %+v != fresh %+v", trial, got, want)
		}
	}
}

// TestStreamFoldAllocFree pins the steady-state allocation profile of the
// serial fold path at zero per trial, through each of the engine's doors:
// the arena body (simulator reset, window loop) and the sink fold must not
// allocate once warm. The pin compares total allocations of a short and a
// long stream — any per-trial allocation shows up as growth in the
// difference, while the engine's fixed per-invocation setup cancels out.
func TestStreamFoldAllocFree(t *testing.T) {
	cfg, err := conf.Uniform(5000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	var online stats.Online
	body := func(i int, src *rng.Source, a *Arena) float64 {
		s, err := a.Simulator(cfg, src)
		if err != nil {
			panic(err)
		}
		s.SetKernel(core.KernelAuto(0))
		return s.Run(u128.From64(20_000)).Interactions.Float64()
	}
	sink := func(_ int, v float64) { online.Add(v) }
	never := func() bool { return false }
	indices := make([]int, 104)
	for j := range indices {
		indices[j] = 3 * j
	}
	for _, door := range []struct {
		name string
		run  func(trials int)
	}{
		{"Stream", func(trials int) { Stream(trials, 1, 3, body, sink) }},
		{"StreamIndices", func(trials int) { StreamIndices(indices[:trials], 1, 3, body, sink) }},
		{"StreamAdaptive", func(trials int) {
			StreamAdaptive(AdaptiveOptions{MaxTrials: trials, Parallelism: 1, Seed: 3}, body, sink, never)
		}},
	} {
		run := func(trials int) func() { return func() { door.run(trials) } }
		run(4)() // warm any lazy engine state
		short := testing.AllocsPerRun(5, run(4))
		long := testing.AllocsPerRun(5, run(104))
		if perTrial := (long - short) / 100; perTrial > 0 {
			t.Errorf("%s fold allocates %.2f objects per trial in steady state, want 0 (short=%v long=%v)",
				door.name, perTrial, short, long)
		}
	}
}
