package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

// adaptiveAggregates runs StreamAdaptive over real tracked USD trials with a
// predicate that stops after exactly stopAt folds, and serializes every
// order-sensitive aggregate byte-for-byte.
func adaptiveAggregates(t *testing.T, cfg *conf.Config, par, maxTrials, stopAt int) (string, AdaptiveResult) {
	t.Helper()
	var o stats.Online
	med := stats.NewP2(0.5)
	folded := 0
	res := StreamAdaptive(AdaptiveOptions{MaxTrials: maxTrials, Parallelism: par, Seed: 99},
		func(i int, src *rng.Source, a *Arena) USDRun {
			r, err := RunTracked(a, cfg, src, core.NoBudget, 0, core.KernelBatched(0))
			if err != nil {
				t.Errorf("trial %d: %v", i, err)
			}
			return r
		},
		func(i int, r USDRun) {
			folded++
			o.Add(r.Result.Interactions.Float64())
			med.Add(r.Result.Interactions.Float64())
		},
		func() bool { return folded >= stopAt })
	return fmt.Sprintf("%v %v %v %v %v %v", o.N(), o.Mean(), o.Var(), o.Min(), o.Max(), med.Value()), res
}

// TestStreamAdaptiveByteIdenticalToStream is the adaptive engine's
// determinism contract (the ISSUE 3 regression test): StreamAdaptive with a
// rule that stops at exactly T trials must produce byte-identical aggregates
// to a fixed Stream of T trials, at parallelism 1, 4, and 16.
func TestStreamAdaptiveByteIdenticalToStream(t *testing.T) {
	cfg, err := conf.Uniform(2000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	const stopAt = 37
	// The fixed-count reference, parallelism 1.
	var o stats.Online
	med := stats.NewP2(0.5)
	Stream(stopAt, 1, 99, func(i int, src *rng.Source, a *Arena) USDRun {
		r, err := RunTracked(a, cfg, src, core.NoBudget, 0, core.KernelBatched(0))
		if err != nil {
			t.Errorf("trial %d: %v", i, err)
		}
		return r
	}, func(i int, r USDRun) {
		o.Add(r.Result.Interactions.Float64())
		med.Add(r.Result.Interactions.Float64())
	})
	want := fmt.Sprintf("%v %v %v %v %v %v", o.N(), o.Mean(), o.Var(), o.Min(), o.Max(), med.Value())

	for _, par := range []int{1, 4, 16} {
		got, res := adaptiveAggregates(t, cfg, par, 200, stopAt)
		if got != want {
			t.Fatalf("parallelism %d: adaptive aggregates diverged from fixed Stream:\n%s\nvs\n%s", par, got, want)
		}
		if res.Trials != stopAt || !res.Stopped {
			t.Fatalf("parallelism %d: result %+v, want {Trials: %d, Stopped: true}", par, res, stopAt)
		}
	}
}

// TestStreamAdaptiveBoundedWaste pins the engine's stop contract at
// parallelism 2 and 4: once the predicate fires at fold T, no trial at index
// T+4·parallelism or beyond is ever started, dispatched trials no worker has
// started are taken back rather than run, and StreamAdaptive returns only
// after the running ones finish, leaving no goroutine behind.
func TestStreamAdaptiveBoundedWaste(t *testing.T) {
	const stopAt = 20
	for _, par := range []int{2, 4} {
		window := 4 * par
		before := runtime.NumGoroutine()

		// Trial stopAt-1 is slow, so the other workers run as far past the
		// fold as the window lets them before the predicate fires.
		var maxIndex atomic.Int64
		maxIndex.Store(-1)
		folded := 0
		StreamAdaptive(AdaptiveOptions{MaxTrials: 1000, Parallelism: par, Seed: 1},
			func(i int, _ *rng.Source, _ *Arena) int {
				if i == stopAt-1 {
					time.Sleep(50 * time.Millisecond)
				}
				for {
					cur := maxIndex.Load()
					if int64(i) <= cur || maxIndex.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
				return i
			},
			func(int, int) { folded++ },
			func() bool { return folded >= stopAt })
		if got := maxIndex.Load(); got >= stopAt+int64(window) {
			t.Fatalf("parallelism %d: trial %d computed after a stop at fold %d; the window ends before %d",
				par, got, stopAt, stopAt+window)
		}

		// Trials from stopAt on hold their worker until well after the
		// predicate fires, so every worker is busy when it does: the trials
		// still queued must be taken back, leaving at most one started late
		// trial per worker, and all of them finished before the return.
		release := make(chan struct{})
		var started, finished atomic.Int64
		folded = 0
		res := StreamAdaptive(AdaptiveOptions{MaxTrials: 1000, Parallelism: par, Seed: 1},
			func(i int, _ *rng.Source, _ *Arena) int {
				if i >= stopAt {
					started.Add(1)
					<-release
					finished.Add(1)
				}
				return i
			},
			func(int, int) { folded++ },
			func() bool {
				if folded < stopAt {
					return false
				}
				time.AfterFunc(100*time.Millisecond, func() { close(release) })
				return true
			})
		if res.Trials != stopAt || !res.Stopped {
			t.Fatalf("parallelism %d: result %+v", par, res)
		}
		if s, f := started.Load(), finished.Load(); s > int64(par) || f != s {
			t.Fatalf("parallelism %d: %d trials past the stop started, %d finished by the return; want at most %d, all finished",
				par, s, f, par)
		}

		// Workers exit right after their last trial; the deadline only
		// forgives goroutine teardown, never a worker left blocked.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("parallelism %d: %d goroutines after StreamAdaptive returned, %d before", par, n, before)
		}
	}
}

func TestStreamAdaptiveMaxTrialsCap(t *testing.T) {
	for _, par := range []int{1, 4} {
		calls := 0
		res := StreamAdaptive(AdaptiveOptions{MaxTrials: 50, Parallelism: par, Seed: 2},
			func(i int, src *rng.Source, _ *Arena) int { return i },
			func(i int, v int) {
				if i != v {
					t.Fatalf("out-of-order fold (%d, %d)", i, v)
				}
				calls++
			},
			func() bool { return false })
		if calls != 50 || res.Trials != 50 || res.Stopped {
			t.Fatalf("parallelism %d: calls=%d result=%+v", par, calls, res)
		}
	}
}

func TestStreamAdaptiveEdgeCases(t *testing.T) {
	res := StreamAdaptive(AdaptiveOptions{MaxTrials: 0},
		func(i int, src *rng.Source, _ *Arena) int { return i },
		func(int, int) { t.Fatal("sink called with no trials") },
		func() bool { return true })
	if res != (AdaptiveResult{}) {
		t.Fatalf("zero-cap result %+v", res)
	}
	// Parallelism above the cap, predicate immediately satisfied after the
	// first fold.
	folded := 0
	res = StreamAdaptive(AdaptiveOptions{MaxTrials: 3, Parallelism: 8, Seed: 1},
		func(i int, src *rng.Source, _ *Arena) int { return i },
		func(int, int) { folded++ },
		func() bool { return true })
	if folded != 1 || res.Trials != 1 || !res.Stopped {
		t.Fatalf("immediate-stop result %+v after %d folds", res, folded)
	}
}

// TestStreamAdaptiveCIStopsEarly runs the engine the way experiments do — a
// relative-CI stopping rule over a low-variance metric — and checks it stops
// well before the cap while a high-variance metric spends more trials.
func TestStreamAdaptiveCIStopsEarly(t *testing.T) {
	run := func(noise float64) int {
		m := NewAdaptiveMetric("t", stats.All(stats.AfterN(5), stats.RelWidth(0.02, 0.95)))
		res := StreamAdaptive(AdaptiveOptions{MaxTrials: 2000, Parallelism: 4, Seed: 17},
			func(i int, src *rng.Source, _ *Arena) float64 { return 100 + noise*src.Normal() },
			func(i int, v float64) { m.Add(v) },
			StopWhenAll(m))
		if !res.Stopped {
			t.Fatalf("noise %v: cap hit, rel width %v", noise, stats.StudentTCI(&m.Online, 0.95).Rel())
		}
		if got := int(m.StoppedAt); got != res.Trials {
			t.Fatalf("noise %v: metric stopped at %d but engine at %d", noise, got, res.Trials)
		}
		return res.Trials
	}
	low, high := run(1), run(20)
	if low >= high {
		t.Fatalf("low-variance run used %d trials, high-variance %d; want fewer", low, high)
	}
	if low > 20 {
		t.Fatalf("low-variance run used %d trials; expected a handful", low)
	}
}

func TestAdaptiveMetricLatch(t *testing.T) {
	m := NewAdaptiveMetric("x", stats.All(stats.AfterN(3), stats.RelWidth(0.5, 0.95)))
	if m.Done() {
		t.Fatal("fresh metric already done")
	}
	for _, v := range []float64{10, 10.1, 9.9} {
		m.Add(v)
	}
	if !m.Done() || m.StoppedAt != 3 {
		t.Fatalf("metric not latched: %+v", m)
	}
	// A wild outlier widens the interval, but the latch must hold.
	m.Add(1e6)
	if !m.Done() || m.StoppedAt != 3 {
		t.Fatalf("latch broken: StoppedAt = %d", m.StoppedAt)
	}
	if m.Online.N() != 4 {
		t.Fatalf("halted metric stopped aggregating: n = %d", m.Online.N())
	}
	if math.IsNaN(m.Median.Value()) {
		t.Fatal("median sketch unfed")
	}
}

func TestStopWhenAll(t *testing.T) {
	a := NewAdaptiveMetric("a", stats.AfterN(2))
	b := NewAdaptiveMetric("b", stats.AfterN(4))
	pred := StopWhenAll(a, b)
	for i := 0; i < 3; i++ {
		a.Add(1)
		b.Add(1)
	}
	if pred() {
		t.Fatal("predicate fired with metric b open")
	}
	b.Add(1)
	if !pred() {
		t.Fatal("predicate must fire once every metric halted")
	}
	// A nil-rule metric never halts by itself.
	c := NewAdaptiveMetric("c", nil)
	c.Add(1)
	if c.Done() || StopWhenAll(c)() {
		t.Fatal("nil-rule metric halted")
	}
}

// TestStreamAdaptiveParallelismInvariance repeats the engine's core
// guarantee on the GOMAXPROCS level used by the -race CI job.
func TestStreamAdaptiveParallelismInvariance(t *testing.T) {
	cfg, err := conf.Uniform(1500, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRes := adaptiveAggregates(t, cfg, 1, 80, 29)
	for _, par := range []int{2, runtime.GOMAXPROCS(0)} {
		got, res := adaptiveAggregates(t, cfg, par, 80, 29)
		if got != want || res != wantRes {
			t.Fatalf("parallelism %d diverged: %s %+v vs %s %+v", par, got, res, want, wantRes)
		}
	}
}
