package experiment

import (
	"runtime"
	"sync"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/phase"
	"repro/internal/rng"
	"repro/internal/u128"
)

// The trial engine runs Monte-Carlo trials across one bounded, in-order
// worker pool (run), behind three doors: Stream for trials [0, n),
// StreamIndices for an explicit index list (a shard's share), and
// StreamAdaptive for a capped run with a stopping predicate. Each worker
// owns an Arena — a simulator, a phase tracker, and a randomness source that
// are re-seeded in place between trials — so fleet-scale sweeps pay the
// allocation cost of core.New once per worker instead of once per trial.
// Every trial draws its randomness from an independent stream derived
// deterministically from (seed, index), core.Simulator.Reset re-initializes
// state exhaustively, and results are folded in index order on the calling
// goroutine, so the folds are byte-identical at every parallelism level
// (see the determinism tests).
//
// A configuration-level USD cell does not call these doors directly: it
// states its trial as a ShardSpec and runs through RunCell (shard.go), in
// process or sharded, which runs runShardTrial on this engine. Stream
// remains the door for trials a spec cannot express — a stopping
// predicate, a simulator option outside the spec, a trajectory recorder,
// or another engine.

// Arena is the per-worker reusable state of the trial engine: every trial
// callback of Stream, StreamIndices and StreamAdaptive receives its
// worker's Arena. Trial callbacks may use its Simulator and Tracker helpers
// instead of core.New and phase.NewTracker to run allocation-free after the
// first trial; the zero value is ready to use. An Arena (and everything
// obtained from it) must not be shared between goroutines or retained past
// the callback.
type Arena struct {
	src     rng.Source
	sim     *core.Simulator
	tracker *phase.Tracker
}

// source re-seeds the arena's randomness source in place for trial i of the
// stream family seed; the state is exactly rng.New(rng.Derive(seed, i)).
func (a *Arena) source(seed uint64, i int) *rng.Source {
	a.src.Reseed(rng.Derive(seed, uint64(i)))
	return &a.src
}

// Simulator returns the arena's simulator re-initialized to configuration c
// and source src with the given options applied. The first call constructs
// it; later calls reuse its Fenwick tree and batch scratch via core.Reset,
// re-applying the options, so trials may vary configuration and options
// freely within one engine invocation.
func (a *Arena) Simulator(c *conf.Config, src *rng.Source, opts ...core.Option) (*core.Simulator, error) {
	if a.sim == nil {
		sim, err := core.New(c, src, opts...)
		if err != nil {
			return nil, err
		}
		a.sim = sim
		return sim, nil
	}
	if err := a.sim.Reset(c, src, opts...); err != nil {
		return nil, err
	}
	return a.sim, nil
}

// Tracker returns the arena's phase tracker reset for a new run with the
// given options applied, keeping only its allocated scratch across trials.
func (a *Arena) Tracker(opts ...phase.Option) *phase.Tracker {
	if a.tracker == nil {
		a.tracker = phase.NewTracker(opts...)
		return a.tracker
	}
	a.tracker.Reset(opts...)
	return a.tracker
}

// clampParallelism resolves the worker count.
func clampParallelism(trials, parallelism int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > trials {
		parallelism = trials
	}
	return parallelism
}

// Stream runs fn for every trial index in [0, trials) across the worker
// pool and delivers each output to sink exactly once, in trial-index order,
// on the calling goroutine. It never materializes the full result slice:
// at most 4·parallelism trials run ahead of the sink, so million-trial
// sweeps can fold into online aggregators (stats.Online, stats.P2) in
// constant memory, and a caller that wants the slice writes out[i] = v in
// its sink. In-order delivery makes order-sensitive floating-point
// aggregation byte-identical at every parallelism level.
func Stream[T any](trials, parallelism int, seed uint64, fn func(i int, src *rng.Source, a *Arena) T, sink func(i int, v T)) {
	run(trials, parallelism, seed, func(pos int) int { return pos }, fn, sink, nil)
}

// StreamIndices is Stream over an explicit list of global trial indices:
// the trial at position j runs index indices[j] and draws its randomness
// from rng.Derive(seed, indices[j]) — exactly the stream it would receive
// in a full [0, trials) run — and results are delivered to sink in slice
// order, tagged with the global index. It is the shard entry point of the
// distributed engine (internal/dist): a shard dealt any subset of indices
// reproduces, trial for trial, the work a single-process run would do for
// those indices, which is what makes coordinator folds byte-identical to
// in-process runs at every shard count.
func StreamIndices[T any](indices []int, parallelism int, seed uint64, fn func(i int, src *rng.Source, a *Arena) T, sink func(i int, v T)) {
	run(len(indices), parallelism, seed, func(pos int) int { return indices[pos] }, fn, sink, nil)
}

// run is the trial engine's one worker pool, behind Stream, StreamIndices
// and StreamAdaptive. It runs count trials, the one at position pos running
// global index i = index(pos) on the stream rng.Derive(seed, i), and folds
// their outputs into sink in position order on the calling goroutine. When
// stop is non-nil it is consulted after every fold, and the run ends at the
// first fold it reports true. run returns the number of folded trials and
// whether stop ended the run.
//
// The parallel path keeps at most window = 4·parallelism trials dispatched
// past the last fold, which bounds both the reorder buffer and, when stop
// fires at fold T, the wasted work: no trial at position T+window or later
// is ever started. On stop, run takes back the dispatched trials no worker
// has started and waits for the running ones, so no goroutine outlives the
// call.
func run[T any](count, parallelism int, seed uint64, index func(pos int) int, fn func(i int, src *rng.Source, a *Arena) T, sink func(i int, v T), stop func() bool) (folded int, stopped bool) {
	if count <= 0 {
		return 0, false
	}
	parallelism = clampParallelism(count, parallelism)
	if parallelism == 1 {
		var a Arena
		for pos := 0; pos < count; pos++ {
			i := index(pos)
			sink(i, fn(i, a.source(seed, i), &a))
			if stop != nil && stop() {
				return pos + 1, true
			}
		}
		return count, false
	}

	type slot struct {
		pos int
		v   T
	}
	window := 4 * parallelism
	// Both channels hold a full window, and at most a window of trials is
	// ever dispatched but unfolded, so neither the dispatching sends below
	// nor the workers' result sends can block.
	next := make(chan int, window)
	results := make(chan slot, window)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a Arena
			for pos := range next {
				i := index(pos)
				results <- slot{pos, fn(i, a.source(seed, i), &a)}
			}
		}()
	}
	defer func() {
		close(next)
		for range next {
			// Take back trials no worker has started.
		}
		wg.Wait()
	}()

	dispatched := min(count, window)
	for pos := 0; pos < dispatched; pos++ {
		next <- pos
	}
	// Position pos waits in reorder[pos%window] until every earlier
	// position has been folded.
	reorder := make([]slot, window)
	for pos := range reorder {
		reorder[pos].pos = -1
	}
	for folded < count {
		s := <-results
		reorder[s.pos%window] = s
		for r := &reorder[folded%window]; r.pos == folded; r = &reorder[folded%window] {
			v := r.v
			*r = slot{pos: -1}
			sink(index(folded), v)
			folded++
			if stop != nil && stop() {
				return folded, true
			}
			if dispatched < count {
				next <- dispatched
				dispatched++
			}
		}
	}
	return folded, false
}

// USDRun is the outcome of one tracked USD run; it is the facade's
// usd.Report.
type USDRun = phase.Report

// RunTracked simulates the USD from c to consensus (or budget) with phase
// tracking (phase.Tracker.Run) under the given stepping kernel, reusing the
// arena's simulator and tracker when a is non-nil (pass the *Arena handed
// to a Stream, StreamIndices or StreamAdaptive trial callback; nil
// allocates fresh state). checkEvery controls how often the O(k) phase
// conditions are evaluated; 0 picks a resolution-preserving default —
// per-interval for the exact kernel, per-window for a batched kernel (whose
// observations already cover many events each). Extra simulator options
// (typically core.WithDynamics for a non-classic variant) are applied on
// top; hoist the option value out of per-trial loops to keep them
// allocation-free.
func RunTracked(a *Arena, c *conf.Config, src *rng.Source, budget u128.U128, checkEvery int, kern core.Kernel, opts ...core.Option) (USDRun, error) {
	if checkEvery <= 0 {
		checkEvery = phase.CheckIntervalFor(c.N(), kern)
	}
	if a == nil {
		a = new(Arena)
	}
	// Option-free reset plus SetKernel keeps the default per-trial path
	// free of the closure allocation a WithKernel option would cost
	// (pinned by TestStreamFoldAllocFree).
	s, err := a.Simulator(c, src, opts...)
	if err != nil {
		return USDRun{}, err
	}
	s.SetKernel(kern)
	return a.Tracker(phase.WithCheckInterval(checkEvery)).Run(s, budget), nil
}
