package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/fenwick"
	"repro/internal/rng"
	"repro/internal/u128"
)

// span is one timed call the benchmark made into a layer: its name, the
// span that caused it (-1 for a root) and its start and end as offsets
// from the tracer's epoch.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps a run's spans in memory.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id; a nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = time.Since(t.epoch)
	}
}

// named returns the spans with the given name, in start order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// self returns span id's duration less the time its direct children cover
// (children of one span never overlap: the benchmark is single-threaded).
func (t *tracer) self(id int) time.Duration {
	d := t.spans[id].dur()
	for _, s := range t.spans {
		if s.parent == id {
			d -= s.dur()
		}
	}
	return d
}

// counter is a core.Watcher that counts how a run applied its events.
type counter struct {
	exact, windows, windowEvents int64
}

// Watch implements core.Watcher.
func (c *counter) Watch(_ *core.Simulator, ev core.Event) {
	switch ev.Kind {
	case core.EventAdopt, core.EventUndecide:
		c.exact++
	case core.EventBatch:
		c.windows++
		c.windowEvents += ev.Count
	}
}

// traced replays the first j.replay trials of the seed — untraced, traced,
// untraced again — times the rng and fenwick primitives at the workload's
// parameters, runs the same trials sharded, and reports the per-layer
// metrics. It fails if the sharded fold differs from the replay.
func (j *job) traced(seed uint64) (rep report, err error) {
	rep = report{Metrics: map[string]metric{}}
	units := map[string]string{}
	for _, l := range layerMetrics {
		units[l.name] = l.unit
	}
	put := func(name string, v float64) { rep.Metrics[name] = metric{v, units[name]} }
	var all tally // every trial the run attempted, on every path
	defer func() { rep.Attempted, rep.Failed = all.attempted, all.failed }()

	// Untraced passes run before and after the traced one, so warm-up and
	// drift during the run do not masquerade as tracing overhead, and the
	// faster of the two, the one other tenants of the host slowed less,
	// is the reference for the overhead and the parallel efficiency.
	plainPass := func() time.Duration {
		start := time.Now()
		experiment.Stream(j.replay, 1, seed, j.plainTrial, func(_ int, o outcome) { all.add(j, o) })
		return time.Since(start)
	}
	plainWall := plainPass()

	tr := newTracer(3*j.replay + 3)
	var c counter
	var replay tally
	ref := make([]outcome, j.replay)
	start := time.Now()
	stream := tr.begin("experiment.stream", -1)
	experiment.Stream(j.replay, 1, seed, func(_ int, src *rng.Source, a *experiment.Arena) outcome {
		return j.trial(src, a, tr, stream, &c)
	}, func(i int, o outcome) {
		replay.add(j, o)
		ref[i] = o
	})
	tr.end(stream)
	tracedWall := time.Since(start)
	plainWall = min(plainWall, plainPass())
	all.attempted += replay.attempted
	all.failed += replay.failed
	if err := j.checkBracket(replay); err != nil {
		return rep, err
	}

	trials := float64(j.replay)
	put("core.interactions_per_trial", replay.interactions.Float64()/trials)
	put("core.exact_events_per_trial", float64(c.exact)/trials)
	put("core.windows_per_trial", float64(c.windows)/trials)
	put("core.window_events_mean", ratio(float64(c.windowEvents), float64(c.windows)))
	put("core.batched_share", ratio(float64(c.windowEvents), float64(c.windowEvents+c.exact)))
	runs := tr.named("core.run")
	put("core.run_ms_p50", percentile(runs, 0.50).Seconds()*1e3)
	put("core.run_ms_p99", percentile(runs, 0.99).Seconds()*1e3)
	put("experiment.arena_reset_us", meanNs(tr.named("experiment.arena"))/1e3)
	put("experiment.engine_overhead_frac", ratio(float64(tr.self(stream)), float64(tr.spans[stream].dur())))
	put("trace.overhead_frac", 1-plainWall.Seconds()/tracedWall.Seconds())

	m := int64(math.Max(1, math.Round(ratio(float64(c.windowEvents), float64(c.windows)))))
	if err := j.micro(seed, m, put); err != nil {
		return rep, err
	}

	wall, err := j.shardedPass(seed, tr, ref, &all, put)
	if err != nil {
		return rep, err
	}
	// The untraced replay ran the same trials on one core.
	put("dist.parallel_efficiency", plainWall.Seconds()/(shards*wall.Seconds()))
	rep.Correct = true
	return rep, nil
}

// shardedPass runs the replayed trials on the job's shard workers — as a
// consensus cell with its checkpoint for cell workloads — with a span
// around every result decode, folds them into t, checks the fold against
// the in-process replay ref, and returns the sharded wall time.
func (j *job) shardedPass(seed uint64, tr *tracer, ref []outcome, t *tally, put func(string, float64)) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	id := tr.begin("dist.setup", -1)
	err = j.warmUp(seed)
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s warm-up: %w", j.name, err)
	}
	put("dist.setup_ms", tr.spans[id].dur().Seconds()*1e3)

	opts := j.options(j.replay, seed)
	var stop func() bool
	var state dist.State
	var cell *experiment.ConsensusCellState
	if j.cell {
		cell = &experiment.ConsensusCellState{
			Metric: experiment.NewAdaptiveMetric("consensus T", experiment.ConsensusRule(cellRel, j.replay)),
		}
		stop, state = experiment.StopWhenAll(cell.Metric), dist.JSONState{V: cell}
		opts.CheckpointPath = filepath.Join(dir, "cell.json")
		opts.Policy = experiment.ConsensusPolicy(cellRel)
	}
	var resultBytes, mismatched int64
	run := tr.begin("dist.run", -1)
	res, err := dist.Run(opts, func(i int, data []byte) error {
		id := tr.begin("experiment.decode", run)
		o := decode(data)
		tr.end(id)
		if o.err != nil {
			return o.err
		}
		resultBytes += int64(len(data))
		t.add(j, o)
		if o.t != ref[i].t || o.winner != ref[i].winner || o.kind != ref[i].kind {
			mismatched++
		}
		if cell != nil {
			// The fold experiment.RunShardedConsensus applies.
			if o.kind == core.OutcomeConsensus.String() {
				cell.Metric.Add(o.t.Float64())
			} else {
				cell.Failed++
			}
		}
		return nil
	}, stop, state)
	tr.end(run)
	t.failed += int64(res.Relaunches + res.Requeued)
	if err != nil {
		return 0, fmt.Errorf("%s sharded pass: %w", j.name, err)
	}
	if mismatched > 0 || (res.Trials != len(ref) && !res.Stopped) {
		return 0, fmt.Errorf("%s: %d of %d sharded results differ from the in-process replay of %d trials",
			j.name, mismatched, res.Trials, len(ref))
	}

	decodes := tr.named("experiment.decode")
	gaps := make([]span, 0, len(decodes))
	for i := 1; i < len(decodes); i++ {
		gaps = append(gaps, span{start: decodes[i-1].start, end: decodes[i].start})
	}
	wall := tr.spans[run].dur()
	put("experiment.result_decode_ns", meanNs(decodes))
	put("experiment.result_bytes", ratio(float64(resultBytes), float64(res.Trials)))
	put("dist.waves", float64(res.Waves))
	put("dist.wave_us", ratio(wall.Seconds()*1e6, float64(res.Waves)))
	put("dist.fold_gap_us_p50", percentile(gaps, 0.50).Seconds()*1e6)
	put("dist.fold_gap_us_p99", percentile(gaps, 0.99).Seconds()*1e6)
	put("dist.relaunches", float64(res.Relaunches))
	put("dist.requeued", float64(res.Requeued))
	checkpoint := 0.0
	if opts.CheckpointPath != "" {
		fi, err := os.Stat(opts.CheckpointPath)
		if err != nil {
			return 0, err
		}
		checkpoint = float64(fi.Size())
	}
	put("dist.checkpoint_bytes", checkpoint)
	return wall, nil
}

// sinkU64 keeps the compiler from discarding the timed calls' results.
var sinkU64 uint64

// micro times the rng and fenwick primitives and the exact step at the
// workload's start configuration: its productive weight W and n², windows
// of m events over its k supports.
func (j *job) micro(seed uint64, m int64, put func(string, float64)) error {
	src := rng.New(rng.Derive(seed, math.MaxUint64))
	sim, err := core.New(j.cfg, src, j.opts...)
	if err != nil {
		return err
	}
	p := sim.ProductiveProbability()
	n2 := u128.Mul64(uint64(j.n), uint64(j.n))
	w := u128.FromFloat64(p * n2.Float64())
	var x uint64

	// Exact steps in blocks from the start, so no block nears absorption.
	const steps, block = 1 << 18, 256
	var busy time.Duration
	for done := 0; done < steps; done += block {
		if err := sim.Reset(j.cfg, src); err != nil {
			return err
		}
		t0 := time.Now()
		for range block {
			x += uint64(sim.StepProductive().Count)
		}
		busy += time.Since(t0)
	}
	put("core.step_productive_ns", float64(busy.Nanoseconds())/steps)

	const draws = 1 << 20
	t0 := time.Now()
	for range draws {
		x ^= src.Uint128n(w).Lo
	}
	put("rng.uint128n_ns", perOp(t0, draws))
	t0 = time.Now()
	for range draws {
		x ^= src.GeometricU128(p).Lo
	}
	put("rng.geometric_u128_ns", perOp(t0, draws))

	const windows = 1 << 16
	t0 = time.Now()
	for range windows {
		x ^= uint64(src.Binomial(m, 0.5))
	}
	put("rng.binomial_ns", perOp(t0, windows))
	t0 = time.Now()
	for range windows {
		x ^= src.NegativeBinomialU128(m, p).Lo
	}
	put("rng.negbin_u128_ns", perOp(t0, windows))
	weights := make([]float64, j.k)
	for i, s := range j.cfg.Support {
		weights[i] = float64(s)
	}
	counts := make([]int64, j.k)
	const splits = 1 << 13
	t0 = time.Now()
	for range splits {
		x ^= uint64(src.Multinomial(m, weights, counts)[0])
	}
	put("rng.multinomial_ns", perOp(t0, splits))

	tree := fenwick.DualFromSlice(j.cfg.Support)
	const updates = 1 << 19
	t0 = time.Now()
	for i := range updates {
		tree.Add(i%j.k, 1)
		tree.Add(i%j.k, -1)
	}
	put("fenwick.add_ns", perOp(t0, 2*updates))
	d := tree.Sum()
	total := tree.TotalWeighted(d)
	thresholds := make([]u128.U128, 4096)
	for i := range thresholds {
		thresholds[i] = src.Uint128n(total)
	}
	t0 = time.Now()
	for i := range updates {
		x += uint64(tree.FindWeighted(d, thresholds[i%len(thresholds)]))
	}
	put("fenwick.find_weighted_ns", perOp(t0, updates))
	const rebuilds = 1 << 14
	t0 = time.Now()
	for range rebuilds {
		tree.SetAll(j.cfg.Support)
	}
	put("fenwick.setall_ns", perOp(t0, rebuilds))
	sinkU64 = x
	return nil
}

// perOp is the nanoseconds per call of ops calls timed from t0.
func perOp(t0 time.Time, ops int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank q-quantile of the spans' durations, 0 for
// no spans.
func percentile(spans []span, q float64) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	ds := make([]time.Duration, len(spans))
	for i, s := range spans {
		ds[i] = s.dur()
	}
	slices.Sort(ds)
	return ds[max(0, int(math.Ceil(q*float64(len(ds))))-1)]
}

// meanNs is the mean duration of the spans in nanoseconds, 0 for no spans.
func meanNs(spans []span) float64 {
	var sum time.Duration
	for _, s := range spans {
		sum += s.dur()
	}
	return ratio(float64(sum), float64(len(spans)))
}
