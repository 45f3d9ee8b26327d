package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bounds"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/u128"
)

// shards is the worker count of the sharded workloads; with the core
// budget equal to it, each worker gets one of the two cores.
const shards = 2

// cellRel is the sharded-fleet cell's CI target, ±0.5% at 95%: tighter than
// 200 consensus times at n=10⁴ can resolve, so every cell runs to its cap.
const cellRel = 0.005

// workload is one benchmark input family.
type workload struct {
	name    string
	n       int64
	k       int
	variant string       // core.ParseVariantSpec form; "" is classic
	budget  int64        // interactions per trial; 0 runs to absorption
	want    core.Outcome // the outcome every trial must reach
	sharded bool         // dist on 2 shards instead of in-process
	cell    bool         // sharded: an experiment.RunShardedConsensus cell
	fleet   int          // sharded: trials per dist.Run (the cell's cap)
	replay  int          // -trace: trials replayed
}

// workloads are the benchmark's workloads; the package comment gives the
// reason for each.
var workloads = []workload{
	{name: "small-n", n: 1_000, k: 32, want: core.OutcomeConsensus, replay: 500},
	{name: "many-opinions", n: 1_000_000_000, k: 128, want: core.OutcomeConsensus, replay: 3},
	{name: "stubborn", n: 10_000, k: 32, variant: stubbornSpec(32, 100), want: core.OutcomeDominance, replay: 320},
	{name: "sharded-fleet", n: 10_000, k: 32, want: core.OutcomeConsensus, sharded: true, cell: true, fleet: 200, replay: 160},
	{name: "dispatch-bound", n: 10_000, k: 32, budget: 1, want: core.OutcomeBudget, sharded: true, fleet: 100_000, replay: 100_000},
}

// tinyTrials, when positive, caps every fleet and replay at that many
// trials; tests set it to run each workload quickly.
var tinyTrials int

// stubbornSpec returns "stubborn:b,0,…,0" over k opinions.
func stubbornSpec(k int, b int64) string {
	counts := make([]string, k)
	for i := range counts {
		counts[i] = "0"
	}
	counts[0] = strconv.FormatInt(b, 10)
	return "stubborn:" + strings.Join(counts, ",")
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// job is a workload made ready to run: its start configuration, kernel,
// simulator options, wire spec and worker launcher (which the in-process
// workloads use only for the traced sharded pass).
type job struct {
	workload
	cfg      *conf.Config
	kern     core.Kernel
	opts     []core.Option // nil for classic, as the shard workers do
	budget   u128.U128
	spec     experiment.ShardSpec
	wire     []byte
	launcher *dist.ExecLauncher
}

// prepare builds a job; it is the configuration-and-spec part of set-up.
func prepare(w workload) (*job, error) {
	if tinyTrials > 0 {
		w.fleet = min(w.fleet, tinyTrials)
		w.replay = min(w.replay, tinyTrials)
	}
	cfg, err := conf.Uniform(w.n, w.k, 0)
	if err != nil {
		return nil, err
	}
	v, err := core.ParseVariantSpec(w.variant)
	if err != nil {
		return nil, err
	}
	v.Configure(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dyn, err := v.Dynamics()
	if err != nil {
		return nil, err
	}
	j := &job{
		workload: w,
		cfg:      cfg,
		kern:     core.KernelAuto(core.DefaultTolerance),
		budget:   u128.From64(w.budget),
		// This binary self-exec'd, each worker on one of the budget's cores.
		launcher: dist.SelfExecLauncher(),
	}
	j.launcher.CoreBudget = shards
	if !v.Classic() {
		j.opts = []core.Option{core.WithDynamics(dyn)}
	}
	j.spec = experiment.NewShardSpec(cfg, v, j.kern, j.budget, 0, false)
	j.wire, err = j.spec.Encode()
	return j, err
}

// options returns the dist options of a run of up to max trials of the
// job on its launcher, at the default wave.
func (j *job) options(max int, seed uint64) dist.Options {
	return dist.Options{
		Shards:    shards,
		MaxTrials: max,
		Seed:      seed,
		Spec:      j.wire,
		Launcher:  j.launcher,
	}
}

// warmUp runs one 1-interaction trial of the job's configuration on its
// launcher: worker spawn, handshake and halt, with no simulation to speak
// of.
func (j *job) warmUp(seed uint64) error {
	spec := j.spec
	spec.BudgetHi, spec.BudgetLo = 0, 1
	wire, err := spec.Encode()
	if err != nil {
		return err
	}
	opts := j.options(1, seed)
	opts.Spec = wire
	_, err = dist.Run(opts, func(int, []byte) error { return nil }, nil, nil)
	return err
}

// outcome is one trial's result as both paths see it.
type outcome struct {
	t      u128.U128
	winner int
	kind   string // core.Outcome.String(), the wire form
	err    error
}

// trial runs one trial in process exactly as a shard worker runs it: an
// option-free arena reset for classic jobs, the auto kernel, one Run. The
// traced replay passes a tracer, which records spans under parent around
// the reset and the run, and a watcher for the run; untraced runs pass nil
// for both.
func (j *job) trial(src *rng.Source, a *experiment.Arena, tr *tracer, parent int, w core.Watcher) outcome {
	id := tr.begin("experiment.arena", parent)
	s, err := a.Simulator(j.cfg, src, j.opts...)
	tr.end(id)
	if err != nil {
		return outcome{err: err}
	}
	s.SetKernel(j.kern)
	id = tr.begin("core.run", parent)
	var r core.Result
	if w != nil {
		r = s.RunWatched(j.budget, w)
	} else {
		r = s.Run(j.budget)
	}
	tr.end(id)
	return outcome{t: r.Interactions, winner: r.Winner, kind: r.Outcome.String()}
}

// plainTrial is trial i without tracing, in the trial engine's signature.
func (j *job) plainTrial(_ int, src *rng.Source, a *experiment.Arena) outcome {
	return j.trial(src, a, nil, -1, nil)
}

// decode turns a shard worker's wire result into an outcome.
func decode(data []byte) outcome {
	var r experiment.ShardResult
	if err := json.Unmarshal(data, &r); err != nil {
		return outcome{err: err}
	}
	return outcome{t: r.Interactions(), winner: r.Winner, kind: r.Outcome}
}

// tally folds trial outcomes into the counts the report needs.
type tally struct {
	attempted, failed int64
	interactions      u128.U128
}

// add folds one outcome, counting it failed unless it reached the job's
// outcome (and, under a budget, exactly the budget).
func (t *tally) add(j *job, o outcome) {
	t.attempted++
	t.interactions = t.interactions.Add(o.t)
	if o.err != nil || o.kind != j.want.String() || (!j.budget.IsZero() && o.t != j.budget) {
		t.failed++
	}
}

// checkBracket fails a classic consensus run whose mean consensus time
// leaves the theoretical envelope.
func (j *job) checkBracket(t tally) error {
	if j.variant != "" || j.want != core.OutcomeConsensus || t.attempted == 0 {
		return nil
	}
	mean := t.interactions.Float64() / float64(t.attempted)
	if lo, hi, ok := bounds.Bracket(j.n, j.k, mean); !ok {
		return fmt.Errorf("%s: mean consensus time %.4g outside the bounds envelope [%.4g, %.4g]", j.name, mean, lo, hi)
	}
	return nil
}

// segment is the timing unit of an untraced run: trials_per_s and
// ns_per_interaction are medians over segments of at least this length, so
// a burst of contention from other tenants of the host that is shorter
// than half the run moves neither.
const segment = time.Second

// The host is shared, and the load of its other tenants changes its speed
// for milliseconds to minutes at a time, up to halving it, for every
// workload at once. So the benchmark times bursts of a fixed reference
// loop next to its own work — between trials, between sharded fleets, after
// each batch of set-ups, where nothing else of the benchmark runs — and
// scales every end-to-end time to the host speed at which that loop takes
// refNominalNs per iteration. The loop is benchmark code, so a change to
// the repository moves the workloads but never the reference.
const (
	refEvery     = 40 * time.Millisecond // work per burst
	refBurst     = 1 << 18               // iterations per burst, about a millisecond
	refNominalNs = 5.0                   // about its speed between trials on a quiet 2-vCPU Xeon VM
	refTableLen  = 1 << 13               // 64 KiB, a working set between L1 and L2
)

var (
	refTable [refTableLen]uint64
	refSink  uint64
)

// reference runs iters iterations of the reference loop, an xorshift
// generator updating and reading refTable with a data-dependent branch,
// and returns how long they took.
func reference(iters int) time.Duration {
	start := time.Now()
	x := refSink | 1
	for range iters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		i := x & (refTableLen - 1)
		refTable[i] += x
		if x&3 == 0 {
			refSink += refTable[(i*7)&(refTableLen-1)]
		}
	}
	return time.Since(start)
}

// slowdown is how many times slower than nominal the host ran iters
// iterations of the reference loop that took d.
func slowdown(d time.Duration, iters int) float64 {
	return float64(d.Nanoseconds()) / float64(iters) / refNominalNs
}

// meter cuts a timed closed loop into segments between trials, and times a
// batch of set-ups after each segment, outside the segments' time.
type meter struct {
	mark         time.Time // start of the open segment
	lastRef      time.Time // end of the last reference burst
	trials       int64
	interactions u128.U128
	refTime      time.Duration // reference bursts within the open segment
	refIters     int
	perSecond    []float64 // scaled trials/s of each closed segment
	nsPer        []float64 // scaled ns per simulated interaction of each closed segment

	setUpBatch func() (float64, error)
	perSetUp   []float64 // scaled time per set-up of each batch
	err        error     // the first set-up error
}

func newMeter(setUpBatch func() (float64, error)) *meter {
	now := time.Now()
	return &meter{mark: now, lastRef: now, setUpBatch: setUpBatch}
}

// fold records trials that finished with their interactions.
func (m *meter) fold(trials int64, interactions u128.U128) {
	m.trials += trials
	m.interactions = m.interactions.Add(interactions)
}

// pause is called between trials, or between fleets when they run
// sharded: it runs reference bursts in proportion to the work since the
// last ones, and closes the open segment once it has lasted a segment.
func (m *meter) pause() {
	if since := time.Since(m.lastRef); since >= refEvery {
		m.calibrate(int(since / refEvery))
	}
	if now := time.Now(); now.Sub(m.mark) >= segment {
		m.close(now)
	}
}

// calibrate times bursts reference bursts into the open segment.
func (m *meter) calibrate(bursts int) {
	m.refTime += reference(bursts * refBurst)
	m.refIters += bursts * refBurst
	m.lastRef = time.Now()
}

// close ends the open segment at now, scaling its throughput by how much
// slower than nominal the reference ran in it, times a set-up batch, and
// opens the next segment.
func (m *meter) close(now time.Time) {
	work := now.Sub(m.mark) - m.refTime
	slow := slowdown(m.refTime, m.refIters)
	m.perSecond = append(m.perSecond, float64(m.trials)/work.Seconds()*slow)
	m.nsPer = append(m.nsPer, float64(work.Nanoseconds())/m.interactions.Float64()/slow)
	if m.err == nil {
		var s float64
		s, m.err = m.setUpBatch()
		m.perSetUp = append(m.perSetUp, s)
	}
	m.trials, m.interactions, m.refTime, m.refIters = 0, u128.U128{}, 0, 0
	m.mark = time.Now()
	m.lastRef = m.mark
}

// finish closes the trailing segment if it lasted half a segment or no
// segment has closed yet.
func (m *meter) finish() {
	if m.trials > 0 && (len(m.perSecond) == 0 || time.Since(m.mark) >= segment/2) {
		m.calibrate(1)
		m.close(time.Now())
	}
}

// untraced runs the timed closed loop for d and reports the end-to-end
// metrics.
func (j *job) untraced(seed uint64, d time.Duration) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	setUpBatch := func() (float64, error) { return j.setUpBatch(seed) }
	// An untimed batch first lets lazy initialisation and heap growth
	// finish.
	if _, err := setUpBatch(); err != nil {
		return rep, err
	}

	var t tally
	var err error
	m := newMeter(setUpBatch)
	deadline := m.mark.Add(d)
	timeUp := func() bool { return !time.Now().Before(deadline) }
	switch {
	case j.cell:
		err = j.runCells(seed, timeUp, &t, m)
	case j.sharded:
		err = j.runFleets(seed, timeUp, &t, m)
	default:
		j.runInProcess(seed, timeUp, &t, m)
	}
	m.finish()
	rep.Attempted, rep.Failed = t.attempted, t.failed
	if err != nil {
		return rep, err
	}
	if m.err != nil {
		return rep, fmt.Errorf("%s set-up: %w", j.name, m.err)
	}
	if err := j.checkBracket(t); err != nil {
		return rep, err
	}
	rep.Correct = true
	rep.Metrics["trials_per_s"] = metric{median(m.perSecond), "trials/s"}
	rep.Metrics["ns_per_interaction"] = metric{median(m.nsPer), "ns"}
	rep.Metrics["setup_s"] = metric{median(m.perSetUp), "s"}
	rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return rep, nil
}

// setUpBatch times one batch of set-ups and returns the time per set-up,
// scaled by a reference burst timed right after the batch. The meter runs
// a batch after every segment, so that setup_s, their median, samples the
// host over the whole run: batches timed back to back read up to 60% apart
// from one run to the next, as other tenants' use of the memory system
// slows the allocating set-ups far more than it slows the reference.
// In-process batches hold many set-ups so that each lasts milliseconds; a
// sharded set-up already does. Each batch starts from a collected heap, so
// that no batch pays for another's garbage.
func (j *job) setUpBatch(seed uint64) (float64, error) {
	size := 256
	if j.sharded {
		size = 1
	}
	runtime.GC()
	start := time.Now()
	for range size {
		if err := j.setUp(seed); err != nil {
			return 0, err
		}
	}
	d := time.Since(start)
	return d.Seconds() / float64(size) / slowdown(reference(refBurst), refBurst), nil
}

// setUp is one set-up of the workload: the configuration, wire spec and
// launcher, then the first Arena.Simulator in process or a warm-up run of
// the workers sharded.
func (j *job) setUp(seed uint64) error {
	fresh, err := prepare(j.workload)
	if err != nil {
		return err
	}
	if j.sharded {
		return fresh.warmUp(seed)
	}
	var a experiment.Arena
	src := rng.New(rng.Derive(seed, 0))
	_, err = a.Simulator(fresh.cfg, src, fresh.opts...)
	return err
}

// runInProcess streams trials 0, 1, 2, … through the trial engine at
// parallelism 1 until timeUp.
func (j *job) runInProcess(seed uint64, timeUp func() bool, t *tally, m *meter) {
	experiment.StreamAdaptive(
		experiment.AdaptiveOptions{MaxTrials: math.MaxInt32, Parallelism: 1, Seed: seed},
		j.plainTrial,
		func(_ int, o outcome) {
			t.add(j, o)
			m.fold(1, o.t)
			m.pause()
		},
		timeUp)
}

// runFleets runs fleets of j.fleet trials through dist.Run until timeUp; a
// fleet still running then stops after its next fold. Every fleet runs
// trials 0 to j.fleet-1 of the seed; fleets are sized to last about a
// timing segment, which closes only between them.
func (j *job) runFleets(seed uint64, timeUp func() bool, t *tally, m *meter) error {
	for first := true; first || !timeUp(); first = false {
		res, err := dist.Run(j.options(j.fleet, seed), func(_ int, data []byte) error {
			o := decode(data)
			t.add(j, o)
			m.fold(1, o.t)
			return nil
		}, timeUp, nil)
		t.failed += int64(res.Relaunches + res.Requeued)
		if err != nil {
			return fmt.Errorf("%s fleet: %w", j.name, err)
		}
		m.pause()
	}
	return nil
}

// runCells runs whole sharded consensus cells, each checkpointing into a
// fresh file, until timeUp. Like fleets, cells all run the same trials and
// are sized to last about a timing segment.
func (j *job) runCells(seed uint64, timeUp func() bool, t *tally, m *meter) error {
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for c := 0; c == 0 || !timeUp(); c++ {
		metric := experiment.NewAdaptiveMetric("consensus T", experiment.ConsensusRule(cellRel, j.fleet))
		res, failed, err := experiment.RunShardedConsensus(j.spec, metric, experiment.ShardRunOptions{
			Shards:     shards,
			MaxTrials:  j.fleet,
			Seed:       seed,
			Launcher:   j.launcher,
			Checkpoint: filepath.Join(dir, fmt.Sprintf("cell-%d.json", c)),
			Policy:     experiment.ConsensusPolicy(cellRel),
		})
		t.attempted += int64(res.Trials)
		t.failed += int64(failed + res.Relaunches + res.Requeued)
		if err != nil {
			return fmt.Errorf("%s cell %d: %w", j.name, c, err)
		}
		// The cell folds consensus times as float64; their sum is exact to
		// well under a part in 10¹² at these magnitudes.
		sum := u128.FromFloat64(metric.Online.Mean() * float64(metric.Online.N()))
		t.interactions = t.interactions.Add(sum)
		m.fold(int64(res.Trials), sum)
		m.pause()
	}
	return nil
}

// median returns the median of xs, which it sorts, or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// peakRSSMB is the larger of this process's and its largest reaped child's
// peak resident set, in MiB. This process's is its VmHWM: getrusage's
// RUSAGE_SELF maxrss would also carry the high-water mark of whatever
// exec'd it, here the Python runner's, which is larger. A worker's maxrss
// carries at most this process's, which is measured anyway.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	var selfKB int64 = -1
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			selfKB, err = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
			if err != nil {
				return math.NaN()
			}
		}
	}
	var children syscall.Rusage
	if selfKB < 0 || syscall.Getrusage(syscall.RUSAGE_CHILDREN, &children) != nil {
		return math.NaN()
	}
	return float64(max(selfKB, children.Maxrss)) / 1024
}
