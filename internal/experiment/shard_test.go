package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/phase"
	"repro/internal/rng"
	"repro/internal/u128"
)

// metricFingerprint serializes every order-sensitive bit of an adaptive
// metric, so two fold paths agreeing here agree byte-for-byte.
func metricFingerprint(m *AdaptiveMetric) string {
	o := &m.Online
	return fmt.Sprintf("n=%d mean=%x var=%x min=%x max=%x med=%x stopped=%d",
		o.N(), math.Float64bits(o.Mean()), math.Float64bits(o.Var()),
		math.Float64bits(o.Min()), math.Float64bits(o.Max()),
		math.Float64bits(m.Median.Value()), m.StoppedAt)
}

// consensusTime runs the USD from c to consensus under the given kernel on
// the arena's simulator and returns the interaction count and winner. It
// fails if the budget is exhausted first. It is written directly against
// the simulator, independently of runShardTrial, so the tests below can use
// it as the reference the cell runner is compared against.
func consensusTime(a *Arena, c *conf.Config, src *rng.Source, budget u128.U128, kern core.Kernel, opts ...core.Option) (u128.U128, int, error) {
	s, err := a.Simulator(c, src, opts...)
	if err != nil {
		return u128.U128{}, -1, err
	}
	s.SetKernel(kern)
	res := s.Run(budget)
	if res.Outcome != core.OutcomeConsensus {
		return res.Interactions, -1, fmt.Errorf("experiment: no consensus within %v interactions (outcome %v)", budget, res.Outcome)
	}
	return res.Interactions, res.Winner, nil
}

// TestShardResultPhasesMatchRunTracked pins ShardResult.Phases against the
// phase.Times RunTracked records for the same spec, seed and index, for the
// classic and stubborn dynamics under the exact and auto kernels, both on
// the in-process result and after the result's wire round trip.
func TestShardResultPhasesMatchRunTracked(t *testing.T) {
	const n = 1000
	const seed = 77
	for _, v := range []core.Variant{{}, {Name: "stubborn", Stubborn: []int64{50, 0}}} {
		for _, kern := range []core.Kernel{core.KernelExact, core.KernelAuto(0)} {
			cfg, err := conf.Uniform(n, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			spec := NewShardSpec(cfg, v, kern, u128.Mul64(n, n), 0, true)
			data, err := spec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			c, err := newCellTrials(data)
			if err != nil {
				t.Fatal(err)
			}
			ref := cfg.Clone()
			v.Configure(ref)
			dyn, err := v.Dynamics()
			if err != nil {
				t.Fatal(err)
			}
			var a Arena
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("%v/%s/trial %d", v, kern.Name(), i)
				r, err := runShardTrial(c.spec, c.cfg, c.kern, rng.New(rng.Derive(seed, uint64(i))), &a, c.opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := RunTracked(nil, ref, rng.New(rng.Derive(seed, uint64(i))), spec.Budget(), 0, kern, core.WithDynamics(dyn))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !want.Phases.Reached(1) {
					t.Fatalf("%s: reference run ended no phase", name)
				}
				if got := r.Phases(); got != want.Phases {
					t.Fatalf("%s: Phases() = %+v, RunTracked recorded %+v", name, got, want.Phases)
				}
				var back ShardResult
				if err := json.Unmarshal(r.AppendJSON(nil), &back); err != nil {
					t.Fatal(err)
				}
				if got := back.Phases(); got != want.Phases {
					t.Fatalf("%s: decoded Phases() = %+v, RunTracked recorded %+v", name, got, want.Phases)
				}
			}
		}
	}
	if got := (ShardResult{Outcome: "consensus"}).Phases(); got != phase.NewTimes() {
		t.Fatalf("untracked Phases() = %+v, want phase.NewTimes()", got)
	}
}

// TestTrackedRunStepsLikeUntracked pins that ShardSpec.Tracked selects only
// the result's shape: the phase tracker watches the run without changing
// how it steps, so a tracked and an untracked trial with the same seed and
// index end at the same interaction count, winner and outcome, for every
// kernel, classic and stubborn, below and above the categorical windows'
// small-n regime.
func TestTrackedRunStepsLikeUntracked(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 4
	}
	const seed = 41
	for _, n := range []int64{1000, 20000} {
		for _, v := range []core.Variant{{}, {Name: "stubborn", Stubborn: []int64{n / 20, 0, 0}}} {
			for _, kern := range []core.Kernel{core.KernelExact, core.KernelBatched(0), core.KernelAuto(0)} {
				cfg, err := conf.Uniform(n, 3, 0)
				if err != nil {
					t.Fatal(err)
				}
				var cells [2]*cellTrials
				for i, tracked := range []bool{false, true} {
					data, err := NewShardSpec(cfg, v, kern, core.NoBudget, 0, tracked).Encode()
					if err != nil {
						t.Fatal(err)
					}
					if cells[i], err = newCellTrials(data); err != nil {
						t.Fatal(err)
					}
				}
				var a Arena
				for i := 0; i < trials; i++ {
					var got [2]ShardResult
					for j, c := range cells {
						got[j], err = runShardTrial(c.spec, c.cfg, c.kern, rng.New(rng.Derive(seed, uint64(i))), &a, c.opts...)
						if err != nil {
							t.Fatal(err)
						}
					}
					plain, tracked := got[0], got[1]
					if plain.Interactions() != tracked.Interactions() || plain.Winner != tracked.Winner ||
						plain.Outcome != tracked.Outcome || plain.InitialLeader != tracked.InitialLeader {
						t.Fatalf("n=%d %v %s trial %d: untracked %+v, tracked %+v",
							n, v, kern.Name(), i, plain, tracked)
					}
				}
			}
		}
	}
}

// TestShardSpecRoundTrip pins the spec wire format against its decoder.
func TestShardSpecRoundTrip(t *testing.T) {
	cfg, err := conf.WithAdditiveBias(5000, 6, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	spec := NewShardSpec(cfg, core.Variant{}, core.KernelBatched(0.02), u128.From64(1234), 7, true)
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, gotCfg, gotKern, gotDyn, err := decodeShardSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("spec round trip: %+v vs %+v", got, spec)
	}
	if !reflect.DeepEqual(gotCfg, cfg) {
		t.Fatalf("config round trip: %v vs %v", gotCfg, cfg)
	}
	if gotKern.String() != core.KernelBatched(0.02).String() {
		t.Fatalf("kernel round trip: %v", gotKern)
	}
	if gotDyn != core.Classic {
		t.Fatalf("classic spec decoded to dynamics %q", gotDyn.Name())
	}
	if _, _, _, _, err := decodeShardSpec([]byte(`{"kind":"other/v9"}`)); err == nil {
		t.Fatal("foreign spec kind accepted")
	}
	bad := spec
	bad.Kind = "nope"
	if _, err := bad.Encode(); err == nil {
		t.Fatal("encoding a foreign kind accepted")
	}
}

// TestShardedFixedRunByteIdenticalToStream is the fixed-count acceptance
// property: coordinator runs at 1, 2, and 4 shards must fold exactly the
// per-trial results an in-process Stream produces, field for field.
func TestShardedFixedRunByteIdenticalToStream(t *testing.T) {
	cfg, err := conf.Uniform(2000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 24
	const seed = 99
	spec := NewShardSpec(cfg, core.Variant{}, core.KernelBatched(0), core.NoBudget, 0, true)
	specBytes, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}

	var want []ShardResult
	Stream(trials, 1, seed, func(i int, src *rng.Source, a *Arena) ShardResult {
		r, err := runShardTrial(spec, cfg, core.KernelBatched(0), src, a)
		if err != nil {
			t.Errorf("trial %d: %v", i, err)
		}
		return r
	}, func(_ int, r ShardResult) { want = append(want, r) })

	for _, shards := range []int{1, 2, 4} {
		var got []ShardResult
		res, err := dist.Run(dist.Options{
			Shards:    shards,
			MaxTrials: trials,
			Seed:      seed,
			Spec:      specBytes,
			Launcher:  &dist.PipeLauncher{Build: ShardBuilder(2)},
		}, func(i int, data []byte) error {
			var r ShardResult
			if err := json.Unmarshal(data, &r); err != nil {
				return err
			}
			if i != len(got) {
				return fmt.Errorf("fold out of order: trial %d at position %d", i, len(got))
			}
			got = append(got, r)
			return nil
		}, nil, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Trials != trials {
			t.Fatalf("shards=%d: folded %d trials", shards, res.Trials)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: folded results diverged from in-process Stream", shards)
		}
	}
}

// TestRunShardedConsensusByteIdenticalToStreamAdaptive is the adaptive
// acceptance property: the distributed cell stops at the same trial and
// lands on bit-identical aggregates as the in-process StreamAdaptive loop,
// at every shard count.
func TestRunShardedConsensusByteIdenticalToStreamAdaptive(t *testing.T) {
	cfg, err := conf.Uniform(2000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 40
	const seed = 1234
	rule := ConsensusRule(0.02, cap)

	ref := NewAdaptiveMetric("consensus T", rule)
	failedRef := 0
	refRes := StreamAdaptive(
		AdaptiveOptions{MaxTrials: cap, Parallelism: 4, Seed: seed},
		func(i int, src *rng.Source, a *Arena) float64 {
			tt, _, err := consensusTime(a, cfg, src, core.NoBudget, core.KernelBatched(0))
			if err != nil {
				return math.NaN()
			}
			return tt.Float64()
		},
		func(_ int, v float64) {
			if math.IsNaN(v) {
				failedRef++
				return
			}
			ref.Add(v)
		},
		StopWhenAll(ref))

	spec := NewShardSpec(cfg, core.Variant{}, core.KernelBatched(0), core.NoBudget, 0, false)
	for _, shards := range []int{1, 2, 4} {
		metric := NewAdaptiveMetric("consensus T", rule)
		res, failed, err := RunShardedConsensus(spec, metric, ShardRunOptions{
			Shards:    shards,
			MaxTrials: cap,
			Seed:      seed,
			Launcher:  &dist.PipeLauncher{Build: ShardBuilder(2)},
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Trials != refRes.Trials || res.Stopped != refRes.Stopped || failed != failedRef {
			t.Fatalf("shards=%d: trials=%d stopped=%v failed=%d, want %d/%v/%d",
				shards, res.Trials, res.Stopped, failed, refRes.Trials, refRes.Stopped, failedRef)
		}
		if got, want := metricFingerprint(metric), metricFingerprint(ref); got != want {
			t.Fatalf("shards=%d: aggregates diverged:\n%s\nwant\n%s", shards, got, want)
		}
	}
}

// TestShardedLargeNByteIdenticalAndResumable is the 128-bit-clock
// acceptance test: at n = 10¹⁰ (n² ≈ 10²⁰, past every int64 clock) under
// the auto kernel, sharded runs at 1, 2, and 4 shards fold exactly the
// in-process per-trial results, and a run killed mid-stream resumes from
// its checkpoint to bit-identical aggregates. The auto kernel's window
// leaping keeps a 10¹⁰-agent consensus trial in the milliseconds.
func TestShardedLargeNByteIdenticalAndResumable(t *testing.T) {
	cfg, err := conf.Uniform(10_000_000_000, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 8
	const seed = 424
	kern := core.KernelAuto(0)
	spec := NewShardSpec(cfg, core.Variant{}, kern, core.NoBudget, 0, false)
	specBytes, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}

	var want []ShardResult
	Stream(trials, 1, seed, func(i int, src *rng.Source, a *Arena) ShardResult {
		r, err := runShardTrial(spec, cfg, kern, src, a)
		if err != nil {
			t.Errorf("trial %d: %v", i, err)
		}
		return r
	}, func(_ int, r ShardResult) { want = append(want, r) })
	for i, r := range want {
		if r.Outcome != "consensus" {
			t.Fatalf("trial %d outcome %q at n=1e10", i, r.Outcome)
		}
		if got := r.Interactions(); got.IsZero() {
			t.Fatalf("trial %d: zero interaction clock", i)
		}
	}

	for _, shards := range []int{1, 2, 4} {
		var got []ShardResult
		res, err := dist.Run(dist.Options{
			Shards:    shards,
			MaxTrials: trials,
			Seed:      seed,
			Spec:      specBytes,
			Launcher:  &dist.PipeLauncher{Build: ShardBuilder(1)},
		}, func(i int, data []byte) error {
			var r ShardResult
			if err := json.Unmarshal(data, &r); err != nil {
				return err
			}
			got = append(got, r)
			return nil
		}, nil, nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Trials != trials || !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: folded %d trials, identical=%v", shards, res.Trials, reflect.DeepEqual(got, want))
		}
	}

	// Kill after one wave, then resume from the checkpoint: the folded
	// sequence must match the uninterrupted reference field for field.
	ckpt := filepath.Join(t.TempDir(), "largen.ckpt")
	killWaves := 1
	killedFc := &foldCount{}
	_, err = dist.Run(dist.Options{
		Shards: 2, MaxTrials: trials, Wave: 4, Seed: seed, Spec: specBytes,
		Launcher: &killAfterWaves{
			inner: &dist.PipeLauncher{Build: ShardBuilder(1)}, waves: killWaves},
		CheckpointPath: ckpt,
		MaxRelaunches:  dist.NoRelaunch,
		Log:            io.Discard,
	}, func(i int, data []byte) error { killedFc.N++; return nil }, nil, killedFc)
	if err == nil || !strings.Contains(err.Error(), "injected kill") {
		t.Fatalf("expected injected kill, got %v", err)
	}

	var got []ShardResult
	fc := &foldCount{}
	res, err := dist.Run(dist.Options{
		Shards: 2, MaxTrials: trials, Wave: 4, Seed: seed, Spec: specBytes,
		Launcher:       &dist.PipeLauncher{Build: ShardBuilder(1)},
		CheckpointPath: ckpt,
	}, func(i int, data []byte) error {
		var r ShardResult
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		if i != fc.N {
			return fmt.Errorf("fold out of order: trial %d at position %d", i, fc.N)
		}
		fc.N++
		got = append(got, r)
		return nil
	}, nil, fc)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.ResumedFrom == 0 {
		t.Fatal("resume started from trial 0; the kill left no progress to resume")
	}
	if !reflect.DeepEqual(got, want[res.ResumedFrom:]) {
		t.Fatalf("resumed tail diverged from uninterrupted reference (resumed from %d)", res.ResumedFrom)
	}
}

// foldCount is a minimal checkpointable state: the number of folded trials.
type foldCount struct {
	N int `json:"n"`
}

func (s *foldCount) Snapshot() ([]byte, error) { return json.Marshal(s) }
func (s *foldCount) Restore(b []byte) error    { return json.Unmarshal(b, s) }

// killAfterWaves fails shard 0's command stream once its wave budget is
// spent, simulating a coordinator killed mid-run (after wave w, before the
// next one completes).
type killAfterWaves struct {
	inner dist.Launcher
	waves int
}

func (l *killAfterWaves) Launch(shard, shards int) (*dist.Conn, error) {
	c, err := l.inner.Launch(shard, shards)
	if err != nil || shard != 0 {
		return c, err
	}
	c.W = &killingWriter{w: c.W, remaining: &l.waves}
	return c, nil
}

// killingWriter counts wave commands and injects a write failure when the
// budget runs out.
type killingWriter struct {
	w         io.WriteCloser
	remaining *int
}

func (k *killingWriter) Write(p []byte) (int, error) {
	if len(p) > 1 && dist.MsgType(p[1]) == dist.TypeWave { // one command per Write
		if *k.remaining <= 0 {
			return 0, errors.New("injected kill")
		}
		*k.remaining--
	}
	return k.w.Write(p)
}

func (k *killingWriter) Close() error { return k.w.Close() }

// TestShardedConsensusResumeMidWave is the ISSUE 4 resume regression test
// at the cell level: a sharded adaptive cell killed after wave w resumes
// from its checkpoint and finishes with aggregates bit-identical to an
// uninterrupted run.
func TestShardedConsensusResumeMidWave(t *testing.T) {
	cfg, err := conf.Uniform(2000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 30
	const seed = 77
	// A rule that cannot fire keeps the cell running to the cap, so the
	// kill lands mid-run for sure.
	rule := ConsensusRule(1e-9, cap)
	spec := NewShardSpec(cfg, core.Variant{}, core.KernelBatched(0), core.NoBudget, 0, false)

	full := NewAdaptiveMetric("consensus T", rule)
	fullRes, fullFailed, err := RunShardedConsensus(spec, full, ShardRunOptions{
		Shards: 2, MaxTrials: cap, Wave: 4, Seed: seed,
		Launcher: &dist.PipeLauncher{Build: ShardBuilder(2)},
	})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "cell.ckpt")
	killed := NewAdaptiveMetric("consensus T", rule)
	_, _, err = RunShardedConsensus(spec, killed, ShardRunOptions{
		Shards: 2, MaxTrials: cap, Wave: 4, Seed: seed,
		Launcher:   &killAfterWaves{inner: &dist.PipeLauncher{Build: ShardBuilder(2)}, waves: 3},
		Checkpoint: ckpt,
		// Recovery off: this test is about the kill-then-resume loop, not
		// self-healing (which TestShardedConsensusSurvivesWorkerKill pins).
		MaxRelaunches: dist.NoRelaunch,
		Log:           io.Discard,
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("injected kill")) {
		t.Fatalf("expected injected kill, got %v", err)
	}

	resumed := NewAdaptiveMetric("consensus T", rule)
	res, failed, err := RunShardedConsensus(spec, resumed, ShardRunOptions{
		Shards: 2, MaxTrials: cap, Wave: 4, Seed: seed,
		Launcher:   &dist.PipeLauncher{Build: ShardBuilder(2)},
		Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.ResumedFrom != 12 {
		t.Fatalf("resumed from trial %d, want 12 (3 waves of 4)", res.ResumedFrom)
	}
	if res.Trials != fullRes.Trials || res.Stopped != fullRes.Stopped || failed != fullFailed {
		t.Fatalf("resumed run outcome %+v/%d, want %+v/%d", res, failed, fullRes, fullFailed)
	}
	if got, want := metricFingerprint(resumed), metricFingerprint(full); got != want {
		t.Fatalf("resumed aggregates diverged:\n%s\nwant\n%s", got, want)
	}
}

// killOnceLauncher kills shard 0's first worker incarnation after its wave
// budget, then launches replacements untouched — one clean mid-run death.
type killOnceLauncher struct {
	inner  dist.Launcher
	budget int
	killed bool
}

func (l *killOnceLauncher) Launch(shard, shards int) (*dist.Conn, error) {
	c, err := l.inner.Launch(shard, shards)
	if err != nil || shard != 0 || l.killed {
		return c, err
	}
	l.killed = true
	budget := l.budget
	c.W = &killingWriter{w: c.W, remaining: &budget}
	return c, nil
}

// TestShardedConsensusSurvivesWorkerKill pins self-healing at the cell
// level: the same kind of mid-run worker death as the resume test, with
// recovery left at its default, heals in place — no manual resume — and
// the cell's aggregates stay bit-identical to an undisturbed run.
func TestShardedConsensusSurvivesWorkerKill(t *testing.T) {
	cfg, err := conf.Uniform(2000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 30
	const seed = 77
	rule := ConsensusRule(1e-9, cap)
	spec := NewShardSpec(cfg, core.Variant{}, core.KernelBatched(0), core.NoBudget, 0, false)

	full := NewAdaptiveMetric("consensus T", rule)
	fullRes, fullFailed, err := RunShardedConsensus(spec, full, ShardRunOptions{
		Shards: 2, MaxTrials: cap, Wave: 4, Seed: seed,
		Launcher: &dist.PipeLauncher{Build: ShardBuilder(2)},
	})
	if err != nil {
		t.Fatal(err)
	}

	healed := NewAdaptiveMetric("consensus T", rule)
	res, failed, err := RunShardedConsensus(spec, healed, ShardRunOptions{
		Shards: 2, MaxTrials: cap, Wave: 4, Seed: seed,
		Launcher: &killOnceLauncher{inner: &dist.PipeLauncher{Build: ShardBuilder(2)}, budget: 2},
		Log:      io.Discard,
	})
	if err != nil {
		t.Fatalf("self-heal run: %v", err)
	}
	if res.Relaunches == 0 {
		t.Fatalf("res = %+v, want at least one relaunch", res)
	}
	if res.Trials != fullRes.Trials || res.Stopped != fullRes.Stopped || failed != fullFailed {
		t.Fatalf("healed run outcome %+v/%d, want %+v/%d", res, failed, fullRes, fullFailed)
	}
	if got, want := metricFingerprint(healed), metricFingerprint(full); got != want {
		t.Fatalf("healed aggregates diverged:\n%s\nwant\n%s", got, want)
	}
}

// k4Output renders the K4 experiment with the given params.
func k4Output(t *testing.T, p Params) string {
	t.Helper()
	return experimentOutput(t, "K4-lower-bound", p)
}

// experimentOutput renders experiment id with the given params.
func experimentOutput(t *testing.T, id string, p Params) string {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(p, &buf); err != nil {
		t.Fatalf("%s run: %v\noutput so far:\n%s", id, err, buf.String())
	}
	return buf.String()
}

// TestK4ShardedKilledResumedTablesByteIdentical is the acceptance check at
// the experiment level, in one pass over a single in-process reference
// render: (1) a 2-shard coordinator run of K4 produces a byte-identical
// table; (2) a checkpointed sharded run killed partway through, then rerun
// against the same checkpoint directory, also reproduces the table byte
// for byte — the full kill-resume-compare loop of the ISSUE 4 acceptance
// criteria.
func TestK4ShardedKilledResumedTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the K4 experiment three times")
	}
	// Trials caps the adaptive budget at exactly MinAdaptiveTrials per
	// cell, keeping the three renders affordable while still exercising
	// every cell of the quick grid.
	base := Params{Quick: true, Seed: 5, Trials: MinAdaptiveTrials}
	want := k4Output(t, base)

	sharded := base
	sharded.Engine.Shards = 2
	sharded.Engine.Launcher = &dist.PipeLauncher{Build: ShardBuilder(2)}
	if got := k4Output(t, sharded); got != want {
		t.Fatalf("K4 table with 2 shards diverged from in-process run:\n%s\nwant:\n%s", got, want)
	}

	dir := t.TempDir()
	killedParams := sharded
	killedParams.CheckpointDir = dir
	killedParams.Engine.Launcher = &killAfterWaves{inner: &dist.PipeLauncher{Build: ShardBuilder(2)}, waves: 2}
	killedParams.Engine.MaxRelaunches = dist.NoRelaunch
	e, _ := Find("K4-lower-bound")
	var buf bytes.Buffer
	if err := e.Run(killedParams, &buf); err == nil {
		t.Fatal("expected the killed run to fail")
	}

	resumed := sharded
	resumed.CheckpointDir = dir
	if got := k4Output(t, resumed); got != want {
		t.Fatalf("resumed K4 table diverged from uninterrupted run:\n%s\nwant:\n%s", got, want)
	}
}

// TestT1ShardedKilledResumedTablesByteIdentical is the K4 acceptance check
// for a fixed-count experiment, whose fold keeps plain slices and has no
// codec: the checkpoint logs the cell's results and a resume replays them
// through the fold. (1) A 2-shard run of T1 renders the in-process table
// byte for byte; (2) a checkpointed run killed after two waves, then rerun
// against the same directory, does too; (3) so does a rerun against the
// finished directory, which only replays.
func TestT1ShardedKilledResumedTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the T1 experiment four times")
	}
	base := Params{Quick: true, Seed: 5}
	want := experimentOutput(t, "T1-phases", base)

	sharded := base
	sharded.Engine.Shards = 2
	sharded.Engine.Launcher = &dist.PipeLauncher{Build: ShardBuilder(2)}
	// Three-trial waves split each 8-trial cell into three, so the kill
	// lands inside the first cell and the resume replays a partial log.
	sharded.Engine.Wave = 3
	if got := experimentOutput(t, "T1-phases", sharded); got != want {
		t.Fatalf("T1 table with 2 shards diverged from in-process run:\n%s\nwant:\n%s", got, want)
	}

	dir := t.TempDir()
	killed := sharded
	killed.CheckpointDir = dir
	killed.Engine.Launcher = &killAfterWaves{inner: &dist.PipeLauncher{Build: ShardBuilder(2)}, waves: 2}
	killed.Engine.MaxRelaunches = dist.NoRelaunch
	killed.Engine.Log = io.Discard
	e, _ := Find("T1-phases")
	if err := e.Run(killed, io.Discard); err == nil || !strings.Contains(err.Error(), "injected kill") {
		t.Fatalf("killed run: err = %v, want an injected kill", err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	partial := false
	for _, f := range ckpts {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// The newest record, on the file's last line, holds the
		// resume point.
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var cp dist.Checkpoint
		if err := json.Unmarshal(lines[len(lines)-1], &cp); err != nil {
			t.Fatal(err)
		}
		partial = partial || (!cp.Done && cp.NextTrial > 0)
	}
	if !partial {
		t.Fatalf("the killed run left no mid-cell checkpoint among %d; the resume would replay no partial log", len(ckpts))
	}

	resumed := sharded
	resumed.CheckpointDir = dir
	for _, pass := range []string{"resumed", "finished"} {
		if got := experimentOutput(t, "T1-phases", resumed); got != want {
			t.Fatalf("%s T1 table diverged from uninterrupted run:\n%s\nwant:\n%s", pass, got, want)
		}
	}
}

// TestCellCheckpointOutlivesSpecKind pins that a cell's checkpoint file is
// named without the spec kind: the file a build of another kind wrote for
// the same cell is where this build looks, so the cell fails naming it
// (its recorded spec hash differs) instead of silently rerunning beside it.
func TestCellCheckpointOutlivesSpecKind(t *testing.T) {
	cfg, err := conf.Uniform(2000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const cap, seed = 12, 91
	policy := ConsensusPolicy(0.05)
	spec := NewShardSpec(cfg, core.Variant{}, core.KernelBatched(0), core.NoBudget, 0, false)
	older := spec
	older.Kind = "usd-trial/v3"
	dir := t.TempDir()
	path, err := CellCheckpoint(dir, older, ShardRunOptions{MaxTrials: cap, Seed: seed, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}

	// One checkpointed wave of the older build's run of the cell.
	olderBytes, err := json.Marshal(older)
	if err != nil {
		t.Fatal(err)
	}
	build := func([]byte, uint64) (dist.TrialRunner, error) {
		return func(indices []int, emit func(int, []byte)) error {
			for _, i := range indices {
				emit(i, []byte(`[0,15211,1,1,"consensus"]`))
			}
			return nil
		}, nil
	}
	var folded int
	if _, err := dist.Run(dist.Options{
		Shards: 1, MaxTrials: cap, Wave: 4, MaxWaves: 1, Seed: seed, Spec: olderBytes,
		Launcher: &dist.PipeLauncher{Build: build}, CheckpointPath: path, Policy: policy, Log: io.Discard,
	}, func(int, []byte) error { folded++; return nil }, nil, dist.JSONState{V: &folded}); err != nil {
		t.Fatal(err)
	}

	p := Params{CheckpointDir: dir, Engine: ShardRunOptions{
		Shards: 1, Launcher: &dist.PipeLauncher{Build: ShardBuilder(1)}, Log: io.Discard,
	}}
	folded = 0
	_, err = p.Cell(spec, cap, seed, func(int, ShardResult) { folded++ }, nil, policy)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "different configuration") ||
		!strings.Contains(err.Error(), "delete it") {
		t.Fatalf("err = %v, want one naming %s, a different configuration and saying to delete it", err, path)
	}
	if folded != 0 {
		t.Fatalf("the rejected cell folded %d trials", folded)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
		t.Fatalf("checkpoint dir holds %v, want only the older build's file", files)
	}
}

// TestResumeRejectsFoldSnapshotCheckpoint pins that a checkpoint whose
// state is not a result log fails loudly, naming the file and saying to
// delete it, before anything is folded: a fold snapshot (the JSON object
// builds that checkpointed folds wrote), a log of object payloads (what
// builds before usd-trial/v4 logged) and a log shorter than the trial
// count its checkpoint records.
func TestResumeRejectsFoldSnapshotCheckpoint(t *testing.T) {
	cfg, err := conf.Uniform(2000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const cap, seed = 12, 91
	policy := ConsensusPolicy(0.05)
	spec := NewShardSpec(cfg, core.Variant{}, core.KernelBatched(0), core.NoBudget, 0, false)
	specBytes, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	launcher := &dist.PipeLauncher{Build: ShardBuilder(1)}

	// The checkpoint such a build wrote: dist.Run over the cell's fold
	// state, snapshotted through dist.JSONState, halted after one wave.
	ckpt := filepath.Join(t.TempDir(), "cell.ckpt")
	old := &ConsensusCellState{Metric: NewAdaptiveMetric("consensus T", ConsensusRule(0.05, cap))}
	if _, err := dist.Run(dist.Options{
		Shards: 1, MaxTrials: cap, Wave: 4, MaxWaves: 1, Seed: seed, Spec: specBytes,
		Launcher: launcher, CheckpointPath: ckpt, Policy: policy,
	}, func(i int, data []byte) error {
		var r ShardResult
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		old.fold(i, r)
		return nil
	}, StopWhenAll(old.Metric), dist.JSONState{V: old}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var cp map[string]json.RawMessage
	if err := json.Unmarshal(data, &cp); err != nil || !bytes.HasPrefix(cp["state"], []byte("{")) {
		t.Fatalf("setup: checkpoint state %.40s is not a fold snapshot (%v)", cp["state"], err)
	}

	resume := func(want string) {
		t.Helper()
		metric := NewAdaptiveMetric("consensus T", ConsensusRule(0.05, cap))
		_, _, err := RunShardedConsensus(spec, metric, ShardRunOptions{
			Shards: 1, MaxTrials: cap, Wave: 4, Seed: seed,
			Launcher: launcher, Checkpoint: ckpt, Policy: policy, Log: io.Discard,
		})
		if err == nil || !strings.Contains(err.Error(), ckpt) || !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), "delete it") {
			t.Fatalf("err = %v, want one naming %s, %q and saying to delete it", err, ckpt, want)
		}
		if n := metric.Online.N(); n != 0 {
			t.Fatalf("the rejected checkpoint folded %d trials", n)
		}
	}
	resume("holds no result log")

	rewrite := func(state string) {
		t.Helper()
		cp["state"] = json.RawMessage(state)
		delete(cp, "crc")
		if data, err = json.Marshal(cp); err != nil {
			t.Fatal(err)
		}
		// Seal the record as dist does, so the loader gets past its
		// checksum to the state: a last member "crc" holding the CRC-32C
		// of every byte before it.
		body := data[:len(data)-1]
		data = fmt.Appendf(body, `,"crc":%d}`, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		if err := os.WriteFile(ckpt, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A one-record file whose state is a log of the object payloads that
	// usd-trial/v3 builds sent.
	rewrite(`[{"interactions_hi":0,"interactions_lo":15211,"winner":1,"initial_leader":1,"outcome":"consensus"},` +
		`{"interactions_hi":0,"interactions_lo":14870,"winner":3,"initial_leader":3,"outcome":"consensus"},` +
		`{"interactions_hi":0,"interactions_lo":16023,"winner":0,"initial_leader":2,"outcome":"consensus"},` +
		`{"interactions_hi":0,"interactions_lo":15544,"winner":2,"initial_leader":2,"outcome":"consensus"}]`)
	resume("holds no result log")

	// A log that holds fewer results than the checkpoint's resume point.
	rewrite("[]")
	resume("logs 0 results but records 4 folded trials")
}

// TestStreamIndicesMatchesStream pins the shard entry point against the
// plain engine: running the full index range through StreamIndices equals
// Stream, and a strided subset reproduces exactly the corresponding trials.
func TestStreamIndicesMatchesStream(t *testing.T) {
	cfg, err := conf.Uniform(1000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 12
	trial := func(i int, src *rng.Source, a *Arena) int64 {
		tt, _, err := consensusTime(a, cfg, src, core.NoBudget, core.KernelExact)
		if err != nil {
			t.Errorf("trial %d: %v", i, err)
		}
		return int64(tt.Lo)
	}
	byIndex := map[int]int64{}
	Stream(trials, 1, 42, trial, func(i int, v int64) { byIndex[i] = v })

	all := make([]int, trials)
	for i := range all {
		all[i] = i
	}
	for _, par := range []int{1, 3} {
		got := map[int]int64{}
		StreamIndices(all, par, 42, trial, func(i int, v int64) { got[i] = v })
		if !reflect.DeepEqual(got, byIndex) {
			t.Fatalf("parallelism %d: full-range StreamIndices diverged", par)
		}
	}

	strided := []int{1, 4, 7, 10}
	var order []int
	StreamIndices(strided, 2, 42, trial, func(i int, v int64) {
		order = append(order, i)
		if v != byIndex[i] {
			t.Errorf("index %d: got %d, want %d", i, v, byIndex[i])
		}
	})
	if !reflect.DeepEqual(order, strided) {
		t.Fatalf("delivery order %v, want %v", order, strided)
	}
}

// TestAdaptiveMetricJSONPreservesRule checks the checkpoint round trip of a
// metric: aggregates and latch restore bit-exactly, and the rule keeps
// working after restore.
func TestAdaptiveMetricJSONPreservesRule(t *testing.T) {
	rule := ConsensusRule(0.5, 100)
	m := NewAdaptiveMetric("x", rule)
	for _, v := range []float64{10, 11, 10.5, 9.8} {
		m.Add(v)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back := NewAdaptiveMetric("x", rule)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if metricFingerprint(back) != metricFingerprint(m) {
		t.Fatalf("metric round trip diverged")
	}
	if back.Rule == nil {
		t.Fatal("rule lost in restore")
	}
	// One more sample on both must keep them in lockstep, including the
	// latch transition.
	m.Add(10.2)
	back.Add(10.2)
	if metricFingerprint(back) != metricFingerprint(m) {
		t.Fatalf("post-restore folds diverged")
	}
}

// TestAdaptiveMetricJSONBytesPinned pins a metric's checkpoint encoding
// byte for byte, so checkpoints written by earlier builds keep resuming: a
// latched metric with a median sketch, and an open one without.
func TestAdaptiveMetricJSONBytesPinned(t *testing.T) {
	m := NewAdaptiveMetric("consensus T", ConsensusRule(0.5, 100))
	for _, v := range []float64{10, 11, 10.5, 9.8, 10.2, 1e9 / 3} {
		m.Add(v)
	}
	for _, tc := range []struct {
		m    *AdaptiveMetric
		want string
	}{
		{m, `{"name":"consensus T","online":{"n":6,"mean":4722725351453389254,"m2":4860667434984792841,"min":4621706527598287258,"max":4734372014072354133},"median":{"q":4602678819172646912,"h":[4621706527598287258,4621819117588971520,4621931707579655782,4622100592565682176,4734372014072354133],"pos":[4607182418800017408,4611686018427387904,4613937818241073152,4616189618054758400,4618441417868443648],"want":[4607182418800017408,4612248968380809216,4615063718147915776,4617034042984890368,4618441417868443648],"n":6},"stopped_at":5}`},
		{&AdaptiveMetric{Name: "open"}, `{"name":"open","online":{"n":0,"mean":0,"m2":0,"min":0,"max":0},"stopped_at":0}`},
	} {
		data, err := json.Marshal(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.want {
			t.Fatalf("%s: marshaled\n%s\nwant\n%s", tc.m.Name, data, tc.want)
		}
	}
}

// TestElasticFleetByteIdenticalToStreamAdaptive is the elastic-membership
// acceptance test at the experiment layer: an adaptive consensus cell run
// on a fleet where two workers join late (one of which then leaves for
// good) and an original member is partitioned mid-wave must stop at the
// same trial and land on bit-identical aggregates as the in-process
// StreamAdaptive loop.
func TestElasticFleetByteIdenticalToStreamAdaptive(t *testing.T) {
	cfg, err := conf.Uniform(2000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 40
	const seed = 1234
	rule := ConsensusRule(0.02, cap)

	ref := NewAdaptiveMetric("consensus T", rule)
	failedRef := 0
	refRes := StreamAdaptive(
		AdaptiveOptions{MaxTrials: cap, Parallelism: 4, Seed: seed},
		func(i int, src *rng.Source, a *Arena) float64 {
			tt, _, err := consensusTime(a, cfg, src, core.NoBudget, core.KernelBatched(0))
			if err != nil {
				return math.NaN()
			}
			return tt.Float64()
		},
		func(_ int, v float64) {
			if math.IsNaN(v) {
				failedRef++
				return
			}
			ref.Add(v)
		},
		StopWhenAll(ref))

	// The leaving joiner (admitted second, so member id 3): one mid-wave
	// crash, then every relaunch dies on connect until its budget is gone
	// and the coordinator writes the member off.
	leaveSched := []dist.Fault{{Shard: 3, Kind: dist.FaultCrashMidWave, After: 1}}
	for l := 1; l <= dist.DefaultMaxRelaunches+1; l++ {
		leaveSched = append(leaveSched, dist.Fault{Shard: 3, Launch: l, Kind: dist.FaultCrashOnConnect})
	}
	join := make(chan dist.Launcher, 2)
	join <- &dist.PipeLauncher{Build: ShardBuilder(2)} // joins late, stays
	join <- &dist.FaultLauncher{                       // joins late, leaves mid-run
		Inner:    &dist.PipeLauncher{Build: ShardBuilder(2)},
		Schedule: leaveSched,
	}

	spec := NewShardSpec(cfg, core.Variant{}, core.KernelBatched(0), core.NoBudget, 0, false)
	metric := NewAdaptiveMetric("consensus T", rule)
	res, failed, err := RunShardedConsensus(spec, metric, ShardRunOptions{
		Shards:    2,
		MaxTrials: cap,
		Wave:      4,
		Seed:      seed,
		Launcher: &dist.FaultLauncher{
			Inner:    &dist.PipeLauncher{Build: ShardBuilder(2)},
			Schedule: []dist.Fault{{Shard: 1, Kind: dist.FaultPartition, After: 3}},
		},
		Join:          join,
		WorkerTimeout: 500 * time.Millisecond,
		Log:           io.Discard,
	})
	if err != nil {
		t.Fatalf("elastic fleet run: %v", err)
	}
	if res.Joined != 2 {
		t.Fatalf("res = %+v, want both joiners admitted", res)
	}
	if res.Relaunches == 0 {
		t.Fatalf("res = %+v, want the partition recovered", res)
	}
	if res.Trials != refRes.Trials || res.Stopped != refRes.Stopped || failed != failedRef {
		t.Fatalf("trials=%d stopped=%v failed=%d, want %d/%v/%d",
			res.Trials, res.Stopped, failed, refRes.Trials, refRes.Stopped, failedRef)
	}
	if got, want := metricFingerprint(metric), metricFingerprint(ref); got != want {
		t.Fatalf("elastic fleet aggregates diverged:\n%s\nwant\n%s", got, want)
	}
}

// TestRunCellFoldsIdenticallyAtEveryShardCount pins the one-cell-runner
// property for every dynamics variant: RunCell in process (Shards 0) and
// through 1 and 3 pipe workers folds the same ShardResult sequence, trial
// count and stop flag, for fixed and adaptive cells alike.
func TestRunCellFoldsIdenticallyAtEveryShardCount(t *testing.T) {
	type cellCase struct {
		name    string
		n       int64
		k       int
		u0      int64
		variant string
		kern    core.Kernel
		tracked bool
	}
	cases := []cellCase{
		{"classic-tracked", 2000, 8, 0, "", core.KernelBatched(0), true},
		{"stubborn", 4000, 2, 0, "stubborn:200,0", core.KernelExact, true},
		{"unconstrained", 4000, 4, 1000, "unconstrained", core.KernelExact, true},
	}
	const cap = 16
	for _, tc := range cases {
		cfg, err := conf.Uniform(tc.n, tc.k, tc.u0)
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.ParseVariantSpec(tc.variant)
		if err != nil {
			t.Fatal(err)
		}
		v.Configure(cfg)
		spec := NewShardSpec(cfg, v, tc.kern, core.NoBudget, 0, tc.tracked)
		for _, adaptive := range []bool{false, true} {
			type outcome struct {
				results []ShardResult
				res     dist.Result
			}
			var want *outcome
			for _, shards := range []int{0, 1, 3} {
				var got outcome
				var stop func() bool
				var metric *AdaptiveMetric
				if adaptive {
					metric = NewAdaptiveMetric("decision T", ConsensusRule(0.1, cap))
					stop = StopWhenAll(metric)
				}
				res, err := RunCell(spec, 2, ShardRunOptions{
					Shards:    shards,
					MaxTrials: cap,
					Wave:      5,
					Seed:      77,
					Launcher:  &dist.PipeLauncher{Build: ShardBuilder(2)},
				}, func(i int, r ShardResult) {
					if i != len(got.results) {
						t.Errorf("%s shards=%d: trial %d folded at position %d", tc.name, shards, i, len(got.results))
					}
					got.results = append(got.results, r)
					if metric != nil && r.Decided() {
						metric.Add(r.Interactions().Float64())
					}
				}, stop)
				if err != nil {
					t.Fatalf("%s adaptive=%v shards=%d: %v", tc.name, adaptive, shards, err)
				}
				got.res = dist.Result{Trials: res.Trials, Stopped: res.Stopped}
				if got.res.Trials != len(got.results) {
					t.Fatalf("%s adaptive=%v shards=%d: reported %d trials, folded %d",
						tc.name, adaptive, shards, got.res.Trials, len(got.results))
				}
				if !adaptive && got.res.Trials != cap {
					t.Fatalf("%s fixed shards=%d: folded %d trials, want %d", tc.name, shards, got.res.Trials, cap)
				}
				if want == nil {
					want = &got
					continue
				}
				if !reflect.DeepEqual(got, *want) {
					t.Fatalf("%s adaptive=%v: shards=%d folded %+v\nwant (shards=0) %+v",
						tc.name, adaptive, shards, got, *want)
				}
			}
			if adaptive && !want.res.Stopped {
				t.Errorf("%s: the adaptive cell ran to its cap; widen the rule so the test exercises a stop", tc.name)
			}
		}
	}
}

// TestRunCellInProcessRejectsCheckpoint pins that a checkpoint needs the
// sharded engine: an in-process cell has no waves to persist.
func TestRunCellInProcessRejectsCheckpoint(t *testing.T) {
	cfg, err := conf.Uniform(1000, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := NewShardSpec(cfg, core.Variant{}, core.KernelExact, core.NoBudget, 0, false)
	path := filepath.Join(t.TempDir(), "cell.ckpt")
	_, err = RunCell(spec, 1, ShardRunOptions{MaxTrials: 4, Checkpoint: path},
		func(int, ShardResult) { t.Error("an in-process cell with a checkpoint folded a trial") }, nil)
	if err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Fatalf("err = %v, want a checkpoint-needs-shards error", err)
	}
}
