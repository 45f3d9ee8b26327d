package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/phase"
	"repro/internal/rng"
	"repro/internal/u128"
)

// ErrInterrupted reports that a sharded run stopped early at the user's
// request (Params.Interrupt closed): the wave in flight was folded and the
// checkpoint written, so rerunning the same command resumes where it
// stopped. The cmds test for it with errors.Is and map it to exit status
// 130.
var ErrInterrupted = errors.New("interrupted: checkpoint written, rerun the same command to resume")

// This file is the experiment side of the distributed trial engine
// (internal/dist): the versioned job specification a coordinator broadcasts
// to shard workers, the exact integer wire form of a trial result, the
// worker entry point the cmds' hidden -shard-worker mode routes into, and
// the coordinator-side helper that runs a sharded adaptive consensus cell
// byte-identically to the in-process StreamAdaptive path.

// ShardSpecKind is the job-spec discriminator of the USD trial family.
// v3 added the dynamics variant selection (Variant, Stubborn) introduced by
// the pluggable dynamics engine; v2 moved the interaction budget and every
// clock-valued result field to a 128-bit hi/lo integer encoding (the clock
// exceeds int64 once n > ~3·10⁹). Older kinds are rejected by name with a
// descriptive error rather than silently misread.
const ShardSpecKind = "usd-trial/v3"

// shardSpecKindV2 is the pre-variant-engine spec kind, recognized only to
// reject it by name.
const shardSpecKindV2 = "usd-trial/v2"

// ShardSpec is the distributed job specification of a USD trial family: a
// full opinion configuration plus the kernel and run options that the
// in-process trial functions take. Its JSON encoding is the wire and
// checkpoint identity of a run — equal configurations serialize to equal
// bytes, so the coordinator's spec hash detects any drift between a
// checkpoint and the command trying to resume it.
type ShardSpec struct {
	// Kind discriminates and versions the spec; always ShardSpecKind.
	Kind string `json:"kind"`
	// Support is the per-opinion agent count, indexed 0..k-1.
	Support []int64 `json:"support"`
	// Undecided is the initially undecided agent count.
	Undecided int64 `json:"undecided"`
	// Kernel is the stepping kernel name ("exact", "batched", or "auto").
	Kernel string `json:"kernel"`
	// Tol is the batched/auto kernel's drift tolerance (0 = default).
	Tol float64 `json:"tol"`
	// BudgetHi is the high word of the 128-bit interaction budget
	// (both words 0 = run to absorption). The clock exceeds int64 at the
	// raised population ceiling, so the wire form carries both words
	// losslessly.
	BudgetHi uint64 `json:"budget_hi"`
	// BudgetLo is the low word of the 128-bit interaction budget.
	BudgetLo uint64 `json:"budget_lo"`
	// CheckEvery is the phase-condition check interval (0 = kernel default);
	// only meaningful when Tracked.
	CheckEvery int `json:"check_every"`
	// Tracked selects the phase-tracked run (RunTracked) over the plain
	// consensus run. The two consume randomness differently under the
	// batched kernel, so the flag is part of the trial identity.
	Tracked bool `json:"tracked"`
	// Variant is the dynamics variant name (empty = classic). It is part
	// of the trial identity: equal seeds under different variants draw
	// different trajectories.
	Variant string `json:"variant,omitempty"`
	// Stubborn is the stubborn variant's per-opinion stubborn counts,
	// indexed like Support; empty for every other variant.
	Stubborn []int64 `json:"stubborn,omitempty"`
}

// NewShardSpec captures a configuration, dynamics variant, and run options
// as a distributable job spec. The spec's stubborn counts are taken from
// the variant when it carries them and from the configuration otherwise, so
// both "stubborn:b0,b1,..." specs and configurations built with
// conf.Config.Stubborn serialize identically.
func NewShardSpec(cfg *conf.Config, v core.Variant, kern core.Kernel, budget u128.U128, checkEvery int, tracked bool) ShardSpec {
	s := ShardSpec{
		Kind:       ShardSpecKind,
		Support:    append([]int64(nil), cfg.Support...),
		Undecided:  cfg.Undecided,
		Kernel:     kern.Name(),
		Tol:        kern.Tolerance(),
		BudgetHi:   budget.Hi,
		BudgetLo:   budget.Lo,
		CheckEvery: checkEvery,
		Tracked:    tracked,
	}
	if !v.Classic() {
		s.Variant = v.Name
		s.Stubborn = append([]int64(nil), v.Stubborn...)
		if s.Stubborn == nil && cfg.Stubborn != nil {
			s.Stubborn = append([]int64(nil), cfg.Stubborn...)
		}
	}
	return s
}

// Budget returns the spec's interaction budget as a 128-bit clock value.
func (s ShardSpec) Budget() u128.U128 {
	return u128.U128{Hi: s.BudgetHi, Lo: s.BudgetLo}
}

// Encode returns the spec's canonical wire bytes.
func (s ShardSpec) Encode() ([]byte, error) {
	if s.Kind != ShardSpecKind {
		return nil, fmt.Errorf("experiment: encode shard spec of kind %q, want %q", s.Kind, ShardSpecKind)
	}
	return json.Marshal(s)
}

// decodeShardSpec parses and validates wire bytes back into a spec, its
// configuration (with stubborn counts installed), its kernel, and its
// dynamics.
func decodeShardSpec(data []byte) (ShardSpec, *conf.Config, core.Kernel, core.Dynamics, error) {
	var s ShardSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return s, nil, core.Kernel{}, nil, fmt.Errorf("experiment: parse shard spec: %w", err)
	}
	if s.Kind != ShardSpecKind {
		if s.Kind == shardSpecKindV2 {
			return s, nil, core.Kernel{}, nil, fmt.Errorf("experiment: shard spec kind %q, want %q: it was produced by a pre-variant-engine build; coordinator and workers must run matching binaries", s.Kind, ShardSpecKind)
		}
		return s, nil, core.Kernel{}, nil, fmt.Errorf("experiment: shard spec kind %q, want %q", s.Kind, ShardSpecKind)
	}
	cfg, err := conf.FromSupport(s.Support, s.Undecided)
	if err != nil {
		return s, nil, core.Kernel{}, nil, err
	}
	kern, err := core.ParseKernel(s.Kernel, s.Tol)
	if err != nil {
		return s, nil, core.Kernel{}, nil, err
	}
	v := core.Variant{Name: s.Variant, Stubborn: s.Stubborn}
	if err := v.Validate(); err != nil {
		return s, nil, core.Kernel{}, nil, err
	}
	if err := v.ValidateKernel(kern); err != nil {
		return s, nil, core.Kernel{}, nil, err
	}
	v.Configure(cfg)
	if err := cfg.Validate(); err != nil {
		return s, nil, core.Kernel{}, nil, err
	}
	dyn, err := v.Dynamics()
	if err != nil {
		return s, nil, core.Kernel{}, nil, err
	}
	return s, cfg, kern, dyn, nil
}

// ShardResult is the wire form of one trial outcome. Every field is integer
// or string valued, so encoding is lossless and a coordinator folding these
// payloads computes bit-identical aggregates to an in-process run.
type ShardResult struct {
	// InteractionsHi is the high word of the 128-bit interaction clock
	// at termination.
	InteractionsHi uint64 `json:"interactions_hi"`
	// InteractionsLo is the low word of the 128-bit interaction clock.
	InteractionsLo uint64 `json:"interactions_lo"`
	// Winner is the consensus opinion, or -1 without consensus.
	Winner int `json:"winner"`
	// InitialLeader is the opinion with the largest initial support.
	InitialLeader int `json:"initial_leader"`
	// Outcome is the terminal core.Outcome string.
	Outcome string `json:"outcome"`
	// PhaseEndsHi holds the high words of the 128-bit phase end clocks
	// of a tracked run (phase.Times.End), indexed by 0-based phase.
	PhaseEndsHi []uint64 `json:"phase_ends_hi,omitempty"`
	// PhaseEndsLo holds the matching low words of the phase end clocks.
	PhaseEndsLo []uint64 `json:"phase_ends_lo,omitempty"`
	// PhaseEnded holds the per-phase reached flags (phase.Times.Ended),
	// indexed by 0-based phase.
	PhaseEnded []bool `json:"phase_ended,omitempty"`
	// LeaderAtT2 is the unique significant opinion when phase 2 ended, or
	// -1 (tracked runs only).
	LeaderAtT2 int `json:"leader_at_t2,omitempty"`
}

// Consensus reports whether the trial reached consensus.
func (r ShardResult) Consensus() bool {
	return r.Outcome == core.OutcomeConsensus.String()
}

// Decided reports whether the trial terminated with a winning opinion:
// consensus, or the stubborn variant's dominance terminal (where full
// consensus is unreachable and a dominant plurality is the decision).
func (r ShardResult) Decided() bool {
	return r.Winner >= 0 &&
		(r.Outcome == core.OutcomeConsensus.String() || r.Outcome == core.OutcomeDominance.String())
}

// Interactions returns the trial's terminal interaction clock.
func (r ShardResult) Interactions() u128.U128 {
	return u128.U128{Hi: r.InteractionsHi, Lo: r.InteractionsLo}
}

// PhaseTimes reassembles the tracked run's phase end times from the wire
// fields; the zero Times is returned for untracked results.
func (r ShardResult) PhaseTimes() phase.Times {
	t := phase.NewTimes()
	t.LeaderAtT2 = r.LeaderAtT2
	for i := 0; i < phase.Count && i < len(r.PhaseEnded); i++ {
		if !r.PhaseEnded[i] {
			continue
		}
		t.Ended[i] = true
		if i < len(r.PhaseEndsHi) && i < len(r.PhaseEndsLo) {
			t.End[i] = u128.U128{Hi: r.PhaseEndsHi[i], Lo: r.PhaseEndsLo[i]}
		}
	}
	return t
}

// ShardBuilder returns the dist.BuildRunner that turns a USD job spec into
// executable trials on the shared-arena engine, running a shard's assigned
// global indices at the given worker-local parallelism. Per-trial results
// depend only on (spec, seed, index), so worker parallelism affects
// wall-clock only.
func ShardBuilder(parallelism int) dist.BuildRunner {
	return func(spec []byte, seed uint64) (dist.TrialRunner, error) {
		s, cfg, kern, dyn, err := decodeShardSpec(spec)
		if err != nil {
			return nil, err
		}
		// One option slice per runner, nil for classic: the classic fleet
		// path stays exactly the option-free arena reset it was before the
		// variant engine (and allocation-free per trial).
		var opts []core.Option
		if dyn != core.Classic {
			opts = []core.Option{core.WithDynamics(dyn)}
		}
		return func(indices []int, emit func(trial int, data []byte)) error {
			// The trial closure runs on the worker pool's goroutines, so
			// the first-error latch needs a lock (unlike emitErr below,
			// which only the single in-order fold goroutine touches).
			var mu sync.Mutex
			var firstErr error
			trial := func(i int, src *rng.Source, a *Arena) ShardResult {
				r, err := runShardTrial(s, cfg, kern, src, a, opts...)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("trial %d: %w", i, err)
					}
					mu.Unlock()
				}
				return r
			}
			var emitErr error
			StreamIndices(indices, parallelism, seed, trial, func(i int, r ShardResult) {
				if emitErr != nil {
					return
				}
				data, err := json.Marshal(r)
				if err != nil {
					emitErr = err
					return
				}
				emit(i, data)
			})
			if firstErr != nil {
				return firstErr
			}
			return emitErr
		}, nil
	}
}

// runShardTrial executes one trial of the spec on the worker's arena.
// Errors are configuration-level (simulator construction); ordinary
// non-consensus terminations ride in the result's Outcome.
func runShardTrial(s ShardSpec, cfg *conf.Config, kern core.Kernel, src *rng.Source, a *Arena, opts ...core.Option) (ShardResult, error) {
	if s.Tracked {
		run, err := RunTracked(a, cfg, src, s.Budget(), s.CheckEvery, kern, opts...)
		if err != nil {
			return ShardResult{}, err
		}
		endsHi := make([]uint64, phase.Count)
		endsLo := make([]uint64, phase.Count)
		for i, e := range run.Phases.End {
			endsHi[i], endsLo[i] = e.Hi, e.Lo
		}
		return ShardResult{
			InteractionsHi: run.Result.Interactions.Hi,
			InteractionsLo: run.Result.Interactions.Lo,
			Winner:         run.Result.Winner,
			InitialLeader:  run.InitialLeader,
			Outcome:        run.Result.Outcome.String(),
			PhaseEndsHi:    endsHi,
			PhaseEndsLo:    endsLo,
			PhaseEnded:     append([]bool(nil), run.Phases.Ended[:]...),
			LeaderAtT2:     run.Phases.LeaderAtT2,
		}, nil
	}
	sim, err := a.Simulator(cfg, src, opts...)
	if err != nil {
		return ShardResult{}, err
	}
	sim.SetKernel(kern)
	leader, _ := cfg.Max()
	res := sim.Run(s.Budget())
	return ShardResult{
		InteractionsHi: res.Interactions.Hi,
		InteractionsLo: res.Interactions.Lo,
		Winner:         res.Winner,
		InitialLeader:  leader,
		Outcome:        res.Outcome.String(),
	}, nil
}

// ServeShard runs the worker side of the distributed protocol on r/w
// (stdin/stdout of a process started with the hidden -shard-worker i/of
// flag): handshake, then waves of USD trials until halt. parallelism bounds
// the worker-local pool (0 = GOMAXPROCS).
func ServeShard(r io.Reader, w io.Writer, shard, shards, parallelism int) error {
	return dist.Serve(r, w, shard, shards, ShardBuilder(parallelism))
}

// ConsensusCellState is the checkpointable fold state of a sharded
// consensus cell: the adaptive metric (aggregates plus stopping latch) and
// the count of trials that failed to reach consensus. Checkpointed through
// dist.JSONState; restoring it and folding the remaining trials is
// bit-identical to never having been interrupted.
type ConsensusCellState struct {
	// Metric is the cell's consensus-time metric.
	Metric *AdaptiveMetric `json:"metric"`
	// Failed counts folded trials that did not reach consensus.
	Failed int `json:"failed"`
}

// ShardRunOptions configure one sharded cell run.
type ShardRunOptions struct {
	// Shards is the worker-process count.
	Shards int
	// MaxTrials is the adaptive trial cap.
	MaxTrials int
	// Wave is the dispatch wave size (0 = dist.DefaultWave): the stop-check
	// barrier and checkpoint granularity.
	Wave int
	// Seed is the cell's trial-stream family seed.
	Seed uint64
	// Launcher starts the workers (see Params.ShardLauncher).
	Launcher dist.Launcher
	// Checkpoint, when non-empty, is the cell's checkpoint path.
	Checkpoint string
	// Policy is the stopping-policy identity recorded in checkpoints
	// (see dist.Options.Policy); typically ConsensusPolicy(rel).
	Policy string
	// WorkerTimeout is the per-shard liveness deadline
	// (see dist.Options.WorkerTimeout); 0 disables hang detection.
	WorkerTimeout time.Duration
	// MaxRelaunches caps per-shard worker relaunches
	// (see dist.Options.MaxRelaunches); 0 means the dist default,
	// dist.NoRelaunch disables recovery entirely.
	MaxRelaunches int
	// Join, when non-nil, admits late-joining workers mid-run
	// (see dist.Options.Join).
	Join <-chan dist.Launcher
	// Interrupt, when closed, asks the coordinator to stop after the wave
	// in flight (see dist.Options.Interrupt): the cell checkpoints and
	// returns with Interrupted set, resumable by rerunning.
	Interrupt <-chan struct{}
	// Log is the coordinator's diagnostic sink (see dist.Options.Log);
	// nil means os.Stderr.
	Log io.Writer
}

// RunShardedConsensus distributes an adaptive consensus-time cell across
// worker processes: trials of spec fold into metric in global trial-index
// order until the metric's stopping rule fires or opts.MaxTrials is
// reached. It is the distributed equivalent of the StreamAdaptive loop the
// experiments run in process, and produces byte-identical aggregates and
// trial counts at every shard count. It returns the run result and the
// number of folded trials that did not reach consensus.
func RunShardedConsensus(spec ShardSpec, metric *AdaptiveMetric, opts ShardRunOptions) (dist.Result, int, error) {
	specBytes, err := spec.Encode()
	if err != nil {
		return dist.Result{}, 0, err
	}
	state := &ConsensusCellState{Metric: metric}
	sink := func(_ int, data []byte) error {
		var r ShardResult
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		if !r.Consensus() {
			state.Failed++
			return nil
		}
		state.Metric.Add(r.Interactions().Float64())
		return nil
	}
	res, err := dist.Run(dist.Options{
		Shards:         opts.Shards,
		MaxTrials:      opts.MaxTrials,
		Wave:           opts.Wave,
		Seed:           opts.Seed,
		Spec:           specBytes,
		Launcher:       opts.Launcher,
		CheckpointPath: opts.Checkpoint,
		Policy:         opts.Policy,
		WorkerTimeout:  opts.WorkerTimeout,
		MaxRelaunches:  opts.MaxRelaunches,
		Join:           opts.Join,
		Interrupt:      opts.Interrupt,
		Log:            opts.Log,
	}, sink, StopWhenAll(state.Metric), dist.JSONState{V: state})
	return res, state.Failed, err
}
