package experiment

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/jsonint"
	"repro/internal/phase"
	"repro/internal/rng"
	"repro/internal/u128"
)

// ErrInterrupted reports that a sharded run stopped early at the user's
// request (ShardRunOptions.Interrupt closed): the wave in flight was folded
// and the checkpoint written, so rerunning the same command resumes where
// it stopped. ExitStatus maps it to exit status 130.
var ErrInterrupted = errors.New("interrupted: checkpoint written, rerun the same command to resume")

// This file is the experiment side of the distributed trial engine
// (internal/dist): the versioned job specification a coordinator broadcasts
// to shard workers, the exact integer wire form of a trial result, the
// worker entry point the cmds' hidden -shard-worker mode routes into, and
// the cell runner (RunCell) through which every cell runs that same trial
// function, in process or sharded.

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
	// consensus run. The tracker only watches the run, so both step
	// identically and the flag selects only the result's shape (phase end
	// times or none); it stays part of the trial identity, and of the spec
	// hash a checkpoint records, for that reason.
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
// configuration (with stubborn counts installed by Variant.Prepare), its
// kernel, and its dynamics.
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
	cfg, dyn, err := core.Variant{Name: s.Variant, Stubborn: s.Stubborn}.Prepare(cfg, kern)
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

// Phases returns the phase end times of a tracked trial, equal to the
// phase.Times RunTracked recorded; an untracked trial carries none and
// returns phase.NewTimes().
func (r ShardResult) Phases() phase.Times {
	t := phase.NewTimes()
	n := min(phase.Count, len(r.PhaseEnded), len(r.PhaseEndsHi), len(r.PhaseEndsLo))
	for i := 0; i < n; i++ {
		t.End[i] = u128.U128{Hi: r.PhaseEndsHi[i], Lo: r.PhaseEndsLo[i]}
		t.Ended[i] = r.PhaseEnded[i]
	}
	if n > 0 {
		t.LeaderAtT2 = r.LeaderAtT2
	}
	return t
}

// AppendJSON appends r's wire encoding to dst and returns the extended
// slice. The bytes equal json.Marshal(r)'s for every value; the encoding is
// assembled field by field without reflection, and only an Outcome string
// that needs escaping takes encoding/json's path (and allocates), so a
// worker encoding into a reused buffer emits each trial allocation-free.
func (r ShardResult) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"interactions_hi":`...)
	dst = strconv.AppendUint(dst, r.InteractionsHi, 10)
	dst = append(dst, `,"interactions_lo":`...)
	dst = strconv.AppendUint(dst, r.InteractionsLo, 10)
	dst = append(dst, `,"winner":`...)
	dst = strconv.AppendInt(dst, int64(r.Winner), 10)
	dst = append(dst, `,"initial_leader":`...)
	dst = strconv.AppendInt(dst, int64(r.InitialLeader), 10)
	dst = append(dst, `,"outcome":`...)
	dst = appendJSONString(dst, r.Outcome)
	if len(r.PhaseEndsHi) > 0 {
		dst = appendUints(append(dst, `,"phase_ends_hi":`...), r.PhaseEndsHi)
	}
	if len(r.PhaseEndsLo) > 0 {
		dst = appendUints(append(dst, `,"phase_ends_lo":`...), r.PhaseEndsLo)
	}
	if len(r.PhaseEnded) > 0 {
		dst = appendBools(append(dst, `,"phase_ended":`...), r.PhaseEnded)
	}
	if r.LeaderAtT2 != 0 {
		dst = append(dst, `,"leader_at_t2":`...)
		dst = strconv.AppendInt(dst, int64(r.LeaderAtT2), 10)
	}
	return append(dst, '}')
}

// shardResultFields is ShardResult without its methods: the type
// UnmarshalJSON hands to encoding/json's reflective decoder, and the one a
// struct embeds to decode a ShardResult's fields among its own (a struct
// embedding ShardResult would have its whole object decoded by the
// promoted UnmarshalJSON).
type shardResultFields ShardResult

// canonicalKeys are the keys of the canonical untracked form AppendJSON
// writes, each with the punctuation that opens it.
var canonicalKeys = [...]string{`{"interactions_hi":`, `,"interactions_lo":`, `,"winner":`, `,"initial_leader":`, `,"outcome":"`}

// UnmarshalJSON implements json.Unmarshaler. The canonical untracked form
// AppendJSON writes,
// {"interactions_hi":U,"interactions_lo":U,"winner":I,"initial_leader":I,"outcome":"S"}
// with every number in json.Marshal's spelling and S printable ASCII with
// no escape, is parsed in one pass, and allocation-free when S is a
// core.Outcome name; r changes only once the whole input has matched.
// Anything else goes to encoding/json's reflective decoder, which decodes
// a canonical payload to the same values, so the fast path changes neither
// the accepted language nor the decoded results (FuzzShardResultDecode
// pins both). A sharded cell's sink calls it directly, so a canonical
// payload never enters encoding/json.
func (r *ShardResult) UnmarshalJSON(data []byte) error {
	if r.parseCanonical(data) {
		return nil
	}
	// Decoding into a copy keeps r from escaping on the fast path; the
	// copy shares r's slices, so the result equals an in-place decode.
	f := shardResultFields(*r)
	err := json.Unmarshal(data, &f)
	*r = ShardResult(f)
	return err
}

// parseCanonical sets r from data and reports true when data is in the
// canonical untracked form (see UnmarshalJSON); otherwise r is untouched.
func (r *ShardResult) parseCanonical(data []byte) bool {
	var words [2]uint64
	var ints [2]int
	rest, ok := data, false
	for i, key := range canonicalKeys {
		if len(rest) < len(key) || string(rest[:len(key)]) != key {
			return false
		}
		rest = rest[len(key):]
		switch {
		case i < 2:
			words[i], rest, ok = jsonint.CutUint64(rest)
		case i < 4:
			ints[i-2], rest, ok = jsonint.CutInt(rest)
		default:
			ok = true
		}
		if !ok {
			return false
		}
	}
	end := len(rest) - len(`"}`)
	if end < 0 || string(rest[end:]) != `"}` {
		return false
	}
	outcome := rest[:end]
	for _, c := range outcome {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	r.InteractionsHi, r.InteractionsLo = words[0], words[1]
	r.Winner, r.InitialLeader = ints[0], ints[1]
	r.Outcome = outcomeName(outcome)
	return true
}

// outcomeName returns b as a string, without allocating when it names a
// core.Outcome.
func outcomeName(b []byte) string {
	switch string(b) {
	case "consensus":
		return "consensus"
	case "all-undecided":
		return "all-undecided"
	case "budget-exhausted":
		return "budget-exhausted"
	case "frozen":
		return "frozen"
	case "dominance":
		return "dominance"
	}
	return string(b)
}

// appendUints appends a JSON array of unsigned integers.
func appendUints(dst []byte, vs []uint64) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, v, 10)
	}
	return append(dst, ']')
}

// appendBools appends a JSON array of booleans.
func appendBools(dst []byte, vs []bool) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(dst, v)
	}
	return append(dst, ']')
}

// appendJSONString appends s as a JSON string, byte-identical to
// json.Marshal(s): printable ASCII that encoding/json leaves alone is copied
// between quotes, and anything it would escape (quotes, backslashes,
// control bytes, the HTML-sensitive <>&, non-ASCII) is handed to it.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ShardBuilder returns the dist.BuildRunner that turns a USD job spec into
// executable trials on the shared-arena engine, running a shard's assigned
// global indices at the given worker-local parallelism. Per-trial results
// depend only on (spec, seed, index), so worker parallelism affects
// wall-clock only.
func ShardBuilder(parallelism int) dist.BuildRunner {
	return func(spec []byte, seed uint64) (dist.TrialRunner, error) {
		c, err := newCellTrials(spec)
		if err != nil {
			return nil, err
		}
		return func(indices []int, emit func(trial int, data []byte)) error {
			// One encode buffer for the wave: emit consumes each payload
			// before returning, so the fold reuses it trial after trial.
			var buf []byte
			w := &cellWave{cellTrials: c}
			StreamIndices(indices, parallelism, seed, w.trial, func(i int, r ShardResult) {
				buf = r.AppendJSON(buf[:0])
				emit(i, buf)
			})
			return w.err
		}, nil
	}
}

// cellTrials is a decoded job spec: the one trial function (cellWave.trial)
// every cell runs, on a shard worker (ShardBuilder) or in process (RunCell
// with Shards 0).
type cellTrials struct {
	spec ShardSpec
	cfg  *conf.Config
	kern core.Kernel
	// opts is nil for classic: the classic fleet path stays the option-free
	// (allocation-free) arena reset.
	opts []core.Option
}

// newCellTrials decodes wire spec bytes into the cell's trial function.
func newCellTrials(spec []byte) (*cellTrials, error) {
	s, cfg, kern, dyn, err := decodeShardSpec(spec)
	if err != nil {
		return nil, err
	}
	c := &cellTrials{spec: s, cfg: cfg, kern: kern}
	if dyn != core.Classic {
		c.opts = []core.Option{core.WithDynamics(dyn)}
	}
	return c, nil
}

// cellWave is one run of a cell's trials on the trial engine — a worker
// wave, or a whole in-process cell — with its first-error latch.
type cellWave struct {
	*cellTrials
	// The trial method runs on the worker pool's goroutines, so the latch
	// needs a lock; the engine returns only after every trial has, so the
	// caller then reads err without one.
	mu  sync.Mutex
	err error
}

// trial runs trial i of the spec on the worker's arena, latching the first
// error.
func (w *cellWave) trial(i int, src *rng.Source, a *Arena) ShardResult {
	r, err := runShardTrial(w.spec, w.cfg, w.kern, src, a, w.opts...)
	if err != nil {
		w.mu.Lock()
		if w.err == nil {
			w.err = fmt.Errorf("trial %d: %w", i, err)
		}
		w.mu.Unlock()
	}
	return r
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

// ConsensusCellState is the fold state of a consensus cell: the adaptive
// metric (aggregates plus stopping latch) and the count of trials that
// failed to reach consensus. RunShardedConsensus and the experiments'
// consensus cells fold into it; a sharded cell checkpoints its results, not
// this state (see RunCell), so its JSON form is only a dist.JSONState
// snapshot for callers that drive dist.Run themselves.
type ConsensusCellState struct {
	// Metric is the cell's consensus-time metric.
	Metric *AdaptiveMetric `json:"metric"`
	// Failed counts folded trials that did not reach consensus.
	Failed int `json:"failed"`
}

// fold adds a consensus trial's time to the metric and counts any other
// outcome as a failure.
func (s *ConsensusCellState) fold(_ int, r ShardResult) {
	if !r.Consensus() {
		s.Failed++
		return
	}
	s.Metric.Add(r.Interactions().Float64())
}

// ShardRunOptions configure one cell run (RunCell, RunShardedConsensus).
// Every option past MaxTrials and Seed configures the distributed engine
// and is ignored in process, where a cell runs the same trial function on
// the calling process's worker pool.
type ShardRunOptions struct {
	// Shards is the worker-process count; 0 runs the cell in process.
	Shards int
	// MaxTrials is the trial budget: the fixed count without a stopping
	// predicate, the cap with one. It must be positive.
	MaxTrials int
	// Wave is the dispatch wave size (0 = sized by cost, from
	// dist.DefaultWave; see dist.Options.Wave): the stop-check barrier and
	// checkpoint granularity.
	Wave int
	// Seed is the cell's trial-stream family seed.
	Seed uint64
	// Launcher starts the workers; the CLIs' EngineFlags.Engine builds one
	// that re-executes the binary as a -shard-worker.
	Launcher dist.Launcher
	// Checkpoint, when non-empty, is the cell's checkpoint file (see
	// CellCheckpoint for the name a checkpoint directory gives it); it
	// needs Shards >= 1.
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

// RunCell runs one cell of spec: trials 0, 1, 2, … fold into fold in trial
// order until stop (nil = never) fires or opts.MaxTrials trials have been
// folded. Every cell runs the one trial function ShardBuilder serves to
// workers: with opts.Shards 0 on this process's trial engine at the given
// parallelism (0 = GOMAXPROCS), otherwise across opts.Shards worker
// processes through dist.Run, whose payloads decode into the same
// ShardResults — so a cell folds the same sequence at every shard count.
//
// A sharded cell with opts.Checkpoint checkpoints its results, not its
// fold: after every wave it appends the wave's result payloads to the
// checkpoint (see resultLog), and a resumed cell replays every record's
// results through fold before folding the rest, so any fold resumes
// bit-identical to an uninterrupted run. A checkpoint with Shards 0 is an
// error.
func RunCell(spec ShardSpec, parallelism int, opts ShardRunOptions, fold func(i int, r ShardResult), stop func() bool) (dist.Result, error) {
	specBytes, err := spec.Encode()
	if err != nil {
		return dist.Result{}, err
	}
	if opts.Shards == 0 {
		if opts.Checkpoint != "" {
			return dist.Result{}, fmt.Errorf("experiment: checkpoint %q needs the sharded engine (Shards >= 1)", opts.Checkpoint)
		}
		if opts.MaxTrials < 1 {
			return dist.Result{}, fmt.Errorf("experiment: MaxTrials = %d, want >= 1", opts.MaxTrials)
		}
		c, err := newCellTrials(specBytes)
		if err != nil {
			return dist.Result{}, err
		}
		w := &cellWave{cellTrials: c}
		res := StreamAdaptive(AdaptiveOptions{MaxTrials: opts.MaxTrials, Parallelism: parallelism, Seed: opts.Seed},
			w.trial, fold, stop)
		return dist.Result{Trials: res.Trials, Stopped: res.Stopped}, w.err
	}
	var log *resultLog
	var state dist.State
	if opts.Checkpoint != "" {
		log = &resultLog{path: opts.Checkpoint, fold: fold}
		state = log
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
	}, func(i int, data []byte) error {
		var r ShardResult
		if err := r.UnmarshalJSON(data); err != nil {
			return err
		}
		if log != nil {
			return log.add(i, data, r)
		}
		fold(i, r)
		return nil
	}, stop, state)
	if err == nil && log != nil && res.Trials != log.n {
		// A finished checkpoint returns without folding: its records
		// must hold exactly the trials it counts.
		return res, log.mismatch(res.Trials)
	}
	return res, err
}

// resultLog is a sharded cell's checkpoint state (a dist.State): the
// payloads of the wave being folded, exactly as the workers sent them.
// Snapshot hands them to the wave's checkpoint record as a JSON array and
// starts the next wave empty, so a record costs O(wave) bytes. Restore
// decodes a record's array as the live sink decodes each payload and
// replays it through the cell's fold, which rebuilds every aggregate the
// fold keeps — stopping latches included — with no codec of its own.
type resultLog struct {
	path string
	fold func(i int, r ShardResult)
	// wave is the open array "[p0,p1,…" of the wave's payloads (empty
	// before its first result); Snapshot closes and empties it.
	wave []byte
	// n counts the results folded, restored ones included.
	n int
}

// add logs trial i's payload data, decoded as r, and folds it. Trials
// arrive in order from 0, so i must equal the number already folded; a
// checkpoint whose records disagree with its resume point fails here,
// before anything is folded out of place.
func (l *resultLog) add(i int, data []byte, r ShardResult) error {
	if i != l.n {
		return l.mismatch(i)
	}
	if len(l.wave) == 0 {
		l.wave = append(l.wave, '[')
	} else {
		l.wave = append(l.wave, ',')
	}
	l.wave = append(l.wave, data...) // copied: data aliases the read buffer
	l.n++
	l.fold(i, r)
	return nil
}

// mismatch reports checkpoint records whose result count disagrees with
// the trial count they record.
func (l *resultLog) mismatch(trials int) error {
	return fmt.Errorf("experiment: checkpoint %s logs %d results but records %d folded trials; delete it to start over",
		l.path, l.n, trials)
}

// Snapshot implements dist.State: the wave's payloads as a JSON array.
// The returned slice aliases the wave buffer; dist.Run marshals it before
// the next add overwrites it.
func (l *resultLog) Snapshot() ([]byte, error) {
	if len(l.wave) == 0 {
		return []byte("[]"), nil
	}
	snap := append(l.wave, ']')
	l.wave = l.wave[:0]
	return snap, nil
}

// Restore implements dist.State: it decodes one record's payload array and
// replays it through the fold. Anything but a JSON array of wire results —
// such as the fold snapshot (a JSON object) of builds that checkpointed
// folds, or the positional result log of builds that rewrote it every
// wave — is rejected before anything of the record is folded.
func (l *resultLog) Restore(data []byte) error {
	var rs []ShardResult
	if err := json.Unmarshal(data, &rs); err != nil {
		return fmt.Errorf("experiment: checkpoint %s holds no result log (a fold snapshot or positional log from an older build?): %v; delete it to start over", l.path, err)
	}
	for _, r := range rs {
		l.fold(l.n, r)
		l.n++
	}
	return nil
}

// CellCheckpoint returns the checkpoint file, under dir, of a cell of spec
// run with opts, creating dir if needed. The name is derived from the
// cell's identity — spec hash, seed, trial cap and stopping policy, the
// four things dist.Run checks on resume — so a rerun finds every cell's
// checkpoint whatever cells it runs in whatever order, and two cells share
// a file only when they run the same trials under the same policy, where
// one's result log is the other's.
func CellCheckpoint(dir string, spec ShardSpec, opts ShardRunOptions) (string, error) {
	specBytes, err := spec.Encode()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	id := sha256.Sum256(fmt.Appendf(nil, "%s seed=%d cap=%d policy=%q",
		dist.HashSpec(specBytes), opts.Seed, opts.MaxTrials, opts.Policy))
	return filepath.Join(dir, fmt.Sprintf("cell-%x.ckpt", id[:8])), nil
}

// RunShardedConsensus runs an adaptive consensus-time cell: trials of spec
// fold into metric in global trial-index order until the metric's stopping
// rule fires or opts.MaxTrials is reached (a metric with a nil rule never
// stops, giving the fixed-count run). It is RunCell's consensus fold at
// parallelism GOMAXPROCS, so its aggregates and trial counts are
// byte-identical at every shard count. It returns the run result and the
// number of folded trials that did not reach consensus.
func RunShardedConsensus(spec ShardSpec, metric *AdaptiveMetric, opts ShardRunOptions) (dist.Result, int, error) {
	st := &ConsensusCellState{Metric: metric}
	res, err := RunCell(spec, 0, opts, st.fold, StopWhenAll(metric))
	return res, st.Failed, err
}
