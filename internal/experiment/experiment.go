// Package experiment defines the named, reproducible experiments that
// regenerate every table and figure of the paper's evaluation, as indexed
// in DESIGN.md. Each experiment prints one or more formatted tables (and
// ASCII figures for trajectory artifacts) to a writer; cmd/experiments and
// the root-level benchmarks are thin wrappers around this package.
package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/stats"
)

// Params controls an experiment run.
type Params struct {
	// Quick shrinks the parameter grids and trial counts so the whole
	// suite finishes in roughly a minute.
	Quick bool
	// Seed is the base seed; all trial streams derive from it.
	Seed uint64
	// Trials overrides the per-cell trial count when positive.
	Trials int
	// Parallelism bounds concurrent trials; 0 means GOMAXPROCS.
	Parallelism int
	// Kernel selects the stepping kernel for the configuration-level USD
	// simulations the experiments perform. The zero value is
	// core.KernelExact. Experiments whose subject is a specific stepping
	// variant ignore it: K1 compares both kernels, K2 always runs batched,
	// and A1-skip ablates geometric skipping within the exact kernel.
	// Engine-comparison baselines (agent-level, gossip, exact chain) are
	// not configuration-level USD runs and are unaffected.
	Kernel core.Kernel
	// Variant focuses the K5-variants experiment on one dynamics variant
	// arm, optionally overriding its stubborn counts (e.g. a -variant
	// stubborn:50,0 flag). The zero Variant (classic) runs every arm. The
	// paper-reproduction experiments simulate the classic dynamics by
	// definition and ignore it.
	Variant core.Variant
	// Adaptive switches per-cell trial counts to sequential stopping where
	// an experiment supports it (K3, and cmd/sweep points): trials run
	// until the consensus-time CI closes below RelWidth or MaxTrials is
	// reached. K4-lower-bound is adaptive by construction and only reads
	// RelWidth/MaxTrials from here.
	Adaptive bool
	// RelWidth is the adaptive stopping target: the relative half-width of
	// the 95% Student-t CI below which a metric halts. 0 means
	// DefaultRelWidth.
	RelWidth float64
	// MaxTrials caps adaptive trials per cell; 0 means an experiment-chosen
	// default. A positive Trials overrides both (fixed and adaptive runs
	// then use the same count ceiling, which keeps -quick smoke runs cheap).
	MaxTrials int
	// Shards distributes supporting experiments' per-cell trials across
	// this many worker processes through the internal/dist coordinator
	// (currently K4-lower-bound, the billion-agent workload sharding was
	// built for). 0 keeps cells in-process; 1 runs the distributed engine
	// with a single worker (still useful for checkpointing). Sharded and
	// in-process runs of the same cell are byte-identical at every shard
	// count.
	Shards int
	// ShardLauncher starts shard workers; required when Shards >= 1.
	// cmd/experiments wires a dist.ExecLauncher that re-executes the
	// binary with the hidden -shard-worker flag.
	ShardLauncher dist.Launcher
	// CheckpointDir, when non-empty, makes sharded cells write per-cell
	// checkpoints under this directory and resume from them, so
	// interrupted multi-hour runs continue instead of restarting.
	CheckpointDir string
	// WorkerTimeout is the sharded coordinator's per-shard liveness
	// deadline (see dist.Options.WorkerTimeout); 0 disables hang detection.
	WorkerTimeout time.Duration
	// MaxRelaunches caps per-shard worker relaunches in sharded cells
	// (see dist.Options.MaxRelaunches); 0 means the dist default,
	// dist.NoRelaunch disables self-healing.
	MaxRelaunches int
	// Interrupt, when closed, gracefully stops sharded cells after their
	// in-flight wave with a final checkpoint (see dist.Options.Interrupt).
	// cmd/sweep and cmd/experiments close it on SIGINT/SIGTERM.
	Interrupt <-chan struct{}
}

// Adaptive stopping defaults shared by experiments and the CLIs.
const (
	// DefaultRelWidth is the target relative CI half-width: ±5%.
	DefaultRelWidth = 0.05
	// DefaultCILevel is the two-sided confidence level of the stopping CIs.
	DefaultCILevel = 0.95
	// MinAdaptiveTrials guards width rules against lucky early agreement:
	// no metric halts before this many trials (or the cap, if smaller).
	MinAdaptiveTrials = 5
)

// relWidth returns the effective adaptive stopping target.
func (p Params) relWidth() float64 {
	if p.RelWidth > 0 {
		return p.RelWidth
	}
	return DefaultRelWidth
}

// maxTrials returns the effective adaptive trial cap given a default,
// honoring the Trials override ahead of MaxTrials.
func (p Params) maxTrials(def int) int {
	if p.Trials > 0 {
		return p.Trials
	}
	if p.MaxTrials > 0 {
		return p.MaxTrials
	}
	if p.Quick && def > 10 {
		return def / 2
	}
	return def
}

// ConsensusRule is the standard adaptive stopping rule for a consensus-time
// metric under the given trial cap: at least MinAdaptiveTrials trials
// (clamped to the cap), then stop once the DefaultCILevel Student-t CI has
// relative half-width at most rel. The experiments and the CLIs
// (cmd/sweep -adaptive, cmd/bench's adaptive arm) all build their rules
// here, so retuning the shared defaults cannot diverge them.
func ConsensusRule(rel float64, cap int) stats.StoppingRule {
	minTrials := int64(MinAdaptiveTrials)
	if int64(cap) < minTrials {
		minTrials = int64(cap)
	}
	return stats.All(stats.AfterN(minTrials), stats.RelWidth(rel, DefaultCILevel))
}

// consensusRule is ConsensusRule at the Params' effective width target.
func (p Params) consensusRule(cap int) stats.StoppingRule {
	return ConsensusRule(p.relWidth(), cap)
}

// ConsensusPolicy is the checkpoint identity string of ConsensusRule(rel,
// cap): stopping rules are code, so distributed checkpoints record this
// declaration and reject resumes under a different policy (the cap itself
// is bound separately, via the coordinator's MaxTrials check).
func ConsensusPolicy(rel float64) string {
	return fmt.Sprintf("consensus-rule rel=%g level=%g min=%d", rel, DefaultCILevel, MinAdaptiveTrials)
}

// trials returns the effective trial count given a default.
func (p Params) trials(def int) int {
	if p.Trials > 0 {
		return p.Trials
	}
	if p.Quick && def > 10 {
		return def / 2
	}
	return def
}

// pick returns quick when Quick is set, otherwise full.
func pick[T any](p Params, quick, full T) T {
	if p.Quick {
		return quick
	}
	return full
}

// Experiment is one named reproduction artifact.
type Experiment struct {
	// ID is the DESIGN.md identifier, e.g. "T1-phases".
	ID string
	// Title is a one-line description.
	Title string
	// Artifact names the paper artifact being regenerated.
	Artifact string
	// Run executes the experiment, writing tables to w.
	Run func(p Params, w io.Writer) error
}

// All returns every registered experiment, ordered by ID group (tables,
// figures, ablations).
func All() []Experiment {
	exps := []Experiment{
		t1Phases(),
		t2Multiplicative(),
		t3Additive(),
		t4NoBias(),
		t5Baselines(),
		t6Phase1(),
		f1Undecided(),
		f2GapGrowth(),
		f3Threshold(),
		f4ModelCompare(),
		f5KScaling(),
		f6Endgame(),
		f7Fluid(),
		a1Skip(),
		a2Engine(),
		a3SelfInteraction(),
		x1Synchronized(),
		x2LargeK(),
		x3Exact(),
		x4Scheduler(),
		x5UndecidedStart(),
		k1KernelAgreement(),
		k2NScaling(),
		k3ManyOpinions(),
		k4LowerBound(),
		k5Variants(),
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in sequence, separated by headers.
func RunAll(p Params, w io.Writer) error {
	for _, e := range All() {
		if _, err := fmt.Fprintf(w, "\n=== %s — %s (%s) ===\n\n", e.ID, e.Title, e.Artifact); err != nil {
			return err
		}
		if err := e.Run(p, w); err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
	}
	return nil
}
