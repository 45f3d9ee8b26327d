// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run T1-phases,F3-majority-threshold
//	experiments -all -quick
//	experiments -run K4-lower-bound -maxtrials 32 -rel 0.03
//	experiments -run K3-many-opinions -adaptive
//	experiments -run K4-lower-bound -shards 4 -checkpoint k4-ckpt
//
// Every experiment is deterministic given -seed; see docs/EXPERIMENTS.md for
// the experiment index mapping IDs to paper artifacts. -adaptive switches
// experiments that support it (K3) to sequential stopping: each cell keeps
// sampling until the consensus-time confidence interval closes below -rel,
// up to -maxtrials. K4-lower-bound is adaptive by construction and reads
// -rel/-maxtrials directly.
//
// -shards N distributes each USD cell's trials across N worker processes:
// the binary re-executes itself in a hidden worker mode and the
// internal/dist coordinator folds shard results in global trial order, so
// the output tables are byte-identical to the in-process run. Every
// experiment whose cells a job spec expresses shards (T1–T4, F3, F5, F6,
// X2, X3, X5, K1–K5 and the population-protocol arms of F4 and A2); the
// trajectory, timing and other-engine trials of T5, T6, F1, F2, F4's
// gossip arm, F7, A1, A2's agent arm, A3, X1 and X4 stay in process.
// -checkpoint DIR additionally logs each sharded cell's trial results
// after every wave and resumes by replaying them, so a killed
// multi-hour run continues where it stopped (delete the directory to start
// over).
//
// Sharded runs tolerate worker failure: a crashed, hung (-worker-timeout),
// or garbling worker is relaunched up to -max-relaunches times with its
// unfinished trials requeued, and the folded tables stay byte-identical to
// an undisturbed run. SIGINT/SIGTERM is graceful — the wave in flight is
// folded and checkpointed, the process exits with status 130, and rerunning
// the same command resumes; a second signal exits immediately.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiment"
)

func main() {
	os.Exit(experiment.ExitStatus("experiments", run(os.Args[1:])))
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list available experiments and exit")
		runIDs   = fs.String("run", "", "comma-separated experiment IDs to run")
		all      = fs.Bool("all", false, "run every experiment")
		quick    = fs.Bool("quick", false, "smaller grids and trial counts")
		seed     = fs.Uint64("seed", 1, "base random seed")
		trials   = fs.Int("trials", 0, "override trials per cell (0 = experiment default)")
		kernel   = fs.String("kernel", "exact", "stepping kernel for USD runs: exact, batched, or auto")
		varSpec  = fs.String("variant", "", "focus K5-variants on one dynamics variant arm: stubborn:b0,b1,... or unconstrained (empty = all arms)")
		tol      = fs.Float64("tol", 0, "batched/auto-kernel drift tolerance in [0, 0.25] (0 = default 0.05)")
		adaptive = fs.Bool("adaptive", false, "adaptive trial counts where supported (K3): stop each cell once its CI closes")
		rel      = fs.Float64("rel", 0, "adaptive stopping target: relative CI half-width (0 = default 0.05)")
		maxTri   = fs.Int("maxtrials", 0, "adaptive per-cell trial cap (0 = experiment default)")
		eng      = experiment.AddEngineFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, served, err := eng.Engine()
	if served || err != nil {
		return err
	}
	kern, err := core.ParseKernel(*kernel, *tol)
	if err != nil {
		return err
	}
	variant, err := core.ParseVariantSpec(*varSpec)
	if err != nil {
		return err
	}
	// experiment.Params reads a NaN width as "unset" and would silently
	// run at the default.
	if !(*rel >= 0 && *rel < 1) {
		return fmt.Errorf("-rel %v out of range [0, 1)", *rel)
	}
	if *trials < 0 {
		return fmt.Errorf("-trials %d must be non-negative", *trials)
	}
	if *maxTri < 0 {
		return fmt.Errorf("-maxtrials %d must be non-negative", *maxTri)
	}
	if *list {
		fmt.Println("available experiments:")
		for _, e := range experiment.All() {
			fmt.Printf("  %-24s %-55s [%s]\n", e.ID, e.Title, e.Artifact)
		}
		return nil
	}

	p := experiment.Params{
		Quick:         *quick,
		Seed:          *seed,
		Trials:        *trials,
		Parallelism:   eng.Parallelism,
		Kernel:        kern,
		Variant:       variant,
		Adaptive:      *adaptive,
		RelWidth:      *rel,
		MaxTrials:     *maxTri,
		Engine:        engine,
		CheckpointDir: eng.CheckpointDir,
	}

	if *all || *runIDs == "" {
		return experiment.RunAll(p, os.Stdout)
	}

	for _, id := range strings.Split(*runIDs, ",") {
		id = strings.TrimSpace(id)
		e, ok := experiment.Find(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		fmt.Printf("\n=== %s — %s (%s) ===\n\n", e.ID, e.Title, e.Artifact)
		if err := e.Run(p, os.Stdout); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	}
	return nil
}
