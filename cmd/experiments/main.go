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
// -shards N distributes supporting experiments' per-cell trials
// (K3-many-opinions, and K4-lower-bound, whose billion-agent cells cost
// tens of seconds per trial) across N worker processes: the binary re-executes itself in a
// hidden worker mode and the internal/dist coordinator folds shard results
// in global trial order, so the output tables are byte-identical to the
// in-process run. -checkpoint DIR additionally persists each cell's fold
// after every trial wave and resumes from it, so a killed multi-hour run
// continues where it stopped (delete the directory to start over).
//
// Sharded runs tolerate worker failure: a crashed, hung (-worker-timeout),
// or garbling worker is relaunched up to -max-relaunches times with its
// unfinished trials requeued, and the folded tables stay byte-identical to
// an undisturbed run. SIGINT/SIGTERM is graceful — the wave in flight is
// folded and checkpointed, the process exits with status 130, and rerunning
// the same command resumes; a second signal exits immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiment"
)

func main() {
	os.Exit(runMain(os.Args[1:]))
}

// runMain maps a run's outcome to the process exit status: 0 on success,
// 130 (the conventional interrupted status) when a sharded run checkpointed
// and stopped on SIGINT/SIGTERM, 1 on any other error.
func runMain(args []string) int {
	err := run(args)
	if err == nil {
		return 0
	}
	if errors.Is(err, experiment.ErrInterrupted) {
		fmt.Fprintln(os.Stderr, "experiments: interrupted — the wave in flight was folded and the checkpoint written; resume with the same command")
		return 130
	}
	fmt.Fprintln(os.Stderr, "experiments:", err)
	return 1
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
		workers  = fs.Int("parallelism", 0, "max concurrent trials (0 = GOMAXPROCS)")
		kernel   = fs.String("kernel", "exact", "stepping kernel for USD runs: exact, batched, or auto")
		varSpec  = fs.String("variant", "", "focus K5-variants on one dynamics variant arm: stubborn:b0,b1,... or unconstrained (empty = all arms)")
		tol      = fs.Float64("tol", 0, "batched/auto-kernel drift tolerance (0 = default)")
		adaptive = fs.Bool("adaptive", false, "adaptive trial counts where supported (K3): stop each cell once its CI closes")
		rel      = fs.Float64("rel", 0, "adaptive stopping target: relative CI half-width (0 = default 0.05)")
		maxTri   = fs.Int("maxtrials", 0, "adaptive per-cell trial cap (0 = experiment default)")
		shards   = fs.Int("shards", 0, "distribute supporting experiments' trials (K3, K4) across N worker processes (0 = in-process; 1 = distributed engine with a single worker)")
		ckpt     = fs.String("checkpoint", "", "with -shards: directory for per-cell checkpoints, written after every wave and resumed from")
		timeout  = fs.Duration("worker-timeout", 5*time.Minute, "with -shards: per-shard liveness deadline; a worker silent this long is declared hung and relaunched (0 = never)")
		relaunch = fs.Int("max-relaunches", 0, "with -shards: per-shard worker relaunch budget (0 = default 3; -1 = fail fast on the first worker death)")
		hosts    = fs.String("hosts", "", "with -shards: comma-separated ssh hosts to start workers on (member i runs on host i mod len; empty = local worker processes)")
		remote   = fs.String("remote-cmd", "", "with -hosts: worker command template run on each host ({host}/{shard}/{shards}/{cores} expand; empty = this binary's path in -shard-worker mode, which must exist on every host)")
		worker   = fs.String("shard-worker", "", "internal: serve as shard worker \"i/of\" over stdin/stdout (spawned by -shards)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-parallelism %d must be non-negative", *workers)
	}
	if *worker != "" {
		shard, of, err := dist.ParseShardArg(*worker)
		if err != nil {
			return err
		}
		return experiment.ServeShard(os.Stdin, os.Stdout, shard, of, *workers)
	}
	kern, err := core.ParseKernel(*kernel, *tol)
	if err != nil {
		return err
	}
	variant, err := core.ParseVariantSpec(*varSpec)
	if err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d must be non-negative", *shards)
	}
	if *remote != "" && *hosts == "" {
		return fmt.Errorf("-remote-cmd requires -hosts")
	}
	if *hosts != "" && *shards < 1 {
		return fmt.Errorf("-hosts requires -shards")
	}
	if *ckpt != "" {
		if *shards < 2 {
			// Checkpointing rides on the sharded coordinator; a single
			// worker process still checkpoints.
			*shards = 1
		}
		if err := os.MkdirAll(*ckpt, 0o755); err != nil {
			return err
		}
	}
	if *rel < 0 || *rel >= 1 {
		return fmt.Errorf("-rel %v out of range [0, 1)", *rel)
	}
	if *trials < 0 {
		return fmt.Errorf("-trials %d must be non-negative", *trials)
	}
	if *maxTri < 0 {
		return fmt.Errorf("-maxtrials %d must be non-negative", *maxTri)
	}
	if *timeout < 0 {
		return fmt.Errorf("-worker-timeout %v must be non-negative", *timeout)
	}
	if *relaunch < dist.NoRelaunch {
		return fmt.Errorf("-max-relaunches %d out of range (want >= %d)", *relaunch, dist.NoRelaunch)
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
		Parallelism:   *workers,
		Kernel:        kern,
		Variant:       variant,
		Adaptive:      *adaptive,
		RelWidth:      *rel,
		MaxTrials:     *maxTri,
		Shards:        *shards,
		CheckpointDir: *ckpt,
		WorkerTimeout: *timeout,
		MaxRelaunches: *relaunch,
	}
	if p.Shards >= 1 {
		var extra []string
		if *workers != 0 {
			extra = []string{"-parallelism", strconv.Itoa(*workers)}
		}
		if *hosts != "" {
			fleet, err := dist.SSHFleetLauncher(dist.SplitHostList(*hosts), *remote, extra...)
			if err != nil {
				return err
			}
			p.ShardLauncher = fleet
		} else {
			p.ShardLauncher = dist.SelfExecLauncher(extra...)
		}
		// Graceful interrupt: on SIGINT/SIGTERM the coordinator finishes the
		// wave in flight and checkpoints, and the run exits resumable.
		p.Interrupt = dist.InterruptOnSignal(os.Stderr)
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
