package experiment

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/dist"
)

// EngineFlags are the command-line settings of the sharded trial engine,
// declared once for cmd/sweep and cmd/experiments: AddEngineFlags registers
// them and Engine turns the parsed values into the base ShardRunOptions of
// every cell the command runs.
type EngineFlags struct {
	// Parallelism bounds concurrent trials in this process and, forwarded
	// as -parallelism, in every worker (0 = GOMAXPROCS).
	Parallelism int
	// CheckpointDir is the directory each cell's checkpoint is kept in
	// (see CellCheckpoint); empty runs without checkpoints.
	CheckpointDir string

	shards     int
	timeout    time.Duration
	relaunches int
	hosts      string
	remoteCmd  string
	worker     string
}

// AddEngineFlags registers -parallelism, -shards, -checkpoint,
// -worker-timeout, -max-relaunches, -hosts, -remote-cmd and the hidden
// -shard-worker on fs.
func AddEngineFlags(fs *flag.FlagSet) *EngineFlags {
	f := &EngineFlags{}
	fs.IntVar(&f.Parallelism, "parallelism", 0, "max concurrent trials (0 = GOMAXPROCS)")
	fs.IntVar(&f.shards, "shards", 0, "distribute each cell's trials across N worker processes (0 = in-process; 1 = distributed engine with a single worker); cells a job spec cannot express stay in process")
	fs.StringVar(&f.CheckpointDir, "checkpoint", "", "directory for per-cell checkpoints, written after every wave and resumed from (implies the sharded engine)")
	fs.DurationVar(&f.timeout, "worker-timeout", 5*time.Minute, "with -shards: per-shard liveness deadline; a worker silent this long is declared hung and relaunched (0 = never)")
	fs.IntVar(&f.relaunches, "max-relaunches", 0, "with -shards: per-shard worker relaunch budget (0 = default 3; -1 = fail fast on the first worker death)")
	fs.StringVar(&f.hosts, "hosts", "", "with -shards: comma-separated ssh hosts to start workers on (member i runs on host i mod len; empty = local worker processes)")
	fs.StringVar(&f.remoteCmd, "remote-cmd", "", "with -hosts: worker command template run on each host ({host}/{shard}/{shards}/{cores} expand; empty = this binary's path in -shard-worker mode, which must exist on every host)")
	fs.StringVar(&f.worker, "shard-worker", "", "internal: serve as shard worker \"i/of\" over stdin/stdout (spawned by -shards)")
	return f
}

// Engine validates the parsed engine flags and returns the base options of
// the command's cells: the shard count, the fault-tolerance settings and,
// with -shards >= 1, a launcher that re-executes this binary as a
// -shard-worker (over ssh with -hosts) plus an interrupt channel closed on
// SIGINT/SIGTERM. A -checkpoint directory rides on the sharded coordinator
// and so implies one shard. In -shard-worker mode Engine instead serves the
// worker protocol on stdin/stdout until the coordinator halts, and returns
// served = true with the worker's error.
func (f *EngineFlags) Engine() (opts ShardRunOptions, served bool, err error) {
	if f.Parallelism < 0 {
		return opts, false, fmt.Errorf("-parallelism %d must be non-negative", f.Parallelism)
	}
	if f.worker != "" {
		shard, of, err := dist.ParseShardArg(f.worker)
		if err != nil {
			return opts, true, err
		}
		return opts, true, ServeShard(os.Stdin, os.Stdout, shard, of, f.Parallelism)
	}
	switch {
	case f.shards < 0:
		return opts, false, fmt.Errorf("-shards %d must be non-negative", f.shards)
	case f.timeout < 0:
		return opts, false, fmt.Errorf("-worker-timeout %v must be non-negative", f.timeout)
	case f.relaunches < dist.NoRelaunch:
		return opts, false, fmt.Errorf("-max-relaunches %d out of range (want >= %d)", f.relaunches, dist.NoRelaunch)
	case f.remoteCmd != "" && f.hosts == "":
		return opts, false, fmt.Errorf("-remote-cmd requires -hosts")
	case f.hosts != "" && f.shards < 1:
		return opts, false, fmt.Errorf("-hosts requires -shards")
	}
	opts = ShardRunOptions{Shards: f.shards, WorkerTimeout: f.timeout, MaxRelaunches: f.relaunches}
	if f.CheckpointDir != "" && opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Shards == 0 {
		return opts, false, nil
	}
	var extra []string
	if f.Parallelism != 0 {
		extra = []string{"-parallelism", strconv.Itoa(f.Parallelism)}
	}
	if f.hosts != "" {
		if opts.Launcher, err = dist.SSHFleetLauncher(dist.SplitHostList(f.hosts), f.remoteCmd, extra...); err != nil {
			return opts, false, err
		}
	} else {
		opts.Launcher = dist.SelfExecLauncher(extra...)
	}
	// Graceful interrupt: on SIGINT/SIGTERM the coordinator finishes the
	// wave in flight and checkpoints, and the run exits resumable.
	opts.Interrupt = dist.InterruptOnSignal(os.Stderr)
	return opts, false, nil
}

// ExitStatus reports a command's outcome on stderr under the command's name
// and returns its process exit status: 0 on success, 130 (the conventional
// interrupted status) with resume guidance when a sharded run checkpointed
// and stopped on SIGINT/SIGTERM (ErrInterrupted), and 1 on any other error.
func ExitStatus(cmd string, err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrInterrupted):
		fmt.Fprintln(os.Stderr, cmd+": interrupted — the wave in flight was folded and the checkpoint written; resume with the same command")
		return 130
	default:
		fmt.Fprintln(os.Stderr, cmd+":", err)
		return 1
	}
}
