package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"
)

// DefaultWave is the coordinator's dispatch wave size when Options.Wave is
// zero. A wave is both the cross-process stop-check barrier and the
// checkpoint granularity: at most one wave of work is lost to an
// interruption or to a stopping predicate firing mid-wave.
const DefaultWave = 16

// DefaultMaxRelaunches is how many times a failed shard worker is
// relaunched before the shard is written off and its index stream is
// redistributed across the survivors (Options.MaxRelaunches = 0).
const DefaultMaxRelaunches = 3

// NoRelaunch, assigned to Options.MaxRelaunches, disables worker recovery
// entirely: the first worker failure aborts the run (the behavior before
// fault tolerance), leaving the checkpoint for a manual resume.
const NoRelaunch = -1

// DefaultRelaunchBackoff is the delay before a shard's first relaunch when
// Options.RelaunchBackoff is zero; each further relaunch of the same shard
// doubles the delay, capped at eight times the base.
const DefaultRelaunchBackoff = 250 * time.Millisecond

// errWorkerKilled is the cause carried by connection ends the coordinator
// force-closed; it shows up in worker-death diagnostics, not in run errors.
var errWorkerKilled = errors.New("worker killed by coordinator")

// Conn is one live worker connection: a writer carrying coordinator
// commands (the worker's stdin) and a reader yielding the worker's protocol
// lines (its stdout).
type Conn struct {
	// W receives coordinator-to-worker protocol lines. The coordinator
	// closes it to signal end of session.
	W io.WriteCloser
	// R yields worker-to-coordinator protocol lines.
	R io.ReadCloser
	// Wait, if non-nil, blocks until the worker has exited and returns its
	// terminal status; the coordinator calls it after closing W and
	// draining R (or after Kill).
	Wait func() error
	// Kill, if non-nil, forcibly terminates the worker so that pending and
	// future reads of R and writes to W fail promptly and Wait returns.
	// The coordinator invokes it when it declares the worker dead (hung or
	// misbehaving); a merely crashed worker needs no help.
	Kill func()

	// mu serializes coordinator writes to W: the shard's sender goroutine
	// and the shutdown path can address the same worker concurrently.
	mu sync.Mutex
}

// send writes one coordinator-to-worker message under the connection's
// write lock.
func (c *Conn) send(m Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return writeMsg(c.W, m)
}

// kill forcibly tears a connection down: the launcher-specific Kill first
// (terminating the worker), then both stream ends, unblocking any reader or
// writer goroutine parked on them.
func (c *Conn) kill() {
	if c.Kill != nil {
		c.Kill()
	}
	c.W.Close()
	c.R.Close()
}

// Launcher starts shard workers. ExecLauncher spawns real processes;
// PipeLauncher runs workers as in-process goroutines over synchronous
// pipes, exercising the identical protocol path without processes (used by
// tests and available where re-exec is impossible); FaultLauncher wraps
// either with an injected-fault schedule for chaos testing. Launch may be
// called more than once per shard: the coordinator relaunches failed
// workers (see Options.MaxRelaunches).
type Launcher interface {
	// Launch starts the worker for the given shard and returns its
	// connection.
	Launch(shard, shards int) (*Conn, error)
}

// ExecLauncher launches shard workers as child processes of this process.
// The conventional worker entry point is the launching binary itself with a
// hidden -shard-worker i/of flag that routes main into the protocol loop
// (experiment.ServeShard), so coordinator and workers are always the same
// build.
type ExecLauncher struct {
	// Path is the worker executable; empty means this executable
	// (os.Executable).
	Path string
	// Args returns the worker argv (after the program name) for a shard,
	// typically ["-shard-worker", ShardArg(shard, shards), ...].
	Args func(shard, shards int) []string
	// Env is the worker environment; nil inherits this process's.
	Env []string
	// CoreBudget, when positive, partitions a total CPU-core budget across
	// the worker processes by appending GOMAXPROCS to each worker's
	// environment: worker i receives CoreBudget/shards cores, the first
	// CoreBudget mod shards workers one extra, and every worker at least
	// one. Without it each worker inherits the machine-wide default, so S
	// shards oversubscribe the cores S-fold and multi-shard throughput
	// reads as a regression on a saturated host (the shard_throughput
	// methodology fix).
	CoreBudget int
	// Stderr receives the workers' stderr; nil means this process's stderr,
	// so worker diagnostics stay visible. Every line is prefixed with the
	// worker's "[shard i/S] " identity so interleaved multi-worker output
	// stays attributable.
	Stderr io.Writer
}

// CoreShare returns the GOMAXPROCS value a core budget grants one shard:
// budget/shards, plus one for the first budget mod shards shards, floored
// at one. It is exported so benchmarks can report the partition they
// measured under.
func CoreShare(budget, shard, shards int) int {
	if budget <= 0 || shards <= 0 {
		return 1
	}
	w := budget / shards
	if shard < budget%shards {
		w++
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Launch implements Launcher by spawning one worker process.
func (l *ExecLauncher) Launch(shard, shards int) (*Conn, error) {
	path := l.Path
	if path == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("dist: resolve worker executable: %w", err)
		}
		path = exe
	}
	if l.Args == nil {
		return nil, fmt.Errorf("dist: ExecLauncher needs an Args function")
	}
	cmd := exec.Command(path, l.Args(shard, shards)...)
	// Workers run in their own process group with (on Linux) a
	// parent-death SIGKILL, so a coordinator that dies without running any
	// cleanup — SIGKILL, OOM — cannot leak worker trees; see exec_linux.go.
	setWorkerSysProcAttr(cmd)
	cmd.Env = l.Env
	if l.CoreBudget > 0 {
		env := l.Env
		if env == nil {
			env = os.Environ()
		}
		cmd.Env = append(append([]string(nil), env...),
			fmt.Sprintf("GOMAXPROCS=%d", CoreShare(l.CoreBudget, shard, shards)))
	}
	stderr := l.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	cmd.Stderr = &prefixWriter{w: stderr, prefix: []byte(fmt.Sprintf("[shard %s] ", ShardArg(shard, shards)))}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: start shard %d worker: %w", shard, err)
	}
	return &Conn{
		W:    stdin,
		R:    stdout,
		Wait: cmd.Wait,
		// Kill the whole process group, not just the worker: a worker that
		// spawned helpers (or a shell wrapper that spawned the worker) must
		// not leave grandchildren running after the coordinator declares the
		// shard dead.
		Kill: func() { killWorker(cmd) },
	}, nil
}

// prefixWriter stamps a per-worker prefix onto every line written through
// it, buffering nothing: partial lines are remembered across Write calls so
// the prefix lands exactly once per line. Each worker gets its own
// prefixWriter (its own mid-line state) over the shared destination, and
// each Write forwards as a single underlying Write so concurrent workers'
// lines do not interleave mid-line.
type prefixWriter struct {
	w       io.Writer
	prefix  []byte
	midline bool
}

// Write implements io.Writer.
func (p *prefixWriter) Write(b []byte) (int, error) {
	var buf bytes.Buffer
	rest := b
	for len(rest) > 0 {
		if !p.midline {
			buf.Write(p.prefix)
			p.midline = true
		}
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			buf.Write(rest)
			rest = nil
		} else {
			buf.Write(rest[:i+1])
			rest = rest[i+1:]
			p.midline = false
		}
	}
	if _, err := p.w.Write(buf.Bytes()); err != nil {
		return 0, err
	}
	return len(b), nil
}

// SelfExecLauncher returns an ExecLauncher that re-executes this binary as
// its own shard workers, passing the hidden -shard-worker i/of flag
// followed by extraArgs. It is the one place the worker-mode argv is
// spelled, shared by every CLI that exposes -shards, so coordinator and
// worker cannot drift apart.
func SelfExecLauncher(extraArgs ...string) *ExecLauncher {
	return &ExecLauncher{Args: func(shard, shards int) []string {
		return append([]string{"-shard-worker", ShardArg(shard, shards)}, extraArgs...)
	}}
}

// PipeLauncher runs shard workers as goroutines inside this process,
// connected through synchronous in-memory pipes. The coordinator speaks
// exactly the same protocol as with ExecLauncher — every line is marshaled,
// written, read, and parsed — so tests of the distributed path cover the
// full codec without spawning processes.
type PipeLauncher struct {
	// Build constructs each worker's trial runner from the job spec.
	Build BuildRunner
}

// Launch implements Launcher by serving the worker protocol on a goroutine.
func (l *PipeLauncher) Launch(shard, shards int) (*Conn, error) {
	if l.Build == nil {
		return nil, fmt.Errorf("dist: PipeLauncher needs a Build function")
	}
	workerIn, coordOut := io.Pipe() // coordinator writes -> worker reads
	coordIn, workerOut := io.Pipe() // worker writes -> coordinator reads
	errc := make(chan error, 1)
	go func() {
		err := Serve(workerIn, workerOut, shard, shards, l.Build)
		// Closing the worker's ends unblocks both sides: the coordinator's
		// reader sees EOF (or the serve error), and any still-pending
		// coordinator write fails instead of blocking forever.
		workerOut.CloseWithError(err)
		workerIn.CloseWithError(err)
		errc <- err
	}()
	return &Conn{
		W:    coordOut,
		R:    coordIn,
		Wait: func() error { return <-errc },
		Kill: func() {
			// There is no process to signal; severing the coordinator-side
			// pipe ends makes the worker goroutine's reads and writes fail,
			// which is as killed as an in-process worker gets.
			coordOut.CloseWithError(errWorkerKilled)
			coordIn.CloseWithError(errWorkerKilled)
		},
	}, nil
}

// Options configure a distributed run.
type Options struct {
	// Shards is the number of worker processes; at least 1.
	Shards int
	// MaxTrials is the trial budget: the fixed count when Stop is nil, the
	// hard cap when it is not. Must be positive.
	MaxTrials int
	// Wave is the dispatch wave size (DefaultWave when zero): the stop-check
	// barrier and checkpoint granularity.
	Wave int
	// Seed is the trial-stream family seed, forwarded to every worker;
	// trial i draws from rng.Derive(Seed, i) exactly as in-process runs do.
	Seed uint64
	// Spec is the opaque job specification broadcast to workers. Its bytes
	// are hashed to guard checkpoints and worker handshakes, so equal
	// configurations must serialize to equal bytes.
	Spec []byte
	// Launcher starts the workers — and restarts them: after a worker
	// failure the coordinator calls Launch again for the same shard.
	// Required.
	Launcher Launcher
	// CheckpointPath, when non-empty, makes the run write a checkpoint
	// after every folded wave and resume from an existing one. Requires a
	// non-nil State in Run.
	CheckpointPath string
	// Policy is an opaque identity of the caller's stopping policy (for
	// example "adaptive rel=0.05" or "fixed"). It is recorded in the
	// checkpoint and compared on resume, so a run resumed under a
	// different policy is rejected instead of producing a stop point that
	// matches neither configuration. The stop predicate itself is code
	// and cannot be verified; Policy is the caller's declaration of it.
	Policy string
	// MaxWaves, when positive, bounds how many waves this invocation folds
	// before halting with Result.Interrupted set — time-sliced operation:
	// a later invocation with the same CheckpointPath continues where this
	// one stopped. Requires CheckpointPath (an interrupted run without a
	// checkpoint would be unresumable, its folded progress unrecoverable).
	MaxWaves int
	// WorkerTimeout, when positive, is the per-shard liveness deadline: a
	// worker that is busy (mid-handshake, or owing dispatched trials) and
	// has produced no protocol line for this long is declared dead and
	// recovered exactly like a crashed one. Zero disables the deadline,
	// and a hung worker then blocks the run forever. Set it comfortably
	// above the cost of the slowest single trial: workers emit results as
	// trials finish, so any healthy busy worker speaks at least that often.
	WorkerTimeout time.Duration
	// MaxRelaunches caps how many times one shard's failed worker is
	// relaunched (with backoff) before the shard is written off and its
	// outstanding and future trial indices are redistributed across the
	// surviving shards. Zero means DefaultMaxRelaunches; NoRelaunch
	// disables recovery entirely, making the first worker failure fatal.
	MaxRelaunches int
	// RelaunchBackoff is the delay before a failed shard's first relaunch
	// (DefaultRelaunchBackoff when zero); each further relaunch of the
	// same shard doubles it, capped at eight times the base.
	RelaunchBackoff time.Duration
	// Join, when non-nil, admits new members mid-run: each Launcher
	// received is launched as an additional member slot, handshakes against
	// the same spec hash, and is dealt its balanced share of every
	// subsequently dispatched wave. Every wave is dealt explicitly across
	// the current member set, so members may join and leave without changing
	// which randomness stream any trial draws — the fold stays
	// byte-identical to the single-process run. A departing member is
	// handled exactly like a lost shard. Joiners keep their own Launcher for
	// relaunches. Close or abandon the channel freely; the coordinator never
	// blocks on it.
	Join <-chan Launcher
	// Interrupt, when non-nil, requests a graceful early exit once it is
	// closed: the coordinator finishes folding the wave in flight, writes
	// its checkpoint, halts the workers, and returns with
	// Result.Interrupted set. The cmds wire SIGINT/SIGTERM to it.
	Interrupt <-chan struct{}
	// Log receives fault-tolerance diagnostics (worker deaths, relaunches,
	// redistributions). Nil means os.Stderr; use io.Discard to silence.
	Log io.Writer
}

// Result reports how a distributed run ended.
type Result struct {
	// Trials is the number of trials folded into the sink across the whole
	// run, including any folded before a resume.
	Trials int
	// Stopped reports that the stopping predicate fired; false means the
	// MaxTrials cap was reached (or the run was interrupted).
	Stopped bool
	// Waves is the cumulative number of folded waves, including waves
	// folded before a resume.
	Waves int
	// ResumedFrom is the trial index this invocation resumed from; 0 means
	// a fresh start.
	ResumedFrom int
	// Interrupted reports that Options.MaxWaves or Options.Interrupt
	// halted the run before completion; the checkpoint holds the resume
	// point.
	Interrupted bool
	// Relaunches counts the worker relaunches this invocation performed
	// after worker failures.
	Relaunches int
	// Requeued counts the trial-index dispatches that re-sent work after a
	// worker failure — to a relaunched worker or to a surviving shard. It
	// can exceed the number of distinct requeued indices when a requeued
	// trial's new owner fails too.
	Requeued int
	// Joined counts the members admitted mid-run through Options.Join.
	Joined int
}
