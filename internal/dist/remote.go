package dist

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the multi-host transport: RemoteLauncher starts workers
// through an arbitrary command template (ssh, a container runtime, a plain
// shell for loopback testing) and wraps the resulting byte streams with the
// defenses a real network needs that same-host pipes do not: a handshake
// deadline (a worker that never says anything), a frame deadline (a stream
// that stalls mid-frame), and a write deadline (a command write that
// blocks forever on a wedged link); the frame decoder's size cap
// (DefaultMaxFrame) guards every transport alike. Every violation kills
// the transport process, which surfaces to the coordinator as an ordinary
// worker death — recovered by the same relaunch/requeue machinery as a
// local crash, with the same byte-identical fold.

// Connection guard defaults. The handshake deadline applies to a
// RemoteLauncher field left zero; the frame and write deadlines always
// apply.
const (
	// DefaultHandshakeTimeout bounds launch-to-first-byte: a worker (or the
	// transport under it) that produces nothing for this long is declared
	// unreachable.
	DefaultHandshakeTimeout = 45 * time.Second
	// DefaultFrameTimeout bounds a started protocol frame: once a frame's
	// first byte has arrived, the rest must follow within this window. Idle
	// gaps between frames are not limited (that is WorkerTimeout's job —
	// only the coordinator knows whether a silent worker owes anything).
	DefaultFrameTimeout = 2 * time.Minute
	// DefaultWriteTimeout bounds one command write to the transport.
	DefaultWriteTimeout = time.Minute
)

// RemoteLauncher starts shard workers through a pluggable command template —
// ssh first, but any exec wrapper (container runtime, scheduler submit
// command, /bin/sh for loopback tests) works the same way — and guards each
// connection with handshake, frame, and write deadlines. Deadline
// violations kill the transport process and recover through the
// coordinator's ordinary worker-death path.
//
// Template placeholders are expanded in every Command element:
//
//	{host}    the worker's host (Hosts[shard mod len(Hosts)])
//	{shard}   the shard index
//	{shards}  the member count
//	{cores}   CoreShare(CoreBudget, shard, shards)
//
// A worker launched remotely must be the same build as the coordinator: the
// protocol version gate rejects cross-version fleets and the spec-hash
// handshake rejects mis-addressed ones.
type RemoteLauncher struct {
	// Hosts are the remote endpoints; member i runs on Hosts[i mod
	// len(Hosts)], so a fleet larger than the host list wraps around.
	// Empty means "localhost" (loopback templates that ignore {host}).
	Hosts []string
	// Command is the transport command template; see the placeholder table
	// above. SSHCommand and LoopbackCommand build common shapes.
	Command []string
	// CoreBudget, when positive, is the total core budget the {cores}
	// placeholder partitions across members (see CoreShare).
	CoreBudget int
	// HandshakeTimeout bounds launch-to-first-byte. Zero means
	// DefaultHandshakeTimeout; negative disables the deadline.
	HandshakeTimeout time.Duration
	// Stderr receives the workers' stderr, each line prefixed with the
	// worker's "[shard i/S host] " identity; nil means this process's
	// stderr.
	Stderr io.Writer
}

// host returns the endpoint a member runs on.
func (l *RemoteLauncher) host(shard int) string {
	if len(l.Hosts) == 0 {
		return "localhost"
	}
	return l.Hosts[shard%len(l.Hosts)]
}

// expand instantiates the command template for one member.
func (l *RemoteLauncher) expand(shard, shards int) []string {
	repl := strings.NewReplacer(
		"{host}", l.host(shard),
		"{shard}", strconv.Itoa(shard),
		"{shards}", strconv.Itoa(shards),
		"{cores}", strconv.Itoa(CoreShare(l.CoreBudget, shard, shards)),
	)
	out := make([]string, len(l.Command))
	for i, a := range l.Command {
		out[i] = repl.Replace(a)
	}
	return out
}

// Launch implements Launcher by starting one transport process from the
// expanded template and arming the connection guards.
func (l *RemoteLauncher) Launch(shard, shards int) (*Conn, error) {
	if len(l.Command) == 0 {
		return nil, fmt.Errorf("dist: RemoteLauncher needs a Command template")
	}
	argv := l.expand(shard, shards)
	cmd := exec.Command(argv[0], argv[1:]...)
	setWorkerSysProcAttr(cmd)
	stderr := l.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	cmd.Stderr = &prefixWriter{w: stderr, prefix: []byte(fmt.Sprintf("[shard %s %s] ", ShardArg(shard, shards), l.host(shard)))}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: start shard %d transport %q: %w", shard, argv[0], err)
	}
	kill := func() { killWorker(cmd) }
	handshake := l.HandshakeTimeout
	if handshake == 0 {
		handshake = DefaultHandshakeTimeout
	}
	g := &frameGuard{
		src:       stdout,
		kill:      kill,
		handshake: handshake,
		frame:     DefaultFrameTimeout,
	}
	pr, pw := io.Pipe()
	g.pw = pw
	go g.run()
	return &Conn{
		W:    &deadlineWriter{w: stdin, d: DefaultWriteTimeout, kill: kill},
		R:    pr,
		Wait: cmd.Wait,
		Kill: kill,
	}, nil
}

// deadlineWriter bounds each Write's duration. Pipe writes to a process
// cannot be aborted directly, so on expiry the transport process is killed,
// which fails the write — the coordinator's sender then reports an ordinary
// command-side death.
type deadlineWriter struct {
	w    io.WriteCloser
	d    time.Duration
	kill func()

	expired atomic.Bool
}

// Write implements io.Writer with the deadline armed around the underlying
// write.
func (dw *deadlineWriter) Write(p []byte) (int, error) {
	t := time.AfterFunc(dw.d, func() {
		dw.expired.Store(true)
		dw.kill()
	})
	n, err := dw.w.Write(p)
	t.Stop()
	if dw.expired.Load() && err == nil {
		err = fmt.Errorf("dist: command write stalled beyond %v; transport killed", dw.d)
	}
	return n, err
}

// Close implements io.Closer.
func (dw *deadlineWriter) Close() error { return dw.w.Close() }

// frameGuard relays the worker's result stream, frame by frame, while
// enforcing the handshake deadline and the mid-frame deadline. It kills the
// transport process on a violation: the blocked read then fails (the pipe
// collapses with the process) and the coordinator sees a worker death with
// a descriptive cause. A stream the frame decoder rejects ends the relay
// with the decoder's error, which the coordinator handles as if it had
// decoded the stream itself.
type frameGuard struct {
	src       io.ReadCloser
	pw        *io.PipeWriter
	kill      func()
	handshake time.Duration
	frame     time.Duration

	reason atomic.Value // string: why the guard killed the transport
}

// expire records the violation and kills the transport, once.
func (g *frameGuard) expire(reason string) {
	if g.reason.CompareAndSwap(nil, reason) {
		g.kill()
	}
}

// run relays whole frames until EOF, a violation or a bad frame. The
// handshake deadline runs until the first byte; after it, the frame
// deadline runs from each frame's first byte until the frame is whole, and
// no deadline runs between frames (idleness is the coordinator's liveness
// domain).
func (g *frameGuard) run() {
	var timer *time.Timer
	arm := func(d time.Duration, reason string) {
		if timer != nil {
			timer.Stop()
		}
		if d > 0 {
			timer = time.AfterFunc(d, func() { g.expire(reason) })
		}
	}
	arm(g.handshake, fmt.Sprintf("no handshake byte within %v", g.handshake))
	dec := newMsgReader(g.src)
	for {
		if _, err := dec.r.Peek(1); err == nil {
			arm(g.frame, fmt.Sprintf("frame stalled %v mid-frame", g.frame))
		}
		raw, _, err := dec.frames()
		arm(0, "")
		if len(raw) > 0 {
			if _, werr := g.pw.Write(raw); werr != nil {
				// The coordinator closed its end (teardown); stop the
				// transport so nothing leaks.
				g.kill()
				return
			}
		}
		if err != nil {
			if reason, ok := g.reason.Load().(string); ok {
				err = fmt.Errorf("dist: transport guard: %s", reason)
			} else if err == io.EOF {
				g.pw.Close()
				return
			}
			g.pw.CloseWithError(err)
			return
		}
	}
}

// SSHCommand returns a RemoteLauncher command template that runs workerCmd
// on {host} over ssh in batch mode (no interactive prompts — a fleet launch
// must fail, not hang, on missing credentials). workerCmd is a shell
// command line evaluated on the remote host and may use the template
// placeholders, e.g.
//
//	SSHCommand("/opt/usd/sweep -shard-worker {shard}/{shards}")
//
// Extra ssh options (ports, identities, jump hosts) go in sshArgs.
func SSHCommand(workerCmd string, sshArgs ...string) []string {
	args := append([]string{"ssh", "-o", "BatchMode=yes"}, sshArgs...)
	return append(args, "{host}", workerCmd)
}

// LoopbackCommand returns a RemoteLauncher command template that runs
// workerCmd through /bin/sh on this machine: the whole remote transport
// path — template expansion, process transport, deadlines, frame guard —
// without needing an sshd. Tests and the loopback arms of cmd/bench's
// dist_fleet section use it as the SSH stand-in.
func LoopbackCommand(workerCmd string) []string {
	return []string{"/bin/sh", "-c", workerCmd}
}

// SplitHostList parses the comma-separated host-list form the cmds' -hosts
// flag carries, trimming whitespace and dropping empty elements.
func SplitHostList(s string) []string {
	var hosts []string
	for _, h := range strings.Split(s, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// SSHFleetLauncher returns a RemoteLauncher that starts workers on hosts
// over ssh running workerCmd, the fleet analogue of SelfExecLauncher: an
// empty workerCmd means this binary's path in hidden -shard-worker mode
// with extraArgs appended — which requires the binary to exist at the same
// path on every host (a shared filesystem, or an identical deploy).
func SSHFleetLauncher(hosts []string, workerCmd string, extraArgs ...string) (*RemoteLauncher, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("dist: SSHFleetLauncher needs at least one host")
	}
	if workerCmd == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("dist: resolve worker executable: %w", err)
		}
		workerCmd = exe + " -shard-worker {shard}/{shards}"
		for _, a := range extraArgs {
			workerCmd += " " + a
		}
	}
	return &RemoteLauncher{Hosts: hosts, Command: SSHCommand(workerCmd)}, nil
}
