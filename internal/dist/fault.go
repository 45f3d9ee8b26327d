package dist

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// This file is the fault-injection harness: a Launcher wrapper that makes
// workers fail on a deterministic schedule, so the chaos tests (and the
// faulted arm of cmd/bench's dist_fleet section) can exercise every branch
// of the coordinator's recovery machinery — crash detection on both stream
// directions, hang detection via the liveness deadline, garbage frames,
// relaunch, and redistribution — without ever touching the workers' trial
// code. Faults sit between the coordinator and the real connection, which
// keeps the worker honest: a "crashed" worker really is killed, so its
// half-finished wave genuinely needs requeuing.

// FaultKind selects the failure mode a Fault injects.
type FaultKind int

const (
	// FaultCrashBeforeWave kills the worker the moment the coordinator
	// writes it the After-th wave command (counting from 0): the dispatch
	// write fails and the process dies before any of that wave's trials
	// run — the cleanest crash, caught on the command stream.
	FaultCrashBeforeWave FaultKind = iota
	// FaultCrashMidWave kills the worker once it has emitted After result
	// frames: the result stream dies with a wave half-computed, so the
	// coordinator must requeue exactly the unreceived remainder.
	FaultCrashMidWave
	// FaultHang silences the worker after it has emitted After protocol
	// frames without exiting or closing anything: results stop flowing and
	// nothing errors, so only Options.WorkerTimeout can catch it. After = 0
	// hangs before the hello — a worker that connects but never completes
	// the handshake.
	FaultHang
	// FaultGarbage injects one corrupted frame into the result stream after
	// After forwarded frames: a copy of the next frame with its checksum
	// flipped, caught by the protocol decoder.
	FaultGarbage
	// FaultPartition severs the link after After forwarded protocol frames,
	// silently and in both directions: the worker's further output is
	// blackholed and coordinator commands are swallowed without error,
	// while the worker itself stays alive and healthy. Nothing errors, so
	// only Options.WorkerTimeout can diagnose it — the network-shaped
	// analogue of FaultHang.
	FaultPartition
	// FaultDropFrames silently discards the worker's After-th result frame
	// in transit while everything else (including the wavedone barrier)
	// flows normally — a lossy link, caught by the coordinator's
	// frame-integrity check on the barrier's echoed indices.
	FaultDropFrames
	// FaultSlowLink delays every forwarded result-stream frame by Delay once
	// After frames have passed — a degraded link. It is the one fault a
	// correct coordinator must NOT react to: as long as Delay stays under
	// the liveness deadline the run completes without any relaunch.
	FaultSlowLink
	// FaultCrashOnConnect kills the worker the instant it is launched,
	// before a single byte flows — the building block of reconnect storms.
	// After is ignored.
	FaultCrashOnConnect
)

// String names the fault kind for logs and benchmark reports.
func (k FaultKind) String() string {
	switch k {
	case FaultCrashBeforeWave:
		return "crash-before-wave"
	case FaultCrashMidWave:
		return "crash-mid-wave"
	case FaultHang:
		return "hang"
	case FaultGarbage:
		return "garbage-frame"
	case FaultPartition:
		return "partition"
	case FaultDropFrames:
		return "drop-frames"
	case FaultSlowLink:
		return "slow-link"
	case FaultCrashOnConnect:
		return "crash-on-connect"
	default:
		return fmt.Sprintf("fault-kind-%d", int(k))
	}
}

// Fault schedules one failure: the Launch-th worker incarnation of a shard
// misbehaves per Kind when its After trigger count is reached.
type Fault struct {
	// Shard is the faulted shard.
	Shard int
	// Launch is the incarnation the fault applies to: 0 faults the first
	// worker launched for the shard, 1 its first relaunch, and so on.
	Launch int
	// Kind is the failure mode.
	Kind FaultKind
	// After is the kind-specific trigger count: wave commands written
	// (FaultCrashBeforeWave), result frames emitted (FaultCrashMidWave,
	// FaultDropFrames), or protocol frames emitted (FaultHang, FaultGarbage,
	// FaultPartition, FaultSlowLink). FaultCrashOnConnect ignores it.
	After int
	// Delay is FaultSlowLink's per-frame forwarding delay.
	Delay time.Duration
}

// errFaultCrash is what a fault-killed connection's streams report.
var errFaultCrash = errors.New("fault: injected worker crash")

// FaultLauncher wraps an inner Launcher with a deterministic fault
// schedule. Incarnations not named in the schedule pass through untouched,
// so a faulted shard's relaunch (the next incarnation) behaves normally
// unless the schedule faults it again.
type FaultLauncher struct {
	// Inner launches the real workers.
	Inner Launcher
	// Schedule lists the faults to inject.
	Schedule []Fault

	mu       sync.Mutex
	launches map[int]int
}

// Launch starts the shard's next worker incarnation, wrapped with its
// scheduled fault if one matches.
func (l *FaultLauncher) Launch(shard, shards int) (*Conn, error) {
	l.mu.Lock()
	if l.launches == nil {
		l.launches = make(map[int]int)
	}
	inc := l.launches[shard]
	l.launches[shard]++
	var f *Fault
	for i := range l.Schedule {
		if l.Schedule[i].Shard == shard && l.Schedule[i].Launch == inc {
			f = &l.Schedule[i]
			break
		}
	}
	l.mu.Unlock()
	c, err := l.Inner.Launch(shard, shards)
	if err != nil || f == nil {
		return c, err
	}
	return injectFault(c, *f), nil
}

// faultConn mediates one faulted connection. The result stream is forwarded
// frame by frame through a pipe so the fault can cut, corrupt, or freeze it
// at an exact protocol position; the command stream is intercepted in
// Write. Killing the faulted connection kills the real worker underneath,
// so no fault leaks a live process.
type faultConn struct {
	inner *Conn
	f     Fault
	pw    *io.PipeWriter

	mu          sync.Mutex
	waves       int  // wave commands seen on the command stream
	partitioned bool // FaultPartition tripped: swallow both directions

	killed   chan struct{}
	killOnce sync.Once
}

// injectFault wraps a real connection with one scheduled fault.
func injectFault(inner *Conn, f Fault) *Conn {
	pr, pw := io.Pipe()
	fc := &faultConn{inner: inner, f: f, pw: pw, killed: make(chan struct{})}
	go fc.forward()
	return &Conn{
		W:    fc,
		R:    pr,
		Wait: inner.Wait,
		Kill: fc.kill,
	}
}

// kill terminates the faulted connection and the real worker under it,
// unblocking a hung forwarder.
func (c *faultConn) kill() {
	c.killOnce.Do(func() { close(c.killed) })
	c.inner.kill()
}

// Write intercepts the coordinator's command stream. FaultCrashBeforeWave
// lives here: at its trigger the real worker is killed and the write fails,
// exactly like a process that died between waves. FaultCrashOnConnect fails
// the very first write (nothing ever reaches the worker), and a tripped
// FaultPartition swallows commands "successfully" — the write reports
// success but the worker never hears it, like a blackholed packet.
func (c *faultConn) Write(p []byte) (int, error) {
	if c.f.Kind == FaultCrashOnConnect {
		c.kill()
		c.pw.CloseWithError(errFaultCrash)
		return 0, errFaultCrash
	}
	if c.f.Kind == FaultPartition {
		c.mu.Lock()
		cut := c.partitioned
		c.mu.Unlock()
		if cut {
			return len(p), nil
		}
	}
	// Every command arrives in its own Write; its second byte is its type.
	if c.f.Kind == FaultCrashBeforeWave && len(p) > 1 && MsgType(p[1]) == TypeWave {
		c.mu.Lock()
		n := c.waves
		c.waves++
		c.mu.Unlock()
		if n == c.f.After {
			c.kill()
			c.pw.CloseWithError(errFaultCrash)
			return 0, errFaultCrash
		}
	}
	return c.inner.W.Write(p)
}

// Close closes the command stream of the real connection.
func (c *faultConn) Close() error { return c.inner.W.Close() }

// forward pumps the worker's result stream to the coordinator, applying
// the read-side faults at their trigger positions.
func (c *faultConn) forward() {
	if c.f.Kind == FaultCrashOnConnect {
		// Dead before the first byte: the cleanest connection failure.
		c.kill()
		c.pw.CloseWithError(errFaultCrash)
		return
	}
	dec := newMsgReader(c.inner.R)
	seen := 0
	results := 0
	for {
		raw, _, err := dec.frames()
		for len(raw) > 0 {
			size, _ := frameSize(raw)
			frame := raw[:size]
			raw = raw[size:]
			drop := false
			switch c.f.Kind {
			case FaultCrashMidWave:
				if MsgType(frame[1]) == TypeResult {
					if results == c.f.After {
						c.kill()
						c.pw.CloseWithError(errFaultCrash)
						return
					}
					results++
				}
			case FaultHang:
				if seen == c.f.After {
					// Fall silent without closing anything: the worker
					// stays alive, the coordinator hears nothing, and only
					// the liveness deadline (or a kill) ends it.
					<-c.killed
					c.pw.CloseWithError(errFaultCrash)
					return
				}
				seen++
			case FaultGarbage:
				if seen == c.f.After {
					bad := append([]byte(nil), frame...)
					bad[size-1] ^= 0xff
					if _, werr := c.pw.Write(bad); werr != nil {
						c.inner.kill()
						return
					}
				}
				seen++
			case FaultPartition:
				if seen == c.f.After {
					// Trip the partition: swallow writes from here on (see
					// Write) and blackhole the rest of the worker's output
					// without closing anything. Only the liveness deadline
					// (or a kill) ends it.
					c.mu.Lock()
					c.partitioned = true
					c.mu.Unlock()
					<-c.killed
					c.pw.CloseWithError(errFaultCrash)
					return
				}
				seen++
			case FaultDropFrames:
				if MsgType(frame[1]) == TypeResult {
					drop = results == c.f.After // the frame vanishes; the stream lives on
					results++
				}
			case FaultSlowLink:
				if seen >= c.f.After && c.f.Delay > 0 {
					select {
					case <-time.After(c.f.Delay):
					case <-c.killed:
						c.pw.CloseWithError(errFaultCrash)
						return
					}
				}
				seen++
			}
			if !drop {
				if _, werr := c.pw.Write(frame); werr != nil {
					// The coordinator closed its end (teardown); stop the
					// worker so nothing leaks.
					c.inner.kill()
					return
				}
			}
		}
		if err != nil {
			if err == io.EOF {
				c.pw.Close()
			} else {
				c.pw.CloseWithError(err)
			}
			return
		}
	}
}
