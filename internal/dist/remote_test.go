package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The remote-transport suite: template expansion, the loopback end-to-end
// run (the full RemoteLauncher path without an sshd), and each connection
// guard — handshake deadline, mid-frame deadline, frame size cap, write
// deadline — in isolation.

// TestRemoteLauncherTemplateExpansion pins the placeholder contract: every
// Command element is expanded, hosts wrap modulo the host list, and an
// empty host list means localhost.
func TestRemoteLauncherTemplateExpansion(t *testing.T) {
	l := &RemoteLauncher{
		Hosts:      []string{"a", "b"},
		Command:    []string{"ssh", "{host}", "run -shard {shard}/{shards} -cores {cores}"},
		CoreBudget: 8,
	}
	got := l.expand(2, 4)
	want := []string{"ssh", "a", "run -shard 2/4 -cores 2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expand(2,4) = %q, want %q", got, want)
	}
	if h := l.host(3); h != "b" {
		t.Fatalf("host(3) = %q, want wraparound to %q", h, "b")
	}
	if h := (&RemoteLauncher{}).host(0); h != "localhost" {
		t.Fatalf("empty Hosts host(0) = %q, want localhost", h)
	}
}

// TestRemoteLauncherNeedsCommand checks the launcher fails fast without a
// template.
func TestRemoteLauncherNeedsCommand(t *testing.T) {
	if _, err := (&RemoteLauncher{}).Launch(0, 1); err == nil || !strings.Contains(err.Error(), "Command") {
		t.Fatalf("expected a missing-template error, got %v", err)
	}
}

// TestRemoteLoopbackEndToEnd runs a coordinator against a loopback fleet —
// workers started through the full RemoteLauncher transport path (template
// expansion, /bin/sh transport process, frame guard, write deadline) — and
// requires the fold byte-identical to the in-process run. This is the
// ssh-shaped e2e test CI runs; an sshd-backed fleet differs only in the
// command template.
func TestRemoteLoopbackEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	spec := []byte(`{"job":"echo-loopback"}`)
	opts := Options{Shards: 3, MaxTrials: 21, Wave: 4, Seed: 11, Spec: spec}
	ref, refRes := runEcho(t, opts, nil)

	remote := opts
	remote.Launcher = &RemoteLauncher{
		Command: LoopbackCommand(os.Args[0] + " " + distWorkerFlag + "{shard}/{shards}"),
	}
	st := &foldState{}
	res, err := Run(remote, st.sink, nil, st)
	if err != nil {
		t.Fatalf("loopback fleet run: %v", err)
	}
	if res != refRes {
		t.Fatalf("loopback result %+v, in-process result %+v", res, refRes)
	}
	if !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("loopback fleet fold diverged from in-process fold")
	}
}

// TestRemoteHandshakeTimeout points the transport at a command that never
// says anything: the handshake guard must kill it and the run must fail
// promptly with the guard's diagnosis instead of hanging.
func TestRemoteHandshakeTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	opts := Options{
		Shards: 1, MaxTrials: 4, Seed: 1, Spec: []byte(`{}`),
		MaxRelaunches: NoRelaunch,
		Log:           io.Discard,
		Launcher: &RemoteLauncher{
			Command:          []string{"/bin/sh", "-c", "sleep 300"},
			HandshakeTimeout: 50 * time.Millisecond,
		},
	}
	begin := time.Now()
	_, err := Run(opts, (&foldState{}).sink, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "no handshake byte") {
		t.Fatalf("expected a handshake-timeout diagnosis, got %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 10*time.Second {
		t.Fatalf("handshake timeout took %v to surface", elapsed)
	}
}

// guardHarness builds a frameGuard over an in-test source pipe, with kill
// wired the way RemoteLauncher wires it: killing the transport collapses
// the source stream.
func guardHarness(handshake, frame time.Duration) (src *io.PipeWriter, out *io.PipeReader) {
	srcR, srcW := io.Pipe()
	outR, outW := io.Pipe()
	g := &frameGuard{
		src:       srcR,
		pw:        outW,
		handshake: handshake,
		frame:     frame,
	}
	g.kill = func() { srcR.CloseWithError(io.ErrUnexpectedEOF) }
	go g.run()
	return srcW, outR
}

// guardFrame is a whole result frame for trial i.
func guardFrame(t *testing.T, i int) []byte {
	t.Helper()
	frame, err := appendMsg(nil, &Msg{Type: TypeResult, Trial: i, Data: []byte(`{"whole":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestFrameGuardMidFrameStall starts a frame and then stalls: the guard
// must cut the stream with a mid-frame diagnosis, relaying nothing of the
// partial frame. A completed frame followed by idleness must NOT trip it —
// idle gaps belong to the coordinator's liveness deadline.
func TestFrameGuardMidFrameStall(t *testing.T) {
	srcW, out := guardHarness(-1, 30*time.Millisecond)
	go srcW.Write(guardFrame(t, 1)[:5]) // a frame starts, never finishes
	buf := make([]byte, 64)
	if n, err := out.Read(buf); n != 0 || err == nil || !strings.Contains(err.Error(), "mid-frame") {
		t.Fatalf("read %d bytes and %v, want a mid-frame stall diagnosis", n, err)
	}
}

// TestFrameGuardIdleBetweenFramesOK checks the complement: whole frames
// followed by silence pass through untouched, because idleness between
// frames is not a transport fault.
func TestFrameGuardIdleBetweenFramesOK(t *testing.T) {
	srcW, out := guardHarness(-1, 30*time.Millisecond)
	for i := 1; i <= 2; i++ {
		frame := guardFrame(t, i)
		go srcW.Write(frame)
		buf := make([]byte, 64)
		n, err := io.ReadFull(out, buf[:len(frame)])
		if err != nil || !bytes.Equal(buf[:n], frame) {
			t.Fatalf("frame %d: relayed %q, %v; want %q", i, buf[:n], err, frame)
		}
		time.Sleep(90 * time.Millisecond) // three frame deadlines of idleness
	}
}

// TestFrameGuardMaxFrame feeds a header that declares a body past
// DefaultMaxFrame: the guard must end the stream with the decoder's cap
// error instead of waiting for, or buffering, the body.
func TestFrameGuardMaxFrame(t *testing.T) {
	srcW, out := guardHarness(-1, -1)
	go srcW.Write(binary.AppendUvarint([]byte{ProtocolVersion, byte(TypeResult)}, DefaultMaxFrame+1))
	var err error
	buf := make([]byte, 1024)
	for err == nil {
		_, err = out.Read(buf)
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Fatalf("expected a frame-cap diagnosis, got %v", err)
	}
}

// TestFrameGuardHandshakeDeadline checks silence before the first byte is
// its own violation with its own diagnosis.
func TestFrameGuardHandshakeDeadline(t *testing.T) {
	_, out := guardHarness(30*time.Millisecond, -1)
	buf := make([]byte, 64)
	if _, err := out.Read(buf); err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("expected a handshake diagnosis, got %v", err)
	}
}

// TestDeadlineWriterKillsStalledWrite blocks a write past its deadline and
// checks the writer fires its kill hook and fails the write.
func TestDeadlineWriterKillsStalledWrite(t *testing.T) {
	pr, pw := io.Pipe() // no reader: writes block until the kill hook fires
	dw := &deadlineWriter{w: pw, d: 20 * time.Millisecond, kill: func() { pr.CloseWithError(io.ErrClosedPipe) }}
	if _, err := dw.Write([]byte("stalls\n")); err == nil {
		t.Fatal("stalled write returned nil error")
	}
	if !dw.expired.Load() {
		t.Fatal("deadline did not fire")
	}
}

// TestSSHCommandShape pins the ssh template: batch mode (fail, not prompt,
// on missing credentials), extra args before the host, the worker command
// last.
func TestSSHCommandShape(t *testing.T) {
	got := SSHCommand("worker -shard {shard}/{shards}", "-p", "2222")
	want := []string{"ssh", "-o", "BatchMode=yes", "-p", "2222", "{host}", "worker -shard {shard}/{shards}"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SSHCommand = %q, want %q", got, want)
	}
}

// TestSSHFleetLauncher checks host-list validation and the self-exec
// default worker command.
func TestSSHFleetLauncher(t *testing.T) {
	if _, err := SSHFleetLauncher(nil, ""); err == nil {
		t.Fatal("expected an error for an empty host list")
	}
	l, err := SSHFleetLauncher([]string{"h1", "h2"}, "", "-extra=1")
	if err != nil {
		t.Fatal(err)
	}
	cmdline := l.Command[len(l.Command)-1]
	if !strings.Contains(cmdline, "-shard-worker {shard}/{shards}") || !strings.Contains(cmdline, "-extra=1") {
		t.Fatalf("default worker command %q lacks the self-exec shape", cmdline)
	}
	if !reflect.DeepEqual(l.Hosts, []string{"h1", "h2"}) {
		t.Fatalf("hosts = %q", l.Hosts)
	}
}
