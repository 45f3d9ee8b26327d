package dist

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// The chaos suite: every test injects worker failures through FaultLauncher
// and requires the run to finish with a fold byte-identical to a fault-free
// single-shard run — the ISSUE 6 acceptance bar. The CI fault-injection job
// runs this file under -race.

// chaosOpts are the base options every chaos run shares: fast relaunch
// backoff, a liveness deadline generous enough for race-instrumented
// builds, and silenced recovery diagnostics.
func chaosOpts(shards int, launcher Launcher) Options {
	return Options{
		Shards:          shards,
		MaxTrials:       48,
		Wave:            4,
		Seed:            23,
		Spec:            []byte(`{"job":"chaos"}`),
		Launcher:        launcher,
		WorkerTimeout:   500 * time.Millisecond,
		RelaunchBackoff: time.Millisecond,
		Log:             io.Discard,
	}
}

// chaosReference folds the same job fault-free on a single shard.
func chaosReference(t *testing.T, opts Options) *foldState {
	t.Helper()
	ref := opts
	ref.Shards = 1
	ref.Launcher = &PipeLauncher{Build: echoBuild}
	ref.WorkerTimeout = 0
	ref.CheckpointPath = ""
	st, _ := runEcho(t, ref, nil)
	return st
}

// TestChaosEachFaultKindSelfHeals runs S=4 with one shard faulted per
// fault kind and requires the run to complete without manual intervention,
// with the folded stream byte-identical to the fault-free single-shard run.
func TestChaosEachFaultKindSelfHeals(t *testing.T) {
	kinds := []struct {
		name  string
		fault Fault
	}{
		{"crash-before-wave", Fault{Shard: 2, Kind: FaultCrashBeforeWave, After: 1}},
		{"crash-mid-wave", Fault{Shard: 2, Kind: FaultCrashMidWave, After: 2}},
		{"hang", Fault{Shard: 2, Kind: FaultHang, After: 1}},
		{"garbage", Fault{Shard: 2, Kind: FaultGarbage, After: 1}},
	}
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			opts := chaosOpts(4, &FaultLauncher{
				Inner:    &PipeLauncher{Build: echoBuild},
				Schedule: []Fault{tc.fault},
			})
			ref := chaosReference(t, opts)
			st := &foldState{}
			res, err := Run(opts, st.sink, nil, st)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if res.Trials != opts.MaxTrials {
				t.Fatalf("folded %d trials, want %d", res.Trials, opts.MaxTrials)
			}
			if res.Relaunches == 0 {
				t.Fatalf("res = %+v, want at least one relaunch", res)
			}
			if !reflect.DeepEqual(st.Seq, ref.Seq) {
				t.Fatalf("%s: fold diverged from fault-free run", tc.name)
			}
		})
	}
}

// TestChaosScheduleKillsEachShardOnce is the acceptance scenario: S=4 and a
// deterministic ChaosSchedule that kills each shard's first worker exactly
// once (all four fault kinds appear across the shards), with the run
// completing and the fold byte-identical to the fault-free single-shard
// run.
func TestChaosScheduleKillsEachShardOnce(t *testing.T) {
	schedule := ChaosSchedule(9, 4)
	if len(schedule) != 4 {
		t.Fatalf("schedule has %d faults, want 4", len(schedule))
	}
	seenShard := map[int]bool{}
	seenKind := map[FaultKind]bool{}
	for _, f := range schedule {
		seenShard[f.Shard] = true
		seenKind[f.Kind] = true
		if f.Launch != 0 {
			t.Fatalf("fault %+v targets a relaunch, want first incarnations only", f)
		}
	}
	if len(seenShard) != 4 || len(seenKind) != 4 {
		t.Fatalf("schedule %+v does not kill each shard once with all kinds", schedule)
	}
	if !reflect.DeepEqual(schedule, ChaosSchedule(9, 4)) {
		t.Fatal("ChaosSchedule is not deterministic")
	}

	opts := chaosOpts(4, &FaultLauncher{
		Inner:    &PipeLauncher{Build: echoBuild},
		Schedule: schedule,
	})
	ref := chaosReference(t, opts)
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if res.Trials != opts.MaxTrials || res.Relaunches < 4 {
		t.Fatalf("res = %+v, want %d trials and >= 4 relaunches", res, opts.MaxTrials)
	}
	if !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("chaos fold diverged from fault-free run")
	}
}

// TestChaosExhaustedBudgetRedistributes kills every incarnation of shard 0,
// exhausting its relaunch budget; the coordinator must redistribute its
// index stream to the surviving shard and still produce the byte-identical
// fold.
func TestChaosExhaustedBudgetRedistributes(t *testing.T) {
	opts := chaosOpts(2, &FaultLauncher{
		Inner: &PipeLauncher{Build: echoBuild},
		Schedule: []Fault{
			{Shard: 0, Launch: 0, Kind: FaultCrashBeforeWave, After: 1},
			{Shard: 0, Launch: 1, Kind: FaultCrashMidWave, After: 1},
			{Shard: 0, Launch: 2, Kind: FaultGarbage},
		},
	})
	opts.MaxRelaunches = 2
	ref := chaosReference(t, opts)
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Relaunches != 2 || res.Requeued == 0 {
		t.Fatalf("res = %+v, want exactly 2 relaunches and requeued trials", res)
	}
	if res.Trials != opts.MaxTrials || !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("redistributed fold diverged from fault-free run")
	}
}

// TestChaosRequeuedBoundedByInFlightWork pins Result.Requeued to its doc:
// only work in flight at a failure is re-sent. Shard 1 dies on connect in
// both incarnations and is written off early; the survivor then receives
// every later wave as ordinary dispatch, so the count stays within
// pipelineDepth·wave per failure however many waves follow.
func TestChaosRequeuedBoundedByInFlightWork(t *testing.T) {
	for _, waves := range []int{32, 64} {
		opts := chaosOpts(2, &FaultLauncher{
			Inner:    &PipeLauncher{Build: echoBuild},
			Schedule: ReconnectStorm(1, 2),
		})
		opts.MaxRelaunches = 1
		opts.MaxTrials = waves * opts.Wave
		ref := chaosReference(t, opts)
		st := &foldState{}
		res, err := Run(opts, st.sink, nil, st)
		if err != nil {
			t.Fatalf("waves=%d: %v", waves, err)
		}
		failures := res.Relaunches + 1
		if bound := failures * pipelineDepth * opts.Wave; res.Requeued == 0 || res.Requeued > bound {
			t.Fatalf("waves=%d: res = %+v, want 0 < Requeued <= %d", waves, res, bound)
		}
		if res.Trials != opts.MaxTrials || !reflect.DeepEqual(st.Seq, ref.Seq) {
			t.Fatalf("waves=%d: fold diverged from fault-free run", waves)
		}
	}
}

// TestChaosAllShardsLostLeavesUsableCheckpoint crashes every incarnation of
// every shard: the run must fail with a permanent-failure error — not hang
// — and leave a checkpoint from which a clean rerun completes
// byte-identically.
func TestChaosAllShardsLostLeavesUsableCheckpoint(t *testing.T) {
	opts := chaosOpts(2, &FaultLauncher{
		Inner: &PipeLauncher{Build: echoBuild},
		// The first incarnations crash only at their 4th wave command, so a
		// couple of waves fold (and checkpoint) before the relaunches crash
		// fast and both shards are written off.
		Schedule: []Fault{
			{Shard: 0, Launch: 0, Kind: FaultCrashBeforeWave, After: 3},
			{Shard: 0, Launch: 1, Kind: FaultCrashBeforeWave, After: 1},
			{Shard: 1, Launch: 0, Kind: FaultCrashBeforeWave, After: 3},
			{Shard: 1, Launch: 1, Kind: FaultCrashBeforeWave, After: 1},
		},
	})
	opts.MaxRelaunches = 1
	opts.CheckpointPath = filepath.Join(t.TempDir(), "chaos.ckpt")
	ref := chaosReference(t, opts)

	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err == nil || !strings.Contains(err.Error(), "failed permanently") {
		t.Fatalf("expected permanent failure, got %v", err)
	}
	if res.Trials == 0 {
		t.Fatal("nothing folded before the abort; the completable waves should have been saved")
	}

	resume := opts
	resume.Launcher = &PipeLauncher{Build: echoBuild}
	st2 := &foldState{}
	res2, err := Run(resume, st2.sink, nil, st2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res2.ResumedFrom == 0 || res2.Trials != opts.MaxTrials {
		t.Fatalf("resume res = %+v, want a resume completing %d trials", res2, opts.MaxTrials)
	}
	if !reflect.DeepEqual(st2.Seq, ref.Seq) {
		t.Fatal("resumed fold diverged from fault-free run")
	}
}

// TestChaosHandshakeTimeout pins the handshake liveness deadline: a worker
// that connects but never completes the handshake is detected within
// WorkerTimeout. With recovery enabled the shard relaunches and the run
// self-heals; with NoRelaunch the run aborts with the hang diagnosis
// instead of blocking forever.
func TestChaosHandshakeTimeout(t *testing.T) {
	mkLauncher := func() Launcher {
		return &FaultLauncher{
			Inner:    &PipeLauncher{Build: echoBuild},
			Schedule: []Fault{{Shard: 1, Kind: FaultHang, After: 0}},
		}
	}

	opts := chaosOpts(2, mkLauncher())
	opts.WorkerTimeout = 200 * time.Millisecond
	ref := chaosReference(t, opts)
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("self-heal run: %v", err)
	}
	if res.Relaunches == 0 || !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatalf("res = %+v, want a relaunch and a byte-identical fold", res)
	}

	noHeal := chaosOpts(2, mkLauncher())
	noHeal.WorkerTimeout = 200 * time.Millisecond
	noHeal.MaxRelaunches = NoRelaunch
	begin := time.Now()
	_, err = Run(noHeal, (&foldState{}).sink, nil, &foldState{})
	if err == nil || !strings.Contains(err.Error(), "worker hung") {
		t.Fatalf("expected hang diagnosis, got %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 10*time.Second {
		t.Fatalf("hang detection took %v, want within the liveness deadline", elapsed)
	}
}

// TestChaosExecLauncher repeats the kill-and-relaunch scenario over real
// worker processes (the test binary re-executed in worker mode): the
// injected crash kills an actual child process, and the relaunched process
// picks the wave back up.
func TestChaosExecLauncher(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	opts := chaosOpts(2, &FaultLauncher{
		Inner: &ExecLauncher{
			Path: os.Args[0],
			Args: func(shard, shards int) []string {
				return []string{distWorkerFlag + ShardArg(shard, shards)}
			},
			Stderr: io.Discard,
		},
		Schedule: []Fault{{Shard: 1, Kind: FaultCrashMidWave, After: 2}},
	})
	ref := chaosReference(t, opts)
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("exec chaos run: %v", err)
	}
	if res.Relaunches == 0 || !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatalf("res = %+v, want a process relaunch and a byte-identical fold", res)
	}
}

// TestPrefixWriter pins the stderr line prefixing: one prefix per line,
// partial lines remembered across writes, and each Write forwarded as a
// single underlying write.
func TestPrefixWriter(t *testing.T) {
	var buf bytes.Buffer
	w := &prefixWriter{w: &buf, prefix: []byte("[shard 1/4] ")}
	for _, chunk := range []string{"boom\n", "spl", "it\ntwo\n", "tail"} {
		n, err := w.Write([]byte(chunk))
		if err != nil || n != len(chunk) {
			t.Fatalf("Write(%q) = %d, %v", chunk, n, err)
		}
	}
	want := "[shard 1/4] boom\n[shard 1/4] split\n[shard 1/4] two\n[shard 1/4] tail"
	if got := buf.String(); got != want {
		t.Fatalf("prefixed output %q, want %q", got, want)
	}
}

// TestExecLauncherStderrPrefix is the process-level regression test for the
// [shard i/S] prefix: a worker's stderr lines arrive attributed.
func TestExecLauncherStderrPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	var buf syncBuffer
	l := &ExecLauncher{
		Path:   "/bin/sh",
		Args:   func(int, int) []string { return []string{"-c", "echo boom >&2; printf split >&2; echo ter >&2"} },
		Stderr: &buf,
	}
	c, err := l.Launch(1, 4)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	c.W.Close()
	_, _ = io.Copy(io.Discard, c.R)
	if err := c.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	want := "[shard 1/4] boom\n[shard 1/4] splitter\n"
	if got := buf.String(); got != want {
		t.Fatalf("worker stderr %q, want %q", got, want)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: exec.Cmd writes stderr from
// its own goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// Write implements io.Writer.
func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// String returns the accumulated bytes.
func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
