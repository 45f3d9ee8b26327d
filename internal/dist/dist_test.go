package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// echoPayload is the deterministic payload the test runner emits for a
// global trial index: a pure function of (spec, seed, index), like real
// trials.
func echoPayload(spec []byte, seed uint64, trial int) []byte {
	return []byte(fmt.Sprintf(`{"trial":%d,"seed":%d,"spec":%d}`, trial, seed, len(spec)))
}

// echoBuild is a BuildRunner whose trials just echo their identity.
func echoBuild(spec []byte, seed uint64) (TrialRunner, error) {
	return func(indices []int, emit func(trial int, data []byte)) error {
		for _, i := range indices {
			emit(i, echoPayload(spec, seed, i))
		}
		return nil
	}, nil
}

// foldState is a checkpointable sink state: an order-sensitive running hash
// of everything folded, so any reordering, omission, or duplication shows.
type foldState struct {
	Count int      `json:"count"`
	Seq   []string `json:"seq"`
}

func (s *foldState) Snapshot() ([]byte, error) { return json.Marshal(s) }
func (s *foldState) Restore(b []byte) error    { return json.Unmarshal(b, s) }

func (s *foldState) sink(trial int, data []byte) error {
	s.Count++
	s.Seq = append(s.Seq, fmt.Sprintf("%d:%s", trial, data))
	return nil
}

// runEcho runs a coordinator over the echo runner and returns the folded
// state.
func runEcho(t *testing.T, opts Options, stop func() bool) (*foldState, Result) {
	t.Helper()
	if opts.Launcher == nil {
		opts.Launcher = &PipeLauncher{Build: echoBuild}
	}
	st := &foldState{}
	res, err := Run(opts, st.sink, stop, st)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st, res
}

// TestParseShardArg pins the round trip and the rejections.
func TestParseShardArg(t *testing.T) {
	shard, shards, err := ParseShardArg(ShardArg(3, 8))
	if err != nil || shard != 3 || shards != 8 {
		t.Fatalf("round trip: %d/%d, %v", shard, shards, err)
	}
	for _, bad := range []string{"", "3", "8/3", "-1/4", "a/b", "4/4", "0/2x", "1/2/3", "+1/2", " 0/2"} {
		if _, _, err := ParseShardArg(bad); err == nil {
			t.Fatalf("ParseShardArg(%q) accepted", bad)
		}
	}
}

// TestRunFixedFoldsInOrderAcrossShards is the core determinism property at
// the dist level: the folded sequence is identical at every shard count and
// equals the declared global order.
func TestRunFixedFoldsInOrderAcrossShards(t *testing.T) {
	spec := []byte(`{"job":"echo"}`)
	const trials = 53
	var want []string
	for i := 0; i < trials; i++ {
		want = append(want, fmt.Sprintf("%d:%s", i, echoPayload(spec, 7, i)))
	}
	for _, shards := range []int{1, 2, 4} {
		for _, wave := range []int{0, 1, 5, 64} {
			st, res := runEcho(t, Options{Shards: shards, MaxTrials: trials, Wave: wave, Seed: 7, Spec: spec}, nil)
			if res.Trials != trials || res.Stopped {
				t.Fatalf("shards=%d wave=%d: result %+v", shards, wave, res)
			}
			if !reflect.DeepEqual(st.Seq, want) {
				t.Fatalf("shards=%d wave=%d: folded sequence diverged:\n%v\nwant\n%v", shards, wave, st.Seq, want)
			}
		}
	}
}

// TestRunAdaptiveStopPointIndependentOfShards checks that a stopping
// predicate fires at the same folded prefix at every shard count and wave
// size, including mid-wave.
func TestRunAdaptiveStopPointIndependentOfShards(t *testing.T) {
	spec := []byte(`{"job":"echo"}`)
	const stopAt = 23
	for _, shards := range []int{1, 2, 4} {
		for _, wave := range []int{3, 16, 100} {
			st := &foldState{}
			res, err := Run(Options{
				Shards: shards, MaxTrials: 100, Wave: wave, Seed: 7, Spec: spec,
				Launcher: &PipeLauncher{Build: echoBuild},
			}, st.sink, func() bool { return st.Count >= stopAt }, nil)
			if err != nil {
				t.Fatalf("shards=%d wave=%d: %v", shards, wave, err)
			}
			if !res.Stopped || res.Trials != stopAt || st.Count != stopAt {
				t.Fatalf("shards=%d wave=%d: stopped=%v trials=%d folded=%d, want stop at %d",
					shards, wave, res.Stopped, res.Trials, st.Count, stopAt)
			}
		}
	}
}

// TestRunCheckpointResume interrupts a checkpointed run with MaxWaves,
// resumes it, and requires the folded state to be byte-identical to an
// uninterrupted run — including a final no-op resume of the done
// checkpoint.
func TestRunCheckpointResume(t *testing.T) {
	spec := []byte(`{"job":"echo"}`)
	const trials = 40
	full, fullRes := runEcho(t, Options{Shards: 2, MaxTrials: trials, Wave: 6, Seed: 9, Spec: spec}, nil)

	cp := filepath.Join(t.TempDir(), "run.ckpt")
	st, res := runEcho(t, Options{Shards: 2, MaxTrials: trials, Wave: 6, Seed: 9, Spec: spec,
		CheckpointPath: cp, MaxWaves: 3}, nil)
	if !res.Interrupted || res.Trials != 18 || len(st.Seq) != 18 {
		t.Fatalf("interrupted run: %+v (folded %d)", res, len(st.Seq))
	}
	st2 := &foldState{}
	res2, err := Run(Options{Shards: 2, MaxTrials: trials, Wave: 6, Seed: 9, Spec: spec,
		CheckpointPath: cp, Launcher: &PipeLauncher{Build: echoBuild}}, st2.sink, nil, st2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res2.ResumedFrom != 18 || res2.Trials != trials || res2.Interrupted {
		t.Fatalf("resume result: %+v", res2)
	}
	// The resumed state was restored from the checkpoint snapshot before
	// folding the remainder, so it must equal the uninterrupted run's.
	if !reflect.DeepEqual(st2.Seq, full.Seq) {
		t.Fatalf("resumed state diverged from uninterrupted run:\n%v\nwant\n%v", st2.Seq, full.Seq)
	}
	if res2.Waves != fullRes.Waves {
		t.Fatalf("cumulative waves: %d vs %d", res2.Waves, fullRes.Waves)
	}

	// Resuming a done checkpoint restores the final state without
	// launching anything.
	st3 := &foldState{}
	res3, err := Run(Options{Shards: 2, MaxTrials: trials, Wave: 6, Seed: 9, Spec: spec,
		CheckpointPath: cp, Launcher: failingLauncher{}}, st3.sink, nil, st3)
	if err != nil {
		t.Fatalf("done resume: %v", err)
	}
	if res3.Trials != trials || !reflect.DeepEqual(st3.Seq, full.Seq) {
		t.Fatalf("done resume diverged: %+v", res3)
	}
}

// failingLauncher fails every Launch; used to prove a done checkpoint never
// launches workers.
type failingLauncher struct{}

func (failingLauncher) Launch(int, int) (*Conn, error) {
	return nil, fmt.Errorf("launcher must not be called")
}

// TestRunWorkerCrashLeavesUsableCheckpoint kills the run mid-wave via a
// runner that fails on a specific trial, then resumes with a healthy
// launcher and requires the final state to match an uninterrupted run —
// the dist-level version of the kill-and-resume contract.
func TestRunWorkerCrashLeavesUsableCheckpoint(t *testing.T) {
	spec := []byte(`{"job":"echo"}`)
	const trials = 30
	full, _ := runEcho(t, Options{Shards: 2, MaxTrials: trials, Wave: 5, Seed: 4, Spec: spec}, nil)

	crashing := func(spec []byte, seed uint64) (TrialRunner, error) {
		return func(indices []int, emit func(trial int, data []byte)) error {
			for _, i := range indices {
				if i == 17 { // wave [15,20): crash mid-run
					return fmt.Errorf("injected crash at trial %d", i)
				}
				emit(i, echoPayload(spec, seed, i))
			}
			return nil
		}, nil
	}
	cp := filepath.Join(t.TempDir(), "crash.ckpt")
	st := &foldState{}
	_, err := Run(Options{Shards: 2, MaxTrials: trials, Wave: 5, Seed: 4, Spec: spec,
		CheckpointPath: cp, Launcher: &PipeLauncher{Build: crashing}}, st.sink, nil, st)
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("expected injected crash, got %v", err)
	}

	st2 := &foldState{}
	res, err := Run(Options{Shards: 2, MaxTrials: trials, Wave: 5, Seed: 4, Spec: spec,
		CheckpointPath: cp, Launcher: &PipeLauncher{Build: echoBuild}}, st2.sink, nil, st2)
	if err != nil {
		t.Fatalf("resume after crash: %v", err)
	}
	if res.ResumedFrom != 15 || res.Trials != trials {
		t.Fatalf("resume result: %+v", res)
	}
	if !reflect.DeepEqual(st2.Seq, full.Seq) {
		t.Fatalf("post-crash resume diverged from uninterrupted run")
	}
}

// TestRunChecksSpecHashOnResume pins that a checkpoint from a different
// configuration is rejected instead of silently folded into.
func TestRunChecksSpecHashOnResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "run.ckpt")
	_, res := runEcho(t, Options{Shards: 1, MaxTrials: 8, Seed: 1, Spec: []byte(`{"a":1}`),
		CheckpointPath: cp}, nil)
	if res.Trials != 8 {
		t.Fatalf("seed run: %+v", res)
	}
	st := &foldState{}
	_, err := Run(Options{Shards: 1, MaxTrials: 8, Seed: 1, Spec: []byte(`{"a":2}`),
		CheckpointPath: cp, Launcher: &PipeLauncher{Build: echoBuild}}, st.sink, nil, st)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("expected configuration mismatch, got %v", err)
	}
	// A changed seed would fold two different trial streams into one
	// aggregate; a changed cap would move the stop point. Both are
	// rejected, not resumed.
	_, err = Run(Options{Shards: 1, MaxTrials: 8, Seed: 2, Spec: []byte(`{"a":1}`),
		CheckpointPath: cp, Launcher: &PipeLauncher{Build: echoBuild}}, st.sink, nil, st)
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("expected seed mismatch, got %v", err)
	}
	_, err = Run(Options{Shards: 1, MaxTrials: 16, Seed: 1, Spec: []byte(`{"a":1}`),
		CheckpointPath: cp, Launcher: &PipeLauncher{Build: echoBuild}}, st.sink, nil, st)
	if err == nil || !strings.Contains(err.Error(), "trial cap") {
		t.Fatalf("expected trial-cap mismatch, got %v", err)
	}
	// A changed stopping policy would produce a stop point matching
	// neither run.
	_, err = Run(Options{Shards: 1, MaxTrials: 8, Seed: 1, Spec: []byte(`{"a":1}`),
		Policy: "adaptive rel=0.03", CheckpointPath: cp, Launcher: &PipeLauncher{Build: echoBuild}},
		st.sink, nil, st)
	if err == nil || !strings.Contains(err.Error(), "policy") {
		t.Fatalf("expected policy mismatch, got %v", err)
	}
}

// TestRunOptionValidation covers the fail-fast paths: every nonsensical
// option is rejected up front with an error that names the field and the
// accepted range, before any worker is launched.
func TestRunOptionValidation(t *testing.T) {
	sink := func(int, []byte) error { return nil }
	cases := []struct {
		name string
		opts Options
		want string // substring the error must carry
	}{
		{"zero-shards", Options{Shards: 0, MaxTrials: 1, Launcher: failingLauncher{}}, "Shards"},
		{"zero-trials", Options{Shards: 1, MaxTrials: 0, Launcher: failingLauncher{}}, "MaxTrials"},
		{"nil-launcher", Options{Shards: 1, MaxTrials: 1}, "Launcher"},
		{"checkpoint-without-state", Options{Shards: 1, MaxTrials: 1, Launcher: failingLauncher{}, CheckpointPath: "x"}, "State"},
		// A negative wave size would silently run cost-sized waves, and a
		// negative wave cap would silently run every wave.
		{"negative-wave", Options{Shards: 1, MaxTrials: 1, Launcher: failingLauncher{}, Wave: -3}, "Wave = -3, want >= 0"},
		{"negative-max-waves", Options{Shards: 1, MaxTrials: 1, Launcher: failingLauncher{}, MaxWaves: -1}, "MaxWaves = -1, want >= 0"},
		// MaxWaves without a checkpoint would interrupt unresumably.
		{"maxwaves-without-checkpoint", Options{Shards: 1, MaxTrials: 1, Launcher: failingLauncher{}, MaxWaves: 1}, "MaxWaves"},
		// A negative liveness deadline would silently disable hang detection
		// while reading as "very strict" at the call site.
		{"negative-worker-timeout", Options{Shards: 1, MaxTrials: 1, Launcher: failingLauncher{},
			WorkerTimeout: -time.Second}, "WorkerTimeout"},
		// A negative backoff would schedule relaunches in the past and spin.
		{"negative-backoff", Options{Shards: 1, MaxTrials: 1, Launcher: failingLauncher{},
			RelaunchBackoff: -time.Millisecond}, "RelaunchBackoff"},
		// Below NoRelaunch there is no defined recovery semantics.
		{"nonsense-max-relaunches", Options{Shards: 1, MaxTrials: 1, Launcher: failingLauncher{},
			MaxRelaunches: NoRelaunch - 1}, "MaxRelaunches"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.opts, sink, nil, nil)
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
	if _, err := Run(Options{Shards: 1, MaxTrials: 1, Launcher: failingLauncher{}}, nil, nil, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

// TestWriteFileAtomic checks atomic replacement and that no temp files are
// left behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "two" {
		t.Fatalf("content %q, err %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1 (temp file leaked?)", len(entries))
	}
}

// TestProtocolVersionRejected pins the version gate on both directions.
func TestProtocolVersionRejected(t *testing.T) {
	r := newMsgReader(strings.NewReader(`{"v":99,"type":"job","trial":0}` + "\n"))
	if _, err := r.next(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("expected version error, got %v", err)
	}
}

// TestServeHaltBeforeJobIsClean pins the shutdown race: the coordinator's
// halt can overtake a job header still queued for an idle worker, and the
// worker must then exit cleanly without writing anything.
func TestServeHaltBeforeJobIsClean(t *testing.T) {
	var in, out strings.Builder
	if err := writeMsg(&in, &Msg{Type: TypeHalt}); err != nil {
		t.Fatal(err)
	}
	if err := Serve(strings.NewReader(in.String()), &out, 1, 2, echoBuild); err != nil {
		t.Fatalf("Serve on a halt-only stream: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("Serve wrote %q, want nothing", out.String())
	}
}

// v1Launcher fakes a worker built against protocol version 1: it consumes
// the job header and answers with a v1 hello line.
type v1Launcher struct{}

func (v1Launcher) Launch(shard, shards int) (*Conn, error) {
	workerIn, coordOut := io.Pipe()
	coordIn, workerOut := io.Pipe()
	go func() {
		r := newMsgReader(workerIn)
		r.next() // the job header (a version-2 line; the old build would also reject it)
		fmt.Fprintf(workerOut, `{"v":1,"type":"hello","shard":%d,"shards":%d}`+"\n", shard, shards)
		workerOut.Close()
		workerIn.Close()
	}()
	return &Conn{W: coordOut, R: coordIn}, nil
}

// TestRunRejectsOldProtocolWorker pins the cross-version handshake
// contract: a worker speaking protocol version 1 (the pre-128-bit-clock
// wire format) fails the run with a descriptive error naming the shard —
// no panic, no silent restart, and no relaunch loop reproducing the same
// build mismatch.
func TestRunRejectsOldProtocolWorker(t *testing.T) {
	st := &foldState{}
	res, err := Run(Options{
		Shards: 1, MaxTrials: 8, Wave: 4, Seed: 3, Spec: []byte(`{"job":"x"}`),
		Launcher: v1Launcher{},
		Log:      io.Discard,
	}, st.sink, nil, st)
	if err == nil {
		t.Fatalf("old-protocol worker accepted: %+v", res)
	}
	for _, want := range []string{"shard 0", "version 1", "128-bit"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if st.Count != 0 {
		t.Fatalf("folded %d trials from a cross-version worker", st.Count)
	}
}

// TestCoreShare pins the core-budget partition: shares sum to the budget
// when it covers every shard, differ by at most one, and floor at one when
// the budget is short.
func TestCoreShare(t *testing.T) {
	for _, tc := range []struct{ budget, shards int }{
		{4, 4}, {4, 2}, {5, 3}, {1, 4}, {16, 5}, {3, 8},
	} {
		min, max, sum := 1<<30, 0, 0
		for shard := 0; shard < tc.shards; shard++ {
			w := CoreShare(tc.budget, shard, tc.shards)
			if w < 1 {
				t.Fatalf("CoreShare(%d, %d, %d) = %d < 1", tc.budget, shard, tc.shards, w)
			}
			if w < min {
				min = w
			}
			if w > max {
				max = w
			}
			sum += w
		}
		if max-min > 1 {
			t.Fatalf("budget %d over %d shards: shares spread %d..%d", tc.budget, tc.shards, min, max)
		}
		if tc.budget >= tc.shards && sum != tc.budget {
			t.Fatalf("budget %d over %d shards: shares sum to %d", tc.budget, tc.shards, sum)
		}
		if tc.budget < tc.shards && sum != tc.shards {
			t.Fatalf("short budget %d over %d shards: shares sum to %d, want one each", tc.budget, tc.shards, sum)
		}
	}
	if got := CoreShare(0, 0, 4); got != 1 {
		t.Fatalf("CoreShare without budget = %d, want 1", got)
	}
}

// TestExecLauncherCoreBudgetEnv launches a real child under a core budget
// and reads the GOMAXPROCS the child observes in its environment.
func TestExecLauncherCoreBudgetEnv(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("/bin/sh unavailable")
	}
	l := &ExecLauncher{
		Path:       "/bin/sh",
		Args:       func(shard, shards int) []string { return []string{"-c", `echo "$GOMAXPROCS"`} },
		CoreBudget: 5,
	}
	c, err := l.Launch(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Wait()
	defer c.W.Close()
	var out [16]byte
	n, _ := c.R.Read(out[:])
	got := strings.TrimSpace(string(out[:n]))
	if want := fmt.Sprintf("%d", CoreShare(5, 1, 3)); got != want {
		t.Fatalf("worker saw GOMAXPROCS=%q, want %q", got, want)
	}
}

// failingDispatchWriter fails every write after its wave budget is spent.
type failingDispatchWriter struct {
	w         io.WriteCloser
	remaining int
}

func (f *failingDispatchWriter) Write(p []byte) (int, error) {
	if len(p) > 1 && MsgType(p[1]) == TypeWave {
		if f.remaining <= 0 {
			return 0, errors.New("injected dispatch failure")
		}
		f.remaining--
	}
	return f.w.Write(p)
}

func (f *failingDispatchWriter) Close() error { return f.w.Close() }

// failAfterWaves wraps a launcher so shard 0's command stream dies after a
// fixed number of wave dispatches.
type failAfterWaves struct {
	inner Launcher
	waves int
}

func (l *failAfterWaves) Launch(shard, shards int) (*Conn, error) {
	c, err := l.inner.Launch(shard, shards)
	if err != nil || shard != 0 {
		return c, err
	}
	c.W = &failingDispatchWriter{w: c.W, remaining: l.waves}
	return c, nil
}

// TestRunDispatchFailureFoldsDispatchedWaves pins the pipelined
// coordinator's loss bound with recovery disabled (NoRelaunch): when
// dispatching wave w fails, every earlier wave — already delivered to all
// shards — still folds (and checkpoints), so a killed coordinator loses
// only the undispatched tail.
func TestRunDispatchFailureFoldsDispatchedWaves(t *testing.T) {
	spec := []byte(`{"job":"echo"}`)
	const wave = 4
	for _, okWaves := range []int{1, 3} {
		st := &foldState{}
		res, err := Run(Options{
			Shards:        2,
			MaxTrials:     40,
			Wave:          wave,
			Seed:          7,
			Spec:          spec,
			Launcher:      &failAfterWaves{inner: &PipeLauncher{Build: echoBuild}, waves: okWaves},
			MaxRelaunches: NoRelaunch,
			Log:           io.Discard,
		}, st.sink, nil, st)
		if err == nil || !strings.Contains(err.Error(), "injected dispatch failure") {
			t.Fatalf("okWaves=%d: expected injected failure, got %v", okWaves, err)
		}
		if want := okWaves * wave; res.Trials != want || st.Count != want {
			t.Fatalf("okWaves=%d: folded %d/%d trials, want exactly %d (the dispatched waves)",
				okWaves, res.Trials, st.Count, want)
		}
		for i := 0; i < st.Count; i++ {
			if want := fmt.Sprintf("%d:%s", i, echoPayload(spec, 7, i)); st.Seq[i] != want {
				t.Fatalf("okWaves=%d: fold %d = %q, want %q", okWaves, i, st.Seq[i], want)
			}
		}
	}
}

// TestRunDispatchFailureSelfHeals is the recovery-enabled companion of
// TestRunDispatchFailureFoldsDispatchedWaves: the same injected dispatch
// failure (shard 0's command stream dies after one wave, on every
// incarnation) no longer aborts the run. The coordinator burns shard 0's
// relaunch budget, redistributes its index stream to shard 1, and the full
// fold is byte-identical to a fault-free run.
func TestRunDispatchFailureSelfHeals(t *testing.T) {
	spec := []byte(`{"job":"echo"}`)
	st := &foldState{}
	res, err := Run(Options{
		Shards:          2,
		MaxTrials:       40,
		Wave:            4,
		Seed:            7,
		Spec:            spec,
		Launcher:        &failAfterWaves{inner: &PipeLauncher{Build: echoBuild}, waves: 1},
		MaxRelaunches:   2,
		RelaunchBackoff: time.Millisecond,
		Log:             io.Discard,
	}, st.sink, nil, st)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Trials != 40 || st.Count != 40 {
		t.Fatalf("folded %d/%d trials, want 40", res.Trials, st.Count)
	}
	if res.Relaunches == 0 || res.Requeued == 0 {
		t.Fatalf("res = %+v, want relaunches and requeued trials", res)
	}
	for i := 0; i < st.Count; i++ {
		if want := fmt.Sprintf("%d:%s", i, echoPayload(spec, 7, i)); st.Seq[i] != want {
			t.Fatalf("fold %d = %q, want %q", i, st.Seq[i], want)
		}
	}
}

// TestHandleDropsBatchTailAfterTeardown pins the generation check inside a
// batch: once a line severs the connection, the lines the reader batched
// behind it belong to a dead incarnation and are dropped, as they would
// have been arriving one channel send at a time.
func TestHandleDropsBatchTailAfterTeardown(t *testing.T) {
	s := &shardSlot{health: healthReady, owed: 2}
	co := &coordinator{slots: []*shardSlot{s}, log: io.Discard, res: &Result{}}
	co.growRing(8)
	co.next = 8
	co.rec(3).owner, co.rec(5).owner = s, s
	co.handle(shardMsg{ms: []Msg{
		{Type: TypeResult, Trial: 3, Data: []byte(`{}`)},
		{Type: TypeHello}, // a second hello: the worker is misbehaving
		{Type: TypeResult, Trial: 5, Data: []byte(`{}`)},
	}})
	if !co.rec(3).have {
		t.Fatal("result ahead of the teardown was dropped")
	}
	if co.rec(5).have || s.owed != 1 {
		t.Fatalf("result behind the teardown was handled (owed %d)", s.owed)
	}
	if s.gen != 1 || co.fatal == nil {
		t.Fatalf("bad hello did not sever the connection (gen %d, fatal %v)", s.gen, co.fatal)
	}
}

// TestHandleDropsResultsOutsideSpan pins that a result for an index outside
// the in-flight span [done, next) is dropped: one already folded, one not
// yet dispatched (here sharing a ring record with a dispatched index), and
// one never to be dispatched. None of them may mark an index received or
// touch its owner's count.
func TestHandleDropsResultsOutsideSpan(t *testing.T) {
	s := &shardSlot{health: healthReady, owed: 4}
	co := &coordinator{slots: []*shardSlot{s}, log: io.Discard, res: &Result{}, done: 16, next: 16, cover: 16}
	co.growRing(4)
	co.next = 20
	for i := co.done; i < co.next; i++ {
		co.rec(i).owner = s
	}
	co.handle(shardMsg{ms: []Msg{
		{Type: TypeResult, Trial: 15, Data: []byte(`folded`)},
		{Type: TypeResult, Trial: 16 + len(co.ring), Data: []byte(`ahead`)},
		{Type: TypeResult, Trial: 1 << 40, Data: []byte(`never`)},
		{Type: TypeResult, Trial: -1, Data: []byte(`negative`)},
		{Type: TypeResult, Trial: 17, Data: []byte(`real`)},
	}})
	if s.owed != 3 || co.fatal != nil {
		t.Fatalf("owed %d (fatal %v), want 3: only trial 17's result counts", s.owed, co.fatal)
	}
	for i := co.done; i < co.next; i++ {
		if r := co.rec(i); r.have != (i == 17) || r.have && string(r.data) != "real" {
			t.Fatalf("trial %d: have %v, data %q", i, r.have, r.data)
		}
	}
}

// TestRunDropsUndispatchedResults runs workers that, besides every
// dispatched trial, emit results for trials not yet dispatched and for
// trials past the cap. The fold must be exactly the fault-free one.
func TestRunDropsUndispatchedResults(t *testing.T) {
	spec := []byte(`{"job":"echo"}`)
	const trials = 200
	build := func(spec []byte, seed uint64) (TrialRunner, error) {
		return func(indices []int, emit func(trial int, data []byte)) error {
			for _, i := range indices {
				emit(i+64, []byte(`"early"`))
				emit(i+trials, []byte(`"past the cap"`))
				emit(i, echoPayload(spec, seed, i))
			}
			return nil
		}, nil
	}
	for _, shards := range []int{1, 2} {
		st, res := runEcho(t, Options{Shards: shards, MaxTrials: trials, Wave: 4, Seed: 7, Spec: spec,
			Launcher: &PipeLauncher{Build: build}}, nil)
		if res.Trials != trials || res.Relaunches != 0 || res.Requeued != 0 {
			t.Fatalf("shards=%d: result %+v", shards, res)
		}
		for i, got := range st.Seq {
			if want := fmt.Sprintf("%d:%s", i, echoPayload(spec, 7, i)); got != want {
				t.Fatalf("shards=%d: fold %d = %q, want %q", shards, i, got, want)
			}
		}
	}
}

// TestBatchReadsLinesPastTheBuffer pins the batched reader on frames
// longer than its buffer: they are gathered whole, between the short
// frames around them, in stream order.
func TestBatchReadsLinesPastTheBuffer(t *testing.T) {
	long := []byte(`"` + strings.Repeat("x", 3<<16) + `"`)
	want := []Msg{
		{Type: TypeResult, Trial: 1, Data: []byte(`{}`)},
		{Type: TypeResult, Trial: 2, Data: long},
		{Type: TypeResult, Trial: 3, Data: []byte(`{}`)},
		{Type: TypeWaveDone, Hi: 4, Indices: []int{1, 2, 3}},
	}
	var stream []byte
	for _, m := range want {
		var err error
		if stream, err = appendMsg(stream, &m); err != nil {
			t.Fatal(err)
		}
	}
	var got []Msg
	dec := newMsgReader(bytes.NewReader(stream))
	for {
		ms, err := dec.batch()
		got = append(got, ms...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched reads decoded %d messages, want %d; equal %v", len(got), len(want), reflect.DeepEqual(got, want))
	}
}
