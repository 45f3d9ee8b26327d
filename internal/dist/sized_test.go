package dist

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The sized-wave suite: runs at Options.Wave 0, where the coordinator sizes
// each wave from its fold-to-fold time, must fold byte-identically to the
// fixed-wave runs through requeues, redistribution, membership changes and
// kill/resume; and waves of expensive trials must never grow.

// TestWaveSize pins the sizing rule: the next wave aims at waveTarget from
// the last fold's rate, never below DefaultWave or above maxWave, and at
// most twice the current size.
func TestWaveSize(t *testing.T) {
	for _, tc := range []struct {
		name    string
		folded  int
		elapsed time.Duration
		current int
		want    int
	}{
		{"slow wave stays at the floor", 16, waveTarget, 16, DefaultWave},
		{"much slower wave stays at the floor", 16, time.Second, 16, DefaultWave},
		{"a grown wave that got slow shrinks to the floor", 512, 40 * waveTarget, 1024, DefaultWave},
		{"fast wave doubles", 16, 10 * time.Microsecond, 16, 32},
		{"zero elapsed doubles", 16, 0, 16, 32},
		{"rate sets the size below double", 100, 2 * waveTarget / 5, 128, 250},
		{"growth is capped at maxWave", 1024, time.Microsecond, 1024, maxWave},
		{"doubling is capped at maxWave", 700, time.Microsecond, 700, maxWave},
		{"a grown wave that slowed shrinks to the rate", 256, 2 * waveTarget, 256, 128},
	} {
		if got := waveSize(tc.folded, tc.elapsed, tc.current); got != tc.want {
			t.Errorf("%s: waveSize(%d, %v, %d) = %d, want %d", tc.name, tc.folded, tc.elapsed, tc.current, got, tc.want)
		}
	}
	for _, current := range []int{DefaultWave, 17, 100, 512, 1000, maxWave} {
		for _, folded := range []int{1, DefaultWave, 300, maxWave} {
			for _, elapsed := range []time.Duration{0, 1, time.Microsecond, 100 * time.Microsecond, waveTarget, time.Second} {
				got := waveSize(folded, elapsed, current)
				if got < DefaultWave || got > maxWave || got > 2*current {
					t.Errorf("waveSize(%d, %v, %d) = %d, want within [%d, min(2·%d, %d)]",
						folded, elapsed, current, got, DefaultWave, current, maxWave)
				}
				if elapsed*time.Duration(DefaultWave) >= waveTarget*time.Duration(folded) && got != DefaultWave {
					t.Errorf("waveSize(%d, %v, %d) = %d: a wave at or past waveTarget per %d trials must keep %d",
						folded, elapsed, current, got, DefaultWave, DefaultWave)
				}
			}
		}
	}
}

// growWaves steps waveClock by 1 µs per reading until the test ends, so
// every fold of a cost-sized run looks fast and each wave doubles up to
// maxWave however loaded the machine is.
func growWaves(t *testing.T) {
	t.Helper()
	base, ticks := time.Now(), time.Duration(0)
	waveClock = func() time.Time {
		ticks += time.Microsecond
		return base.Add(ticks)
	}
	t.Cleanup(func() { waveClock = time.Now })
}

// grownWaves returns the wave sizes a cost-sized run of max trials
// dispatches under growWaves: two waves of DefaultWave up front, then
// every fold doubles the next.
func grownWaves(max int) []int {
	var sizes []int
	size := DefaultWave
	for lo := 0; lo < max; {
		n := min(size, max-lo)
		sizes = append(sizes, n)
		lo += n
		if len(sizes) >= pipelineDepth {
			size = waveSize(sizes[len(sizes)-pipelineDepth], time.Microsecond, size)
		}
	}
	return sizes
}

// sizedTrials is the trial cap of the sized runs: under growWaves its
// waves reach maxWave (16, 16, 32, …, 1024, 952).
const sizedTrials = 3000

// sizedOpts are chaosOpts at Wave 0 over sizedTrials echo trials, and the
// fixed-wave reference fold of the same job.
func sizedOpts(t *testing.T, shards int, launcher Launcher) (Options, *foldState) {
	t.Helper()
	opts := chaosOpts(shards, launcher)
	opts.MaxTrials = sizedTrials
	ref := chaosReference(t, opts)
	opts.Wave = 0
	return opts, ref
}

// checkSized fails t unless a sized run folded every trial, in the waves
// growWaves yields, byte-identically to the fixed-wave reference.
func checkSized(t *testing.T, res Result, st, ref *foldState) {
	t.Helper()
	if want := len(grownWaves(sizedTrials)); res.Trials != sizedTrials || res.Waves != want {
		t.Fatalf("res = %+v, want %d trials in %d grown waves", res, sizedTrials, want)
	}
	if !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("sized fold diverged from the fixed-wave run")
	}
}

// TestGrownWavesReachMaxWave pins the schedule the other sized tests run
// over: it doubles from DefaultWave to maxWave.
func TestGrownWavesReachMaxWave(t *testing.T) {
	want := []int{16, 16, 32, 64, 128, 256, 512, 1024, 952}
	if got := grownWaves(sizedTrials); !reflect.DeepEqual(got, want) {
		t.Fatalf("grown waves %v, want %v", got, want)
	}
	growWaves(t)
	opts, ref := sizedOpts(t, 2, &PipeLauncher{Build: echoBuild})
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	checkSized(t, res, st, ref)
}

// TestSizedChaosEachFaultKindSelfHeals is TestChaosEachFaultKindSelfHeals
// over grown waves: each fault strikes shard 2 in a wave of 64 trials or
// more, so requeues and relaunches span grown waves.
func TestSizedChaosEachFaultKindSelfHeals(t *testing.T) {
	growWaves(t)
	for _, tc := range []struct {
		name  string
		fault Fault
	}{
		{"crash-before-wave", Fault{Shard: 2, Kind: FaultCrashBeforeWave, After: 4}},
		{"crash-mid-wave", Fault{Shard: 2, Kind: FaultCrashMidWave, After: 100}},
		{"hang", Fault{Shard: 2, Kind: FaultHang, After: 60}},
		{"garbage", Fault{Shard: 2, Kind: FaultGarbage, After: 80}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts, ref := sizedOpts(t, 4, &FaultLauncher{
				Inner:    &PipeLauncher{Build: echoBuild},
				Schedule: []Fault{tc.fault},
			})
			st := &foldState{}
			res, err := Run(opts, st.sink, nil, st)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if res.Relaunches == 0 || res.Requeued == 0 {
				t.Fatalf("res = %+v, want a relaunch and requeued trials", res)
			}
			checkSized(t, res, st, ref)
		})
	}
}

// TestSizedChaosExhaustedBudgetRedistributes is
// TestChaosExhaustedBudgetRedistributes over grown waves: shard 0's
// outstanding indices, spread over waves of different sizes, are dealt to
// the survivor.
func TestSizedChaosExhaustedBudgetRedistributes(t *testing.T) {
	growWaves(t)
	opts, ref := sizedOpts(t, 2, &FaultLauncher{
		Inner: &PipeLauncher{Build: echoBuild},
		Schedule: []Fault{
			{Shard: 0, Launch: 0, Kind: FaultCrashBeforeWave, After: 3},
			{Shard: 0, Launch: 1, Kind: FaultCrashMidWave, After: 40},
			{Shard: 0, Launch: 2, Kind: FaultGarbage, After: 20},
		},
	})
	opts.MaxRelaunches = 2
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Relaunches != 2 || res.Requeued == 0 {
		t.Fatalf("res = %+v, want exactly 2 relaunches and requeued trials", res)
	}
	checkSized(t, res, st, ref)
}

// TestSizedElasticKillResume is TestElasticKillResumeByteIdentical over
// grown waves: a run that admits a joiner which then leaves is cut off
// after six waves and resumed on three members; the resume sizes its
// waves afresh.
func TestSizedElasticKillResume(t *testing.T) {
	growWaves(t)
	opts, ref := sizedOpts(t, 2, &PipeLauncher{Build: echoBuild})
	cp := filepath.Join(t.TempDir(), "elastic.ckpt")

	join := make(chan Launcher, 1)
	join <- &leavingLauncher{inner: &PipeLauncher{Build: echoBuild}}
	first := opts
	first.Join = join
	first.CheckpointPath = cp
	first.MaxWaves = 6
	st := &foldState{}
	res, err := Run(first, st.sink, nil, st)
	if err != nil {
		t.Fatalf("first invocation: %v", err)
	}
	sizes := grownWaves(sizedTrials)
	folded := 0
	for _, n := range sizes[:6] {
		folded += n
	}
	if !res.Interrupted || res.Joined != 1 || res.Trials != folded {
		t.Fatalf("first invocation res = %+v, want %d trials folded in 6 grown waves, interrupted, the joiner admitted", res, folded)
	}

	resume := opts
	resume.Shards = 3
	resume.CheckpointPath = cp
	st2 := &foldState{}
	res2, err := Run(resume, st2.sink, nil, st2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res2.ResumedFrom != folded || res2.Trials != sizedTrials {
		t.Fatalf("resume res = %+v, want a resume from %d completing %d trials", res2, folded, sizedTrials)
	}
	if !reflect.DeepEqual(st2.Seq, ref.Seq) {
		t.Fatal("resumed sized fold diverged from the fixed-wave run")
	}
}

// TestSizedDispatchFailureFoldsDispatchedWaves is
// TestRunDispatchFailureFoldsDispatchedWaves over grown waves: with
// recovery disabled, a dispatch failure still folds every wave dispatched
// before it, whatever its size.
func TestSizedDispatchFailureFoldsDispatchedWaves(t *testing.T) {
	growWaves(t)
	spec := []byte(`{"job":"echo"}`)
	sizes := grownWaves(sizedTrials)
	for _, okWaves := range []int{3, 6} {
		st := &foldState{}
		res, err := Run(Options{
			Shards:        2,
			MaxTrials:     sizedTrials,
			Seed:          7,
			Spec:          spec,
			Launcher:      &failAfterWaves{inner: &PipeLauncher{Build: echoBuild}, waves: okWaves},
			MaxRelaunches: NoRelaunch,
			Log:           io.Discard,
		}, st.sink, nil, st)
		if err == nil || !strings.Contains(err.Error(), "injected dispatch failure") {
			t.Fatalf("okWaves=%d: expected injected failure, got %v", okWaves, err)
		}
		want := 0
		for _, n := range sizes[:okWaves] {
			want += n
		}
		if res.Trials != want || st.Count != want {
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

// TestSlowTrialsKeepDefaultWave runs trials of 5 ms at Wave 0 on the real
// clock: a wave of DefaultWave such trials takes far longer than
// waveTarget, so no wave may grow. Load only slows the folds further, so
// this direction cannot flake.
func TestSlowTrialsKeepDefaultWave(t *testing.T) {
	slow := func(spec []byte, seed uint64) (TrialRunner, error) {
		return func(indices []int, emit func(trial int, data []byte)) error {
			for _, i := range indices {
				time.Sleep(5 * time.Millisecond)
				emit(i, echoPayload(spec, seed, i))
			}
			return nil
		}, nil
	}
	const trials = 4 * DefaultWave
	cp := filepath.Join(t.TempDir(), "slow.ckpt")
	st := &foldState{}
	res, err := Run(Options{Shards: 2, MaxTrials: trials, Seed: 5, Spec: []byte(`{"job":"slow"}`),
		Launcher: &PipeLauncher{Build: slow}, CheckpointPath: cp}, st.sink, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != trials || res.Waves != trials/DefaultWave {
		t.Fatalf("res = %+v, want %d trials in %d waves of %d", res, trials, trials/DefaultWave, DefaultWave)
	}
	data, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if rec, err := parseCheckpoint(line); err != nil || rec.NextTrial != (i+1)*DefaultWave {
			t.Fatalf("record %d: resume point %d (err %v), want %d", i+1, rec.NextTrial, err, (i+1)*DefaultWave)
		}
	}
}

// TestSendIndicesGroupsByWaveInFlight pins the requeue grouping: indices
// owed across waves of different sizes go out as one wave command per wave
// in flight, each carrying that wave's range.
func TestSendIndicesGroupsByWaveInFlight(t *testing.T) {
	s := &shardSlot{sendq: make(chan Msg, sendQueueCap)}
	co := &coordinator{
		inflight: []waveRange{{100, 116}, {116, 148}, {148, 212}},
		res:      &Result{},
	}
	co.sendIndices(s, []int{101, 115, 148, 150, 211}, true)
	close(s.sendq)
	var got []Msg
	for m := range s.sendq {
		got = append(got, m)
	}
	want := []Msg{
		{Type: TypeWave, Lo: 100, Hi: 116, Indices: []int{101, 115}},
		{Type: TypeWave, Lo: 148, Hi: 212, Indices: []int{148, 150, 211}},
	}
	if !reflect.DeepEqual(got, want) || co.res.Requeued != 5 {
		t.Fatalf("sent %+v (requeued %d), want %+v (requeued 5)", got, co.res.Requeued, want)
	}
}
