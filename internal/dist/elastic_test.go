package dist

import (
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// The elastic-membership suite: workers joining late, leaving mid-run, and
// getting partitioned, with the fold required to stay byte-identical to the
// undisturbed fixed-membership run — the ISSUE 10 acceptance bar. The CI
// fault-injection job runs this file, with the rest of the package, under
// -race.

// leavingLauncher models a member that leaves the fleet for good: its first
// Launch yields a worker that crashes mid-wave, and every relaunch attempt
// fails outright, so the coordinator burns the member's relaunch budget and
// redistributes its outstanding work — exactly the lost-shard path.
type leavingLauncher struct {
	inner Launcher

	mu       sync.Mutex
	launched bool
}

// Launch implements Launcher.
func (l *leavingLauncher) Launch(shard, shards int) (*Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.launched {
		return nil, errors.New("member left the fleet")
	}
	l.launched = true
	c, err := l.inner.Launch(shard, shards)
	if err != nil {
		return c, err
	}
	return injectFault(c, Fault{Kind: FaultCrashMidWave, After: 2}), nil
}

// TestElasticDispatchByteIdentical pins the base property: explicit-index
// dispatch folds byte-identically to the single-member run at every member
// count, with nothing counted as a requeue.
func TestElasticDispatchByteIdentical(t *testing.T) {
	opts := chaosOpts(1, &PipeLauncher{Build: echoBuild})
	ref := chaosReference(t, opts)
	for _, members := range []int{1, 2, 4} {
		e := chaosOpts(members, &PipeLauncher{Build: echoBuild})
		st := &foldState{}
		res, err := Run(e, st.sink, nil, st)
		if err != nil {
			t.Fatalf("members=%d: %v", members, err)
		}
		if res.Requeued != 0 || res.Relaunches != 0 || res.Joined != 0 {
			t.Fatalf("members=%d: res = %+v, want a clean elastic run", members, res)
		}
		if res.Trials != e.MaxTrials || !reflect.DeepEqual(st.Seq, ref.Seq) {
			t.Fatalf("members=%d: elastic fold diverged from fixed run", members)
		}
	}
}

// TestElasticJoinLeavePartitionByteIdentical is the acceptance scenario at
// the dist layer: a fleet of two members gains two late joiners (admitted
// mid-run through Options.Join), one joiner leaves for good mid-run, and
// one of the original members is partitioned mid-wave. The run must
// self-heal and fold byte-identically to the undisturbed single-member run.
func TestElasticJoinLeavePartitionByteIdentical(t *testing.T) {
	join := make(chan Launcher, 2)
	join <- &PipeLauncher{Build: echoBuild}                          // joins late, stays
	join <- &leavingLauncher{inner: &PipeLauncher{Build: echoBuild}} // joins late, leaves mid-run
	opts := chaosOpts(2, &FaultLauncher{
		Inner:    &PipeLauncher{Build: echoBuild},
		Schedule: []Fault{{Shard: 1, Kind: FaultPartition, After: 3}}, // original member, partitioned mid-wave
	})
	opts.MaxTrials = 64
	ref := chaosReference(t, opts) // before Join is attached, so the reference cannot drain it
	opts.Join = join

	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("elastic fleet run: %v", err)
	}
	if res.Joined != 2 {
		t.Fatalf("res = %+v, want both joiners admitted", res)
	}
	if res.Relaunches == 0 || res.Requeued == 0 {
		t.Fatalf("res = %+v, want the partition and the departure recovered", res)
	}
	if res.Trials != opts.MaxTrials {
		t.Fatalf("folded %d trials, want %d", res.Trials, opts.MaxTrials)
	}
	if !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("elastic fleet fold diverged from the undisturbed run")
	}
}

// TestElasticKillResumeByteIdentical is the kill/resume variant: an elastic
// run with a late joiner and a mid-run departure is cut off after a few
// waves (MaxWaves + checkpoint — the graceful form of a kill), then resumed
// under a completely different membership. The resumed fold must be
// byte-identical to an undisturbed uninterrupted run.
func TestElasticKillResumeByteIdentical(t *testing.T) {
	opts := chaosOpts(2, &PipeLauncher{Build: echoBuild})
	opts.MaxTrials = 64
	ref := chaosReference(t, opts)
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
	if !res.Interrupted || res.Joined != 1 {
		t.Fatalf("first invocation res = %+v, want an interrupted run that admitted the joiner", res)
	}

	resume := opts
	resume.Shards = 3
	resume.CheckpointPath = cp
	st2 := &foldState{}
	res2, err := Run(resume, st2.sink, nil, st2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res2.ResumedFrom == 0 || res2.Trials != opts.MaxTrials {
		t.Fatalf("resume res = %+v, want a resume completing %d trials", res2, opts.MaxTrials)
	}
	if !reflect.DeepEqual(st2.Seq, ref.Seq) {
		t.Fatal("resumed elastic fold diverged from the undisturbed run")
	}
}

// TestElasticJoinAfterStart admits a joiner only once the run is already in
// flight — the launcher is offered (from the fold sink, a point where the
// run is provably mid-flight) only after the eighth trial has folded — so
// the coordinator must pick it up from the Join case of its event loop, not
// just at startup.
func TestElasticJoinAfterStart(t *testing.T) {
	join := make(chan Launcher, 1)
	opts := chaosOpts(1, &PipeLauncher{Build: echoBuild})
	opts.MaxTrials = 64
	ref := chaosReference(t, opts) // before Join is attached, so the reference cannot drain it
	opts.Join = join
	st := &foldState{}
	sent := false
	sink := func(i int, data []byte) error {
		if i == 8 && !sent {
			sent = true
			join <- &PipeLauncher{Build: echoBuild}
		}
		return st.sink(i, data)
	}
	res, err := Run(opts, sink, nil, st)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Joined != 1 {
		t.Fatalf("res = %+v, want the mid-run joiner admitted", res)
	}
	if res.Trials != opts.MaxTrials || !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("join-after-start fold diverged")
	}
}
