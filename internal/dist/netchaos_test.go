package dist

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// The network-chaos suite: the FaultLauncher's network-shaped faults —
// partitions, frames lost in transit, slow links, reconnect storms —
// against the real coordinator event loop, each required to end in a fold
// byte-identical to a fault-free run (or, for the slow link, to end without
// any recovery at all). The CI fault-injection job runs this file, with the
// rest of the package, under -race.

// TestNetChaosPartitionSelfHeals partitions one shard mid-wave: both
// directions go silent without an error, so only the liveness deadline can
// diagnose it. The coordinator must declare the worker hung, relaunch it,
// and still fold byte-identically.
func TestNetChaosPartitionSelfHeals(t *testing.T) {
	opts := chaosOpts(3, &FaultLauncher{
		Inner:    &PipeLauncher{Build: echoBuild},
		Schedule: []Fault{{Shard: 1, Kind: FaultPartition, After: 3}},
	})
	ref := chaosReference(t, opts)
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("partitioned run: %v", err)
	}
	if res.Relaunches == 0 {
		t.Fatalf("res = %+v, want the partition diagnosed and the worker relaunched", res)
	}
	if res.Trials != opts.MaxTrials || !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("partitioned fold diverged from fault-free run")
	}
}

// TestNetChaosDroppedFrameCaughtByBarrier drops one result frame in transit
// while the rest of the stream — including the wavedone barrier — flows
// normally. Without the barrier's echoed-index integrity check the run
// would hang until the liveness deadline at best; with it the coordinator
// detects the loss at the barrier, recovers the worker, and folds
// byte-identically.
func TestNetChaosDroppedFrameCaughtByBarrier(t *testing.T) {
	opts := chaosOpts(2, &FaultLauncher{
		Inner:    &PipeLauncher{Build: echoBuild},
		Schedule: []Fault{{Shard: 0, Kind: FaultDropFrames, After: 2}},
	})
	// A generous deadline proves the barrier check, not the liveness
	// timeout, is what catches the loss.
	opts.WorkerTimeout = time.Minute
	ref := chaosReference(t, opts)
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("lossy run: %v", err)
	}
	if res.Relaunches == 0 || res.Requeued == 0 {
		t.Fatalf("res = %+v, want the dropped frame detected and requeued", res)
	}
	if res.Trials != opts.MaxTrials || !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("lossy fold diverged from fault-free run")
	}
}

// TestNetChaosDroppedFrameNoRelaunchAborts is the barrier check's fail-fast
// companion: with recovery disabled the lost frame aborts the run with a
// diagnosis naming the trial, instead of waiting forever on a result that
// can never arrive.
func TestNetChaosDroppedFrameNoRelaunchAborts(t *testing.T) {
	opts := chaosOpts(2, &FaultLauncher{
		Inner:    &PipeLauncher{Build: echoBuild},
		Schedule: []Fault{{Shard: 0, Kind: FaultDropFrames, After: 1}},
	})
	opts.WorkerTimeout = time.Minute
	opts.MaxRelaunches = NoRelaunch
	begin := time.Now()
	_, err := Run(opts, (&foldState{}).sink, nil, &foldState{})
	if err == nil || !strings.Contains(err.Error(), "lost in transit") {
		t.Fatalf("expected a lost-frame diagnosis, got %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 10*time.Second {
		t.Fatalf("loss detection took %v, want prompt detection at the wave barrier", elapsed)
	}
}

// TestNetChaosSlowLinkTolerated degrades one shard's link with a per-line
// delay below the liveness deadline. A correct coordinator must NOT react:
// the run completes with zero relaunches and zero requeues, byte-identical
// to a fast-link run — slow is not dead.
func TestNetChaosSlowLinkTolerated(t *testing.T) {
	opts := chaosOpts(2, &FaultLauncher{
		Inner:    &PipeLauncher{Build: echoBuild},
		Schedule: []Fault{{Shard: 1, Kind: FaultSlowLink, After: 0, Delay: 2 * time.Millisecond}},
	})
	opts.MaxTrials = 24
	ref := chaosReference(t, opts)
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("slow-link run: %v", err)
	}
	if res.Relaunches != 0 || res.Requeued != 0 {
		t.Fatalf("res = %+v: the coordinator treated a slow link as a failure", res)
	}
	if res.Trials != opts.MaxTrials || !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("slow-link fold diverged from fault-free run")
	}
}

// TestNetChaosReconnectStorm kills a shard's first three incarnations the
// instant they connect; the fourth connects cleanly. The run must climb the
// backoff ladder and self-heal within the default relaunch budget.
func TestNetChaosReconnectStorm(t *testing.T) {
	opts := chaosOpts(2, &FaultLauncher{
		Inner:    &PipeLauncher{Build: echoBuild},
		Schedule: ReconnectStorm(0, 3),
	})
	ref := chaosReference(t, opts)
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("storm run: %v", err)
	}
	if res.Relaunches != 3 {
		t.Fatalf("res = %+v, want exactly 3 relaunches (one per storm death)", res)
	}
	if res.Trials != opts.MaxTrials || !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("storm fold diverged from fault-free run")
	}
}

// TestNetChaosScheduleDeterministicAndComplete pins both chaos-plan
// generators' seed determinism (the satellite contract: same seed → same
// fault plan) and the network schedule's shape: every shard faulted once,
// all four network kinds present, slow links carrying a positive Delay.
func TestNetChaosScheduleDeterministicAndComplete(t *testing.T) {
	for seed := uint64(1); seed < 16; seed++ {
		if !reflect.DeepEqual(ChaosSchedule(seed, 4), ChaosSchedule(seed, 4)) {
			t.Fatalf("seed %d: ChaosSchedule is not deterministic", seed)
		}
		if !reflect.DeepEqual(NetworkChaosSchedule(seed, 4), NetworkChaosSchedule(seed, 4)) {
			t.Fatalf("seed %d: NetworkChaosSchedule is not deterministic", seed)
		}
	}
	if reflect.DeepEqual(NetworkChaosSchedule(1, 4), NetworkChaosSchedule(2, 4)) {
		t.Fatal("different seeds produced the same network fault plan")
	}
	plan := NetworkChaosSchedule(5, 4)
	if len(plan) != 4 {
		t.Fatalf("plan has %d faults, want 4", len(plan))
	}
	seenShard := map[int]bool{}
	seenKind := map[FaultKind]bool{}
	for _, f := range plan {
		seenShard[f.Shard] = true
		seenKind[f.Kind] = true
		if f.Launch != 0 {
			t.Fatalf("fault %+v targets a relaunch, want first incarnations only", f)
		}
		if f.Kind == FaultSlowLink && f.Delay <= 0 {
			t.Fatalf("slow-link fault %+v has no delay", f)
		}
	}
	if len(seenShard) != 4 || len(seenKind) != 4 {
		t.Fatalf("plan %+v does not fault each shard once with all network kinds", plan)
	}
}

// TestNetChaosScheduleSelfHeals runs the full network chaos plan — one
// network fault per shard — and requires self-healing with a byte-identical
// fold. Slow-link shards must heal by tolerance, the rest by recovery.
func TestNetChaosScheduleSelfHeals(t *testing.T) {
	opts := chaosOpts(4, &FaultLauncher{
		Inner:    &PipeLauncher{Build: echoBuild},
		Schedule: NetworkChaosSchedule(5, 4),
	})
	ref := chaosReference(t, opts)
	st := &foldState{}
	res, err := Run(opts, st.sink, nil, st)
	if err != nil {
		t.Fatalf("network chaos run: %v", err)
	}
	if res.Relaunches == 0 {
		t.Fatalf("res = %+v, want recoveries from the non-tolerable faults", res)
	}
	if res.Trials != opts.MaxTrials || !reflect.DeepEqual(st.Seq, ref.Seq) {
		t.Fatal("network chaos fold diverged from fault-free run")
	}
}

// TestFaultKindStrings keeps the chaos diagnostics readable: every kind
// names itself.
func TestFaultKindStrings(t *testing.T) {
	want := map[FaultKind]string{
		FaultCrashBeforeWave: "crash-before-wave",
		FaultCrashMidWave:    "crash-mid-wave",
		FaultHang:            "hang",
		FaultGarbage:         "garbage-frame",
		FaultPartition:       "partition",
		FaultDropFrames:      "drop-frames",
		FaultSlowLink:        "slow-link",
		FaultCrashOnConnect:  "crash-on-connect",
	}
	for k, name := range want {
		if k.String() != name {
			t.Fatalf("FaultKind(%d).String() = %q, want %q", int(k), k.String(), name)
		}
	}
	if FaultKind(99).String() != "fault-kind-99" {
		t.Fatalf("unknown kind string = %q", FaultKind(99).String())
	}
}
