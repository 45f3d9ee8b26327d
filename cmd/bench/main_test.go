package main

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiment"
)

// testFleet is a fleet small enough to run in-process many times over.
func testFleet(t *testing.T) *fleet {
	t.Helper()
	f, err := newFleet(200, 4, core.KernelAuto(0), 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if f.consensus != f.trials {
		t.Fatalf("reference fleet: %d/%d trials reached consensus", f.consensus, f.trials)
	}
	return f
}

func pipeLauncher() dist.Launcher {
	return &dist.PipeLauncher{Build: experiment.ShardBuilder(1)}
}

func TestArmFoldsReference(t *testing.T) {
	f := testFleet(t)
	for _, shards := range []int{1, 2} {
		_, res, err := f.arm(pipeLauncher(), shards)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if res.Trials != f.trials {
			t.Fatalf("%d shards folded %d/%d trials", shards, res.Trials, f.trials)
		}
	}
}

func TestArmRecoversFromCrash(t *testing.T) {
	f := testFleet(t)
	_, res, err := f.arm(&dist.FaultLauncher{
		Inner:    pipeLauncher(),
		Schedule: []dist.Fault{{Shard: 1, Kind: dist.FaultCrashMidWave, After: 1}},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relaunches < 1 {
		t.Fatalf("res = %+v, want at least one relaunch", res)
	}
}

func TestArmRejectsDivergentFold(t *testing.T) {
	f := testFleet(t)
	f.want = "tampered"
	if _, _, err := f.arm(pipeLauncher(), 1); err == nil {
		t.Fatal("arm accepted a fold that does not match the reference fingerprint")
	}
}

// TestInterleave pins the timing protocol behind every gate: one untimed
// warm-up call per arm, then rounds whose arm order flips each round, and
// ratios and walls read as medians over the rounds.
func TestInterleave(t *testing.T) {
	const warmup = time.Hour // a timed warm-up would swamp every median
	cases := []struct {
		name      string
		walls     [][]time.Duration // walls[arm][round]
		wantOrder []int
		wantWall  []time.Duration
		wantRatio []float64
	}{
		{
			name:      "one round",
			walls:     [][]time.Duration{{10}, {5}},
			wantOrder: []int{0, 1, 0, 1},
			wantWall:  []time.Duration{10, 5},
			wantRatio: []float64{1, 2},
		},
		{
			// Per-round ratios 1, 2, 10: the median is 2, the mean 4.33.
			name:      "odd rounds run in reverse",
			walls:     [][]time.Duration{{10, 10, 10}, {10, 5, 1}},
			wantOrder: []int{0, 1, 0, 1, 1, 0, 0, 1},
			wantWall:  []time.Duration{10, 5},
			wantRatio: []float64{1, 2},
		},
		{
			// Per-round ratios of arm 2: 1, 1, 4, 20 — median 2.5, mean 6.5.
			name:      "three arms, even rounds",
			walls:     [][]time.Duration{{4, 8, 8, 20}, {4, 4, 4, 4}, {4, 8, 2, 1}},
			wantOrder: []int{0, 1, 2, 0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0},
			wantWall:  []time.Duration{8, 4, 3},
			wantRatio: []float64{1, 2, 2.5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var order []int
			calls := make([]int, len(tc.walls))
			arms := make([]func() (time.Duration, error), len(tc.walls))
			for i := range arms {
				arms[i] = func() (time.Duration, error) {
					order = append(order, i)
					calls[i]++
					if calls[i] == 1 {
						return warmup, nil
					}
					return tc.walls[i][calls[i]-2], nil
				}
			}
			wall, ratio, err := interleave(len(tc.walls[0]), arms)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(order, tc.wantOrder) {
				t.Errorf("arm order %v, want %v", order, tc.wantOrder)
			}
			if !reflect.DeepEqual(wall, tc.wantWall) {
				t.Errorf("walls %v, want %v", wall, tc.wantWall)
			}
			if !reflect.DeepEqual(ratio, tc.wantRatio) {
				t.Errorf("ratios %v, want %v", ratio, tc.wantRatio)
			}
		})
	}
}

func TestInterleaveStopsOnArmError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	arms := []func() (time.Duration, error){
		func() (time.Duration, error) { return 1, nil },
		func() (time.Duration, error) {
			if calls++; calls == 2 {
				return 0, boom
			}
			return 1, nil
		},
	}
	if _, _, err := interleave(3, arms); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}
