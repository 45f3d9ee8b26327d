package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func silence(t *testing.T, fn func() error) error {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		_ = devnull.Close()
	}()
	return fn()
}

func TestList(t *testing.T) {
	if err := silence(t, func() error { return run([]string{"-list"}) }); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-run", "A3-self-interaction", "-quick", "-trials", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-run", "A2-agent-vs-aggregate, A3-self-interaction", "-quick", "-trials", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	err := silence(t, func() error { return run([]string{"-run", "nope"}) })
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestAdaptiveFlagValidation(t *testing.T) {
	if err := silence(t, func() error {
		return run([]string{"-run", "K3-many-opinions", "-rel", "2"})
	}); err == nil || !strings.Contains(err.Error(), "-rel") {
		t.Fatalf("out-of-range -rel accepted: %v", err)
	}
	if err := silence(t, func() error {
		return run([]string{"-run", "K3-many-opinions", "-maxtrials", "-1"})
	}); err == nil || !strings.Contains(err.Error(), "-maxtrials") {
		t.Fatalf("negative -maxtrials accepted: %v", err)
	}
	if err := silence(t, func() error {
		return run([]string{"-run", "K3-many-opinions", "-trials", "-4"})
	}); err == nil || !strings.Contains(err.Error(), "-trials") {
		t.Fatalf("negative -trials accepted: %v", err)
	}
}

// TestHostsRequiresShards pins that -hosts needs an explicit -shards, with
// or without -checkpoint (which implies one shard), as in cmd/sweep.
func TestHostsRequiresShards(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck")
	for _, args := range [][]string{
		{"-run", "T1-phases", "-hosts", "h"},
		{"-run", "T1-phases", "-hosts", "h", "-checkpoint", ckpt},
	} {
		err := silence(t, func() error { return run(args) })
		if err == nil || !strings.Contains(err.Error(), "-hosts requires -shards") {
			t.Errorf("%v: err = %v, want -hosts requires -shards", args, err)
		}
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("rejected command created the checkpoint directory (stat: %v)", err)
	}
}

// TestRunK4Adaptive exercises the lower-bound experiment end to end through
// the CLI, with the adaptive knobs it reads.
func TestRunK4Adaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("K4 quick cells are seconds-scale; skipped in -short mode")
	}
	err := silence(t, func() error {
		return run([]string{"-run", "K4-lower-bound", "-quick", "-maxtrials", "3", "-rel", "0.3"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNegativeParallelismRejected pins that -parallelism < 0 fails at flag
// parsing, naming the flag, instead of silently meaning GOMAXPROCS.
func TestNegativeParallelismRejected(t *testing.T) {
	for _, extra := range [][]string{nil, {"-shards", "2"}} {
		args := append([]string{"-run", "T1-phases", "-quick", "-parallelism", "-3"}, extra...)
		err := silence(t, func() error { return run(args) })
		if err == nil || !strings.Contains(err.Error(), "-parallelism -3 must be non-negative") {
			t.Errorf("%v: err = %v, want -parallelism -3 must be non-negative", args, err)
		}
	}
}

// TestNaNRelRejected pins that -rel NaN fails at flag parsing instead of
// silently running at the default ±5% target.
func TestNaNRelRejected(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-quick", "-run", "K3-many-opinions", "-adaptive", "-rel", "NaN"})
	})
	if err == nil || !strings.Contains(err.Error(), "-rel NaN") {
		t.Fatalf("err = %v, want a -rel NaN error", err)
	}
}

// TestBadToleranceRejected pins that a negative or above-0.25 -tol fails at
// flag parsing instead of running at the default or a clamped tolerance.
func TestBadToleranceRejected(t *testing.T) {
	for _, v := range []string{"-1", "0.3"} {
		err := silence(t, func() error {
			return run([]string{"-quick", "-run", "T1-phases", "-kernel", "auto", "-tol", v})
		})
		if err == nil || !strings.Contains(err.Error(), "tolerance") {
			t.Errorf("-tol %s: err = %v, want a tolerance error", v, err)
		}
	}
}
