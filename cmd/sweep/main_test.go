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

func TestSweepOverK(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "k", "-values", "2,4", "-n", "1024", "-trials", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepOverN(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "n", "-values", "512,1024", "-k", "3", "-trials", "2", "-u0", "64"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepBiasCSV(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "bias", "-values", "0,100", "-n", "1024", "-k", "2", "-trials", "2", "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepMult(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "mult", "-values", "2.0", "-n", "1024", "-k", "4", "-trials", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepMissingValues(t *testing.T) {
	err := silence(t, func() error { return run([]string{"-param", "k"}) })
	if err == nil || !strings.Contains(err.Error(), "-values") {
		t.Fatalf("err = %v", err)
	}
}

func TestSweepBadParam(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "zeta", "-values", "1"})
	})
	if err == nil || !strings.Contains(err.Error(), "unknown -param") {
		t.Fatalf("err = %v", err)
	}
}

func TestSweepBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-param", "n", "-values", "abc"},
		{"-param", "k", "-values", "x"},
		{"-param", "bias", "-values", "??"},
		{"-param", "mult", "-values", "zz"},
	} {
		err := silence(t, func() error { return run(args) })
		if err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestSweepRejectsNaNTolerance pins that a NaN, negative or above-0.25
// -tol fails at flag parsing instead of running at the default or a
// clamped tolerance.
func TestSweepRejectsNaNTolerance(t *testing.T) {
	for _, tol := range []string{"NaN", "-1", "0.3"} {
		err := silence(t, func() error {
			return run([]string{"-param", "n", "-values", "20000", "-k", "4", "-trials", "2", "-kernel", "auto", "-tol", tol, "-shards", "1"})
		})
		if err == nil || !strings.Contains(err.Error(), "tolerance") {
			t.Errorf("-tol %s: err = %v, want a tolerance error", tol, err)
		}
	}
}

func TestScaleU(t *testing.T) {
	if got := scaleU(0, 100, 200); got != 0 {
		t.Fatalf("scaleU(0) = %d", got)
	}
	if got := scaleU(50, 100, 200); got != 100 {
		t.Fatalf("scaleU = %d, want 100", got)
	}
	if got := scaleU(10, 0, 100); got != 10 {
		t.Fatalf("scaleU with nOld=0 = %d", got)
	}
}

func TestSweepEpsParam(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "eps", "-values", "0.1,0.5", "-n", "4096", "-trials", "2", "-kernel", "batched"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepNWithKeps(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "n", "-values", "1024,4096", "-keps", "0.5", "-trials", "2", "-kernel", "batched"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepKepsValidation(t *testing.T) {
	if err := silence(t, func() error {
		return run([]string{"-param", "k", "-values", "2", "-keps", "0.5"})
	}); err == nil || !strings.Contains(err.Error(), "-keps") {
		t.Fatalf("keps with param k accepted: %v", err)
	}
	if err := silence(t, func() error {
		return run([]string{"-param", "n", "-values", "1024", "-keps", "1.5"})
	}); err == nil || !strings.Contains(err.Error(), "-keps") {
		t.Fatalf("out-of-range keps accepted: %v", err)
	}
	if err := silence(t, func() error {
		return run([]string{"-param", "eps", "-values", "1.5", "-n", "1024"})
	}); err == nil {
		t.Fatal("out-of-range eps value accepted")
	}
}

func TestSweepAdaptive(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "k", "-values", "2,4", "-n", "1024",
			"-adaptive", "-rel", "0.2", "-maxtrials", "12", "-kernel", "batched"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepAdaptiveCSV(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "n", "-values", "512,1024", "-k", "2",
			"-adaptive", "-rel", "0.25", "-trials", "3", "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepAdaptiveValidation(t *testing.T) {
	if err := silence(t, func() error {
		return run([]string{"-param", "k", "-values", "2", "-adaptive", "-rel", "1.5"})
	}); err == nil || !strings.Contains(err.Error(), "-rel") {
		t.Fatalf("out-of-range -rel accepted: %v", err)
	}
	if err := silence(t, func() error {
		return run([]string{"-param", "k", "-values", "2", "-adaptive", "-maxtrials", "-3"})
	}); err == nil || !strings.Contains(err.Error(), "-maxtrials") {
		t.Fatalf("negative -maxtrials accepted: %v", err)
	}
}

func TestSweepParallelismFlag(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "k", "-values", "2,4", "-n", "1024", "-trials", "4", "-parallelism", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSweepTrialCountValidation pins that a non-positive trial budget fails
// at flag parsing, naming the flag, on both engines.
func TestSweepTrialCountValidation(t *testing.T) {
	base := []string{"-param", "k", "-values", "2", "-n", "512"}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-trials", "0"}, "-trials"},
		{[]string{"-trials", "-3"}, "-trials"},
		{[]string{"-trials", "0", "-shards", "2"}, "-trials"},
		{[]string{"-trials", "-3", "-shards", "2"}, "-trials"},
		{[]string{"-trials", "-3", "-adaptive", "-maxtrials", "5"}, "-trials"},
		{[]string{"-trials", "0", "-adaptive"}, "-maxtrials"},
		{[]string{"-trials", "0", "-adaptive", "-shards", "2"}, "-maxtrials"},
	} {
		err := silence(t, func() error { return run(append(append([]string(nil), base...), tc.args...)) })
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want a %s error", tc.args, err, tc.flag)
		}
	}
	if err := silence(t, func() error {
		return run(append(base, "-trials", "0", "-adaptive", "-maxtrials", "5"))
	}); err != nil {
		t.Fatalf("-trials 0 -adaptive -maxtrials 5: %v", err)
	}
}

// TestSweepHostsRequiresShards pins that -hosts needs an explicit -shards,
// with or without -checkpoint (which implies one shard), as in
// cmd/experiments.
func TestSweepHostsRequiresShards(t *testing.T) {
	base := []string{"-param", "k", "-values", "2", "-n", "512", "-hosts", "h"}
	for _, extra := range [][]string{nil, {"-checkpoint", filepath.Join(t.TempDir(), "ck")}} {
		args := append(append([]string(nil), base...), extra...)
		err := silence(t, func() error { return run(args) })
		if err == nil || !strings.Contains(err.Error(), "-hosts requires -shards") {
			t.Errorf("%v: err = %v, want -hosts requires -shards", args, err)
		}
	}
}

// TestSweepNegativeParallelismRejected pins that -parallelism < 0 fails at
// flag parsing, naming the flag, on both engines, instead of silently
// meaning GOMAXPROCS and being forwarded to the workers.
func TestSweepNegativeParallelismRejected(t *testing.T) {
	base := []string{"-param", "k", "-values", "2", "-n", "512", "-trials", "2", "-parallelism", "-3"}
	for _, extra := range [][]string{nil, {"-shards", "2"}} {
		args := append(append([]string(nil), base...), extra...)
		err := silence(t, func() error { return run(args) })
		if err == nil || !strings.Contains(err.Error(), "-parallelism -3 must be non-negative") {
			t.Errorf("%v: err = %v, want -parallelism -3 must be non-negative", args, err)
		}
	}
}

// TestSweepNegativeU0Rejected pins that -u0 < 0 fails at flag parsing on
// both engines and in -shard-worker mode, instead of scaleU rounding it to
// an unbiased u₀ = 0 start.
func TestSweepNegativeU0Rejected(t *testing.T) {
	base := []string{"-param", "n", "-values", "1000", "-k", "4", "-trials", "2", "-u0", "-5"}
	// A worker that got past flag parsing would serve stdin: give it an
	// empty one so a regression fails instead of hanging.
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	oldIn := os.Stdin
	os.Stdin = devnull
	defer func() { os.Stdin = oldIn }()
	for _, extra := range [][]string{nil, {"-shards", "2"}, {"-shard-worker", "0/1"}} {
		args := append(append([]string(nil), base...), extra...)
		err := silence(t, func() error { return run(args) })
		if err == nil || !strings.Contains(err.Error(), "-u0 -5 must be non-negative") {
			t.Errorf("%v: err = %v, want -u0 -5 must be non-negative", args, err)
		}
	}
}

// TestSweepNaNKepsRejected pins that -keps NaN fails at flag parsing
// instead of silently sweeping at the -k default.
func TestSweepNaNKepsRejected(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "n", "-values", "2000", "-keps", "NaN", "-trials", "2"})
	})
	if err == nil || !strings.Contains(err.Error(), "-keps NaN") {
		t.Fatalf("err = %v, want a -keps NaN error", err)
	}
}

// TestSweepNaNRelRejected pins that -rel NaN fails at flag parsing instead
// of an adaptive point whose CI never closes running its whole trial cap.
func TestSweepNaNRelRejected(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-param", "n", "-values", "2000", "-adaptive", "-rel", "NaN", "-trials", "3"})
	})
	if err == nil || !strings.Contains(err.Error(), "-rel NaN") {
		t.Fatalf("err = %v, want a -rel NaN error", err)
	}
}
