package main

import (
	"os"
	"strings"
	"testing"
)

// silence redirects stdout to /dev/null for the duration of fn, keeping
// test output readable.
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

func TestRunSmallSimulation(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-n", "2048", "-k", "4", "-bias", "200", "-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPlot(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-n", "1024", "-k", "3", "-seed", "5", "-plot"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithBudget(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-n", "4096", "-k", "8", "-budget", "100"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiplicativeAndZipf(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "2048", "-k", "4", "-mult", "2.0"},
		{"-n", "2048", "-k", "4", "-zipf", "1.0"},
		{"-n", "2048", "-k", "4", "-u0", "256"},
	} {
		if err := silence(t, func() error { return run(args) }); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
	}
}

func TestConflictingBiasFlagsRejected(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-bias", "10", "-mult", "2.0"})
	})
	if err == nil || !strings.Contains(err.Error(), "at most one") {
		t.Fatalf("conflicting flags: err = %v", err)
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-n", "10", "-k", "100"})
	})
	if err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestBuildConfigDirect(t *testing.T) {
	cfg, err := buildConfig(100, 4, 10, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N() != 100 || cfg.Undecided != 10 {
		t.Fatalf("config %v", cfg)
	}
	if _, err := buildConfig(100, 4, 0, 5, 2.0, 1.0); err == nil {
		t.Fatal("three bias flags accepted")
	}
}

// TestNegativeBiasFlagsRejected pins that a negative (or NaN) -bias, -mult
// or -zipf fails at flag parsing, naming the flag, instead of silently
// running the unbiased uniform start.
func TestNegativeBiasFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-bias", "-3"},
		{"-mult", "-2"},
		{"-zipf", "-1"},
		{"-mult", "NaN"},
	} {
		err := silence(t, func() error { return run(append([]string{"-n", "1000"}, args...)) })
		if err == nil || !strings.Contains(err.Error(), args[0]+" "+args[1]) {
			t.Errorf("%v: err = %v, want a %s error", args, err, args[0])
		}
	}
}

// TestBadBudgetRejected pins that a negative or NaN -budget fails at flag
// parsing, naming the flag, instead of silently running to consensus.
func TestBadBudgetRejected(t *testing.T) {
	for _, v := range []string{"-5", "NaN"} {
		err := silence(t, func() error { return run([]string{"-n", "2000", "-k", "4", "-budget", v}) })
		if err == nil || !strings.Contains(err.Error(), "-budget "+v) {
			t.Errorf("-budget %s: err = %v, want a -budget error", v, err)
		}
	}
}

// TestBadToleranceRejected pins that a negative or above-0.25 -tol fails at
// flag parsing instead of running at the default or a clamped tolerance.
func TestBadToleranceRejected(t *testing.T) {
	for _, v := range []string{"-1", "0.3", "NaN"} {
		err := silence(t, func() error { return run([]string{"-n", "2000", "-k", "4", "-kernel", "auto", "-tol", v}) })
		if err == nil || !strings.Contains(err.Error(), "tolerance") {
			t.Errorf("-tol %s: err = %v, want a tolerance error", v, err)
		}
	}
}
