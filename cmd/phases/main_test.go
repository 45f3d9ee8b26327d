package main

import (
	"os"
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

func TestPhasesSmallRun(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-n", "2048", "-k", "4", "-trials", "3", "-seed", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhasesWithUndecided(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-n", "1024", "-k", "3", "-trials", "2", "-u0", "128"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhasesInvalidConfig(t *testing.T) {
	err := silence(t, func() error {
		return run([]string{"-n", "8", "-k", "100"})
	})
	if err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestPhasesBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestPhasesRejectsNonPositiveTrials(t *testing.T) {
	for _, v := range []string{"0", "-2"} {
		err := run([]string{"-n", "64", "-k", "2", "-trials", v})
		if err == nil || !strings.Contains(err.Error(), "-trials") {
			t.Fatalf("-trials %s: err = %v, want an error naming -trials", v, err)
		}
	}
}
