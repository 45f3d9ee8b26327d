package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sweepMainMarker makes the test binary behave as the sweep CLI (runMain)
// when passed as the first argument, so exec-level tests can drive the real
// process — signals, exit codes, worker re-execution — without a separate
// build step.
const sweepMainMarker = "-run-sweep-main-for-test"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case sweepMainMarker:
			os.Exit(runMain(os.Args[2:]))
		case "-shard-worker":
			// Shard workers spawned by a marker-mode coordinator re-execute
			// this binary with -shard-worker as the leading flag.
			os.Exit(runMain(os.Args[1:]))
		}
	}
	os.Exit(m.Run())
}

// sweepProcess re-executes the test binary as the sweep CLI and returns its
// stdout, failing the test on a non-zero exit.
func sweepProcess(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{sweepMainMarker}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sweep %v: %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestSweepShardedInterruptResume drives the graceful-interrupt contract at
// the process level: SIGINT to a sharded, checkpointed sweep folds the wave
// in flight, writes the checkpoint, prints resume guidance, and exits with
// status 130 — and rerunning the same command finishes the sweep with
// output byte-identical to a never-interrupted in-process run.
func TestSweepShardedInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns multi-second worker processes; skipped in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	point := []string{"-param", "n", "-values", "30000", "-k", "2", "-trials", "192", "-seed", "7"}
	sharded := append(append([]string{}, point...), "-shards", "2", "-checkpoint", dir)

	cmd := exec.Command(os.Args[0], append([]string{sweepMainMarker}, sharded...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Signal as soon as the first wave has been folded and checkpointed, so
	// the interrupt lands mid-run with plenty of trials outstanding.
	var ckptPath string
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(m) == 1 {
			ckptPath = m[0]
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no checkpoint appeared in %s\nstderr: %s", dir, stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("interrupted sweep exited %v, want status 130\nstdout: %s\nstderr: %s",
			err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "resume with the same command") {
		t.Fatalf("interrupted sweep printed no resume guidance\nstderr: %s", stderr.String())
	}
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("interrupted sweep left no checkpoint: %v", err)
	}

	resumed := sweepProcess(t, sharded...)
	clean := sweepProcess(t, point...)
	if resumed != clean {
		t.Fatalf("resumed sharded output diverged from the clean in-process run\nresumed:\n%s\nclean:\n%s", resumed, clean)
	}
}
