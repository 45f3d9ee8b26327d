// Command phases measures the empirical duration of the paper's five
// analysis phases for one (n, k) cell across repeated no-bias runs, and
// compares each against its §2.1 bound.
//
// Usage:
//
//	phases -n 65536 -k 16 -trials 20
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/phase"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "phases:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("phases", flag.ContinueOnError)
	var (
		n      = fs.Int64("n", 1<<14, "population size")
		k      = fs.Int("k", 8, "number of opinions")
		u0     = fs.Int64("u0", 0, "initially undecided agents")
		trials = fs.Int("trials", 10, "number of independent runs")
		seed   = fs.Uint64("seed", 1, "base random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d must be positive", *trials)
	}
	cfg, err := conf.Uniform(*n, *k, *u0)
	if err != nil {
		return err
	}

	durations := make([][]float64, phase.Count)
	winners := make([]int64, *k)
	var failed error
	spec := experiment.NewShardSpec(cfg, core.Variant{}, core.KernelExact, core.NoBudget, 0, true)
	if _, err := experiment.RunCell(spec, 0, experiment.ShardRunOptions{MaxTrials: *trials, Seed: *seed},
		func(i int, r experiment.ShardResult) {
			if !r.Consensus() {
				failed = fmt.Errorf("trial %d did not reach consensus: %v", i, r.Outcome)
				return
			}
			winners[r.Winner]++
			phases := r.Phases()
			for p := 1; p <= phase.Count; p++ {
				if d, ok := phases.Duration(p); ok {
					durations[p-1] = append(durations[p-1], d.Float64())
				}
			}
		}, func() bool { return failed != nil }); err != nil {
		return err
	}
	if failed != nil {
		return failed
	}

	lnN := math.Log(float64(*n))
	bounds := []struct {
		name  string
		value float64
	}{
		{"n ln n", float64(*n) * lnN},
		{"k n ln n", float64(*k) * float64(*n) * lnN},
		{"k n ln n", float64(*k) * float64(*n) * lnN},
		{"k n + n ln n", float64(*k)*float64(*n) + float64(*n)*lnN},
		{"n ln n", float64(*n) * lnN},
	}
	fmt.Printf("phase durations over %d no-bias runs, n=%d k=%d:\n\n", *trials, *n, *k)
	fmt.Printf("%-7s %-12s %-12s %-12s %-14s %s\n",
		"phase", "mean", "median", "p90", "bound term", "mean/bound")
	for p := 1; p <= phase.Count; p++ {
		s, err := stats.Summarize(durations[p-1])
		if err != nil {
			fmt.Printf("%-7d (never completed)\n", p)
			continue
		}
		fmt.Printf("%-7d %-12.4g %-12.4g %-12.4g %-14s %.4f\n",
			p, s.Mean, s.Median, s.P90, bounds[p-1].name, s.Mean/bounds[p-1].value)
	}
	fmt.Printf("\nwinner distribution over opinions: %v\n", winners)
	return nil
}
