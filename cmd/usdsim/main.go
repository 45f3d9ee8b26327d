// Command usdsim runs a single simulation of the k-opinion undecided state
// dynamics and reports the outcome, the empirical phase structure, and
// (optionally) an ASCII trajectory of the undecided count and the leading
// opinion.
//
// Usage:
//
//	usdsim -n 100000 -k 10 -bias 2000 -seed 42 -plot
//	usdsim -n 1000000000 -k 32 -kernel batched
//	usdsim -n 100000 -k 2 -variant stubborn:1000,0
//	usdsim -n 100000 -k 3 -u0 40000 -variant unconstrained
//
// Exactly one of -bias (additive), -mult (multiplicative ratio), or -zipf
// (power-law exponent) may be given; the default is the unbiased uniform
// configuration. -kernel batched selects the bulk stepping kernel, which
// makes billion-agent runs tractable within its drift-tolerance accuracy
// contract (-tol, default 0.05). -variant selects the dynamics variant:
// classic k-USD (default), stubborn:b0,b1,... (per-opinion stubborn
// agents; runs end in dominance rather than consensus), or unconstrained
// (latent-opinion USD; exact kernel only).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	usd "repro"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "usdsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("usdsim", flag.ContinueOnError)
	var (
		n       = fs.Int64("n", 1<<14, "population size")
		k       = fs.Int("k", 8, "number of opinions")
		u0      = fs.Int64("u0", 0, "initially undecided agents")
		bias    = fs.Int64("bias", 0, "additive bias of Opinion 0 over the rest")
		mult    = fs.Float64("mult", 0, "multiplicative bias of Opinion 0 (ratio > 1)")
		zipf    = fs.Float64("zipf", 0, "Zipf exponent for power-law supports")
		seed    = fs.Uint64("seed", 1, "random seed")
		budget  = fs.Float64("budget", 0, "interaction budget, accepts 1e20-style values (0 = run to consensus)")
		plot    = fs.Bool("plot", false, "render an ASCII trajectory")
		kernel  = fs.String("kernel", "exact", "stepping kernel: exact, batched, or auto")
		tol     = fs.Float64("tol", 0, "batched/auto-kernel drift tolerance in [0, 0.25] (0 = default 0.05)")
		varSpec = fs.String("variant", "", "dynamics variant spec: classic, stubborn:b0,b1,..., or unconstrained (empty = classic)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// buildConfig treats a non-positive bias as "not given", so a negative
	// one would silently run the unbiased uniform start.
	if *bias < 0 {
		return fmt.Errorf("-bias %d must be non-negative", *bias)
	}
	if !(*mult >= 0) {
		return fmt.Errorf("-mult %v must be a non-negative number", *mult)
	}
	if !(*zipf >= 0) {
		return fmt.Errorf("-zipf %v must be a non-negative number", *zipf)
	}
	// ClockOfFloat would map a negative budget to NoBudget and NaN to an
	// unlimited one, both silently running to consensus.
	if !(*budget >= 0) {
		return fmt.Errorf("-budget %v must be a non-negative number", *budget)
	}
	kern, err := core.ParseKernel(*kernel, *tol)
	if err != nil {
		return err
	}
	variant, err := usd.ParseVariantSpec(*varSpec)
	if err != nil {
		return err
	}
	cfg, err := buildConfig(*n, *k, *u0, *bias, *mult, *zipf)
	if err != nil {
		return err
	}
	// Prepare rejects a bad (variant, kernel, configuration) triple, such
	// as an exact-only variant under -kernel auto, before any run.
	cfg, dyn, err := variant.Prepare(cfg, kern)
	if err != nil {
		return err
	}
	fmt.Printf("initial configuration: %v\n", cfg)
	if !variant.Classic() {
		fmt.Printf("dynamics variant: %v\n", variant)
	}
	bound, err := usd.TheoremBound(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("theorem 2 bound (up to constants): %.3g interactions\n\n", bound)

	b := usd.ClockOfFloat(*budget)
	if *plot {
		return runPlotted(cfg, dyn, *seed, b, kern)
	}

	report, err := usd.RunVariant(cfg, variant, *seed, b, kern)
	if err != nil {
		return err
	}
	printReport(cfg, report, bound)
	return nil
}

func buildConfig(n int64, k int, u0, bias int64, mult, zipf float64) (*usd.Config, error) {
	set := 0
	if bias > 0 {
		set++
	}
	if mult > 0 {
		set++
	}
	if zipf > 0 {
		set++
	}
	if set > 1 {
		return nil, errors.New("at most one of -bias, -mult, -zipf may be given")
	}
	switch {
	case bias > 0:
		return usd.WithAdditiveBias(n, k, bias, u0)
	case mult > 0:
		return usd.WithMultiplicativeBias(n, k, mult, u0)
	case zipf > 0:
		return usd.Zipf(n, k, zipf, u0)
	default:
		return usd.Uniform(n, k, u0)
	}
}

func printReport(cfg *usd.Config, report usd.Report, bound float64) {
	res := report.Result
	fmt.Printf("outcome:       %v\n", res.Outcome)
	if res.Outcome == usd.OutcomeConsensus || res.Outcome == usd.OutcomeDominance {
		fmt.Printf("winner:        opinion %d (initial support %d, initial leader: %d)\n",
			res.Winner, cfg.Support[res.Winner], report.InitialLeader)
	}
	fmt.Printf("interactions:  %v (%.3g per agent)\n", res.Interactions, res.ParallelTime)
	fmt.Printf("vs bound:      %.2fx\n\n", res.Interactions.Float64()/bound)
	fmt.Println("phase structure (paper §2.1):")
	names := []string{
		"1: rise of the undecided      (u >= (n-xmax)/2)",
		"2: additive bias generated    (unique significant opinion)",
		"3: multiplicative bias        (xmax >= 2*second)",
		"4: absolute majority          (xmax >= 2n/3)",
		"5: consensus                  (xmax = n)",
	}
	for p := 1; p <= 5; p++ {
		if report.Phases.Reached(p) {
			d, _ := report.Phases.Duration(p)
			fmt.Printf("  phase %-55s end=%-12v duration=%v\n",
				names[p-1], report.Phases.End[p-1], d)
		} else {
			fmt.Printf("  phase %-55s not reached\n", names[p-1])
		}
	}
}

func runPlotted(cfg *usd.Config, dyn usd.Dynamics, seed uint64, budget usd.Clock, kern core.Kernel) error {
	s, err := core.New(cfg, rng.New(seed), core.WithKernel(kern), core.WithDynamics(dyn))
	if err != nil {
		return err
	}
	every := cfg.N() / 2
	if every < 1 {
		every = 1
	}
	recU := trace.NewRecorder("u(t)", every)
	recMax := trace.NewRecorder("xmax(t)", every)
	recSecond := trace.NewRecorder("x2nd(t)", every)
	res := s.RunObserved(budget, func(sim *core.Simulator, ev core.Event) {
		var first, second int64
		for i := 0; i < sim.K(); i++ {
			x := sim.Support(i)
			if x > first {
				first, second = x, first
			} else if x > second {
				second = x
			}
		}
		recU.Observe(ev.Interactions, float64(sim.Undecided()))
		recMax.Observe(ev.Interactions, float64(first))
		recSecond.Observe(ev.Interactions, float64(second))
	})
	uStar := usd.EquilibriumUndecided(cfg.N(), cfg.K())
	ref := &trace.Series{Name: fmt.Sprintf("u* = %.0f", uStar)}
	for _, x := range recU.Series.X {
		ref.Add(x, uStar)
	}
	plot, err := trace.RenderASCII(96, 24,
		trace.Downsample(recU.Series, 96),
		trace.Downsample(recMax.Series, 96),
		trace.Downsample(recSecond.Series, 96),
		trace.Downsample(ref, 96))
	if err != nil {
		return err
	}
	fmt.Println(plot)
	fmt.Printf("outcome: %v after %v interactions (%.3g per agent)\n",
		res.Outcome, res.Interactions, res.ParallelTime)
	if res.Outcome == usd.OutcomeConsensus {
		fmt.Printf("winner: opinion %d\n", res.Winner)
	}
	return nil
}
