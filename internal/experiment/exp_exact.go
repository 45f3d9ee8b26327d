package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/rng"
	"repro/internal/stats"
)

// x3Exact validates the simulator against the exactly-solved USD Markov
// chain on small instances: expected consensus time and per-opinion win
// probabilities from the absorbing-chain linear systems vs simulated
// estimates with confidence intervals.
func x3Exact() Experiment {
	return Experiment{
		ID:       "X3-exact-validation",
		Title:    "Simulator vs exactly solved Markov chain (extension)",
		Artifact: "ground-truth validation of the Observation 6 chain",
		Run: func(p Params, w io.Writer) error {
			trials := p.trials(20000)
			instances := []struct {
				support []int64
				u       int64
			}{
				{[]int64{8, 8}, 4},
				{[]int64{12, 6}, 2},
				{[]int64{10, 6, 4}, 4},
				{[]int64{7, 7, 7}, 3},
			}
			tbl := NewTable(
				fmt.Sprintf("Exact chain vs %d simulated trials per instance:", trials),
				"instance", "exact E[T]", "sim E[T] (±95%)", "exact P[win 0]", "sim P[win 0] (±95%)")
			for idx, inst := range instances {
				cfg, err := conf.FromSupport(inst.support, inst.u)
				if err != nil {
					return err
				}
				chain, err := exact.New(cfg.N(), cfg.K())
				if err != nil {
					return err
				}
				wantT, err := chain.ExpectedTimeFrom(cfg)
				if err != nil {
					return err
				}
				wantW, err := chain.WinProbabilityFrom(cfg, 0)
				if err != nil {
					return err
				}
				type obs struct {
					t   float64
					won bool
				}
				var times []float64
				wins := 0
				Stream(trials, p.Parallelism, p.Seed+uint64(idx)*107,
					func(i int, src *rng.Source, a *Arena) obs {
						t, winner, err := consensusTime(a, cfg, src, core.NoBudget, p.Kernel)
						if err != nil {
							return obs{t: math.NaN()}
						}
						return obs{t: t.Float64(), won: winner == 0}
					},
					func(_ int, o obs) {
						if math.IsNaN(o.t) {
							return
						}
						times = append(times, o.t)
						if o.won {
							wins++
						}
					})
				mean, half, err := stats.MeanCI(times, 1.96)
				if err != nil {
					return err
				}
				lo, hi, err := stats.WilsonInterval(wins, len(times), 1.96)
				if err != nil {
					return err
				}
				tbl.AddRowf(cfg.String(), wantT,
					fmt.Sprintf("%.2f ± %.2f", mean, half),
					fmt.Sprintf("%.4f", wantW),
					fmt.Sprintf("[%.4f, %.4f]", lo, hi))
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "\nReading: every exact value must fall inside (or within a hair of)\n"+
				"the simulated confidence interval — the simulator implements exactly\n"+
				"the Observation 6 chain that the solver enumerates.\n")
			return err
		},
	}
}
