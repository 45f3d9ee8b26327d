package experiment

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/pop"
	"repro/internal/rng"
	"repro/internal/stats"
)

// a1Skip is the geometric-skipping ablation: both kernels must produce the
// same consensus-time distribution, and skipping must be faster in wall
// clock (increasingly so as the endgame dominates).
func a1Skip() Experiment {
	return Experiment{
		ID:       "A1-skip",
		Title:    "Geometric skipping vs per-interaction kernel",
		Artifact: "docs/EXPERIMENTS.md ablation (simulator design)",
		Run: func(p Params, w io.Writer) error {
			n := pick(p, int64(1<<12), int64(1<<13))
			trials := p.trials(20)
			// Two workloads: a no-bias full run, where a constant fraction
			// of interactions is productive and skipping can only break
			// even; and an endgame-dominated run from a 2n/3 majority,
			// where the productive fraction vanishes and skipping wins.
			noBias, err := conf.Uniform(n, 8, 0)
			if err != nil {
				return err
			}
			// The endgame workload is Θ(n log n) interactions but only
			// Θ(n) productive events, so the skip advantage grows with n;
			// use a larger population to make it visible above fixed
			// per-run overheads.
			nEnd := 8 * n
			endgame, err := conf.FromSupport([]int64{2 * (nEnd / 3), nEnd - 2*(nEnd/3)}, 0)
			if err != nil {
				return err
			}
			measure := func(cfg *conf.Config, skip bool, seed uint64) (stats.Summary, time.Duration, error) {
				start := time.Now()
				times := make([]float64, trials)
				Stream(trials, 1 /* serialize for fair timing */, seed,
					func(i int, src *rng.Source, _ *Arena) float64 {
						s, err := core.New(cfg, src, core.WithSkipping(skip))
						if err != nil {
							return math.NaN()
						}
						res := s.Run(core.NoBudget)
						return res.Interactions.Float64()
					},
					func(i int, v float64) { times[i] = v })
				elapsed := time.Since(start)
				s, err := stats.Summarize(times)
				return s, elapsed, err
			}
			tbl := NewTable(
				fmt.Sprintf("n=%d, %d trials per cell:", n, trials),
				"workload", "kernel", "mean T", "std", "wall clock", "agreement", "speedup")
			for _, wl := range []struct {
				name string
				cfg  *conf.Config
				off  uint64
			}{
				{fmt.Sprintf("no-bias k=8 n=%d", n), noBias, 81},
				{fmt.Sprintf("endgame x1=2n/3 k=2 n=%d", nEnd), endgame, 91},
			} {
				sSkip, dSkip, err := measure(wl.cfg, true, p.Seed+wl.off)
				if err != nil {
					return err
				}
				sExact, dExact, err := measure(wl.cfg, false, p.Seed+wl.off+1)
				if err != nil {
					return err
				}
				se := math.Sqrt(sSkip.Std*sSkip.Std/float64(trials) + sExact.Std*sExact.Std/float64(trials))
				z := math.Abs(sSkip.Mean-sExact.Mean) / se
				tbl.AddRowf(wl.name, "skipping", sSkip.Mean, sSkip.Std,
					dSkip.Round(time.Millisecond).String(),
					fmt.Sprintf("Δ=%.2f se", z),
					fmt.Sprintf("%.1fx", float64(dExact)/float64(dSkip)))
				tbl.AddRowf("", "per-interaction", sExact.Mean, sExact.Std,
					dExact.Round(time.Millisecond).String(), "", "")
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "\nReading: both kernels sample the same law (mean differences within\n"+
				"a few standard errors). Skipping pays off exactly where unproductive\n"+
				"interactions dominate — the Phase 5 endgame — and breaks even on\n"+
				"workloads whose productive fraction is Θ(1).\n")
			return err
		},
	}
}

// a2Engine cross-validates the aggregate configuration-level simulator
// against the agent-level ground-truth engine.
func a2Engine() Experiment {
	return Experiment{
		ID:       "A2-agent-vs-aggregate",
		Title:    "Aggregate kernel vs agent-level engine",
		Artifact: "docs/EXPERIMENTS.md ablation (simulator correctness)",
		Run: func(p Params, w io.Writer) error {
			n := pick(p, int64(1<<10), int64(1<<11))
			k := 4
			trials := p.trials(30)
			cfg, err := conf.WithMultiplicativeBias(n, k, 1.5, 0)
			if err != nil {
				return err
			}
			agg := make([]float64, trials)
			spec := NewShardSpec(cfg, core.Variant{}, p.Kernel, core.NoBudget, 0, false)
			if _, err := p.Cell(spec, trials, p.Seed+83, func(i int, r ShardResult) {
				agg[i] = math.NaN()
				if r.Consensus() {
					agg[i] = r.Interactions().Float64()
				}
			}, nil, ""); err != nil {
				return err
			}
			agent := make([]float64, trials)
			Stream(trials, p.Parallelism, p.Seed+84, func(i int, src *rng.Source, _ *Arena) float64 {
				e, err := pop.NewEngine(cfg, pop.USD{Opinions: k}, pop.UniformScheduler{Src: src})
				if err != nil {
					return math.NaN()
				}
				res := e.Run(0)
				if !res.Consensus {
					return math.NaN()
				}
				return float64(res.Interactions)
			}, func(i int, v float64) { agent[i] = v })
			sAgg, err := stats.Summarize(agg)
			if err != nil {
				return err
			}
			sAgent, err := stats.Summarize(agent)
			if err != nil {
				return err
			}
			tbl := NewTable(
				fmt.Sprintf("Multiplicative bias 1.5, n=%d k=%d, %d trials per engine:", n, k, trials),
				"engine", "mean T", "std", "median")
			tbl.AddRowf("aggregate (internal/core)", sAgg.Mean, sAgg.Std, sAgg.Median)
			tbl.AddRowf("agent-level (internal/pop)", sAgent.Mean, sAgent.Std, sAgent.Median)
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			se := math.Sqrt(sAgg.Std*sAgg.Std/float64(trials) + sAgent.Std*sAgent.Std/float64(trials))
			_, err = fmt.Fprintf(w, "\nMean difference: %.1f (%.2f standard errors — same process expected)\n",
				sAgg.Mean-sAgent.Mean, math.Abs(sAgg.Mean-sAgent.Mean)/se)
			return err
		},
	}
}

// a3SelfInteraction quantifies the effect of the scheduling convention: the
// paper allows self-interactions; forbidding them perturbs each transition
// probability by O(1/n) and must not change the asymptotics.
func a3SelfInteraction() Experiment {
	return Experiment{
		ID:       "A3-self-interaction",
		Title:    "Scheduler with vs without self-interactions",
		Artifact: "docs/EXPERIMENTS.md ablation (model convention)",
		Run: func(p Params, w io.Writer) error {
			n := pick(p, int64(1<<10), int64(1<<11))
			k := 4
			trials := p.trials(30)
			cfg, err := conf.WithMultiplicativeBias(n, k, 1.5, 0)
			if err != nil {
				return err
			}
			run := func(noSelf bool, seed uint64) []float64 {
				times := make([]float64, trials)
				Stream(trials, p.Parallelism, seed, func(i int, src *rng.Source, _ *Arena) float64 {
					var sched pop.Scheduler
					if noSelf {
						sched = pop.NoSelfScheduler{Src: src}
					} else {
						sched = pop.UniformScheduler{Src: src}
					}
					e, err := pop.NewEngine(cfg, pop.USD{Opinions: k}, sched)
					if err != nil {
						return math.NaN()
					}
					res := e.Run(0)
					if !res.Consensus {
						return math.NaN()
					}
					return float64(res.Interactions)
				}, func(i int, v float64) { times[i] = v })
				return times
			}
			sWith, err := stats.Summarize(run(false, p.Seed+85))
			if err != nil {
				return err
			}
			sWithout, err := stats.Summarize(run(true, p.Seed+86))
			if err != nil {
				return err
			}
			tbl := NewTable(
				fmt.Sprintf("Multiplicative bias 1.5, n=%d k=%d, %d trials per scheduler:", n, k, trials),
				"scheduler", "mean T", "std", "median")
			tbl.AddRowf("with self-interactions (paper)", sWith.Mean, sWith.Std, sWith.Median)
			tbl.AddRowf("without self-interactions", sWithout.Mean, sWithout.Std, sWithout.Median)
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "\nRelative mean difference: %.2f%% (an O(1/n) scheduling perturbation)\n",
				100*(sWithout.Mean-sWith.Mean)/sWith.Mean)
			return err
		},
	}
}
