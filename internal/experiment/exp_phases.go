package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

// t1Phases regenerates the paper's §2.1 phase table: for every (n, k) cell
// it measures the empirical duration of each of the five phases on no-bias
// runs and normalizes it by the paper's bound, so a flat column across the
// sweep confirms the bound's shape.
func t1Phases() Experiment {
	return Experiment{
		ID:       "T1-phases",
		Title:    "Empirical phase durations vs paper bounds",
		Artifact: "§2.1 phase table (Lemmas 1, 8, 11, 15, 16)",
		Run: func(p Params, w io.Writer) error {
			ns := pick(p, []int64{1 << 12, 1 << 13}, []int64{1 << 12, 1 << 14, 1 << 16})
			ks := pick(p, []int{3, 8}, []int{3, 8, 16})
			trials := p.trials(8)
			tbl := NewTable(
				"Mean normalized phase durations (duration / bound term, no-bias start):",
				"n", "k",
				"ph1/(n ln n)", "ph2/(kn ln n)", "ph3/(kn ln n)", "ph4/(kn+n ln n)", "ph5/(n ln n)",
				"total par.time/(k ln n)")
			for _, n := range ns {
				for _, k := range ks {
					cfg, err := conf.Uniform(n, k, 0)
					if err != nil {
						return err
					}
					lnN := math.Log(float64(n))
					norm := make([][]float64, 5)
					var totals []float64
					Stream(trials, p.Parallelism, p.Seed+uint64(n)+uint64(k), func(i int, src *rng.Source, a *Arena) USDRun {
						r, err := RunTracked(a, cfg, src, core.NoBudget, 0, p.Kernel)
						if err != nil {
							return USDRun{}
						}
						return r
					}, func(_ int, r USDRun) {
						if r.Result.Outcome != core.OutcomeConsensus {
							return
						}
						bounds := []float64{
							float64(n) * lnN,
							float64(k) * float64(n) * lnN,
							float64(k) * float64(n) * lnN,
							float64(k)*float64(n) + float64(n)*lnN,
							float64(n) * lnN,
						}
						for ph := 1; ph <= 5; ph++ {
							if d, ok := r.Phases.Duration(ph); ok {
								norm[ph-1] = append(norm[ph-1], d.Float64()/bounds[ph-1])
							}
						}
						totals = append(totals, r.Result.ParallelTime/(float64(k)*lnN))
					})
					if len(totals) == 0 {
						return fmt.Errorf("no successful runs for n=%d k=%d", n, k)
					}
					row := []any{n, k}
					for ph := 0; ph < 5; ph++ {
						s, err := stats.Summarize(norm[ph])
						if err != nil {
							row = append(row, "-")
							continue
						}
						row = append(row, s.Mean)
					}
					st, err := stats.Summarize(totals)
					if err != nil {
						return err
					}
					row = append(row, st.Mean)
					tbl.AddRowf(row...)
				}
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w,
				"\nReading: each column should stay bounded (no upward drift in n)\n"+
					"if the corresponding phase bound from the paper has the right shape.\n")
			return err
		},
	}
}

// t6Phase1 verifies the three statements of Lemma 2: across Phase 1, an
// additive bias keeps at least 1/3 of its magnitude, a multiplicative bias
// (1+ε) degrades to no worse than 1+ε/(6+5ε), and the plurality keeps at
// least 1/3 of its support.
func t6Phase1() Experiment {
	return Experiment{
		ID:       "T6-phase1-preservation",
		Title:    "Bias preservation through Phase 1",
		Artifact: "Lemma 2 (statements 1-3)",
		Run: func(p Params, w io.Writer) error {
			n := pick(p, int64(1<<13), int64(1<<14))
			k := 8
			trials := p.trials(40)
			eps := 0.5
			thr := math.Sqrt(float64(n) * math.Log(float64(n)))
			addBias := int64(2 * thr)

			type obs struct {
				addRatio  float64 // (X1(T1)-X2(T1)) / initial bias
				multRatio float64 // X1(T1)/X2(T1)
				keepRatio float64 // X1(T1)/x1(0)
				ok        bool
			}
			endPhase1 := func(s *core.Simulator) bool {
				_, xmax := s.Max()
				return 2*s.Undecided() >= s.N()-xmax
			}

			addCfg, err := conf.WithAdditiveBias(n, k, addBias, 0)
			if err != nil {
				return err
			}
			multCfg, err := conf.WithMultiplicativeBias(n, k, 1+eps, 0)
			if err != nil {
				return err
			}

			measure := func(cfg *conf.Config, seedOff uint64) []obs {
				x10 := cfg.Support[0]
				bias0 := cfg.AdditiveBias()
				outs := make([]obs, trials)
				Stream(trials, p.Parallelism, p.Seed+seedOff, func(i int, src *rng.Source, a *Arena) obs {
					s, err := a.Simulator(cfg, src, core.WithKernel(p.Kernel))
					if err != nil {
						return obs{}
					}
					res := s.RunUntil(core.NoBudget, endPhase1)
					if res.Outcome == core.OutcomeAllUndecided {
						return obs{}
					}
					x1 := s.Support(0)
					var x2 int64
					for j := 1; j < k; j++ {
						if x := s.Support(j); x > x2 {
							x2 = x
						}
					}
					o := obs{keepRatio: float64(x1) / float64(x10), ok: true}
					if bias0 > 0 {
						o.addRatio = float64(x1-x2) / float64(bias0)
					}
					if x2 > 0 {
						o.multRatio = float64(x1) / float64(x2)
					}
					return o
				}, func(i int, o obs) { outs[i] = o })
				return outs
			}

			addObs := measure(addCfg, 1)
			multObs := measure(multCfg, 2)

			tbl := NewTable(
				fmt.Sprintf("Phase-1 preservation, n=%d k=%d, %d trials:", n, k, trials),
				"quantity", "config", "mean", "p10", "min", "Lemma 2 bound", "violations")
			report := func(name, config string, vals []float64, bound float64) error {
				s, err := stats.Summarize(vals)
				if err != nil {
					return err
				}
				viol := 0
				for _, v := range vals {
					if v < bound {
						viol++
					}
				}
				tbl.AddRowf(name, config, s.Mean, s.P10, s.Min, bound,
					fmt.Sprintf("%d/%d", viol, len(vals)))
				return nil
			}
			var addRatios, multRatios, keepA, keepM []float64
			for _, o := range addObs {
				if o.ok {
					addRatios = append(addRatios, o.addRatio)
					keepA = append(keepA, o.keepRatio)
				}
			}
			for _, o := range multObs {
				if o.ok {
					multRatios = append(multRatios, o.multRatio)
					keepM = append(keepM, o.keepRatio)
				}
			}
			if err := report("(X1-X2)(T1)/bias(0)", "additive 2√(n ln n)", addRatios, 1.0/3); err != nil {
				return err
			}
			if err := report("X1(T1)/X2(T1)", fmt.Sprintf("multiplicative %.1f", 1+eps), multRatios, 1+eps/(6+5*eps)); err != nil {
				return err
			}
			if err := report("X1(T1)/x1(0)", "additive 2√(n ln n)", keepA, 1.0/3); err != nil {
				return err
			}
			if err := report("X1(T1)/x1(0)", fmt.Sprintf("multiplicative %.1f", 1+eps), keepM, 1.0/3); err != nil {
				return err
			}
			return tbl.Fprint(w)
		},
	}
}
