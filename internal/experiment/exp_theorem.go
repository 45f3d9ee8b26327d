package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/u128"
)

// timeStats runs `trials` USD simulations from cfg and returns the summary
// of consensus interactions and the fraction won by opinion 0.
func timeStats(p Params, seed uint64, cfg *conf.Config, trials int, budget u128.U128) (stats.Summary, float64, int, error) {
	type outcome struct {
		t   float64
		won bool
		ok  bool
	}
	var times []float64
	wins, completed := 0, 0
	Stream(trials, p.Parallelism, seed, func(i int, src *rng.Source, a *Arena) outcome {
		t, winner, err := consensusTime(a, cfg, src, budget, p.Kernel)
		if err != nil {
			return outcome{}
		}
		return outcome{t: t.Float64(), won: winner == 0, ok: true}
	}, func(_ int, o outcome) {
		if !o.ok {
			return
		}
		completed++
		times = append(times, o.t)
		if o.won {
			wins++
		}
	})
	if completed == 0 {
		return stats.Summary{}, 0, 0, fmt.Errorf("experiment: no trial reached consensus")
	}
	s, err := stats.Summarize(times)
	if err != nil {
		return stats.Summary{}, 0, 0, err
	}
	return s, float64(wins) / float64(completed), completed, nil
}

// t2Multiplicative regenerates Theorem 2(1): with an initial multiplicative
// bias of 2, consensus on the plurality within O(n log n + n²/x₁(0))
// interactions.
func t2Multiplicative() Experiment {
	return Experiment{
		ID:       "T2-multiplicative",
		Title:    "Convergence under multiplicative bias",
		Artifact: "Theorem 2(1): O(n log n + n²/x1(0)) interactions",
		Run: func(p Params, w io.Writer) error {
			trials := p.trials(12)
			ratio := 2.0
			bound := func(n, x1 int64) float64 {
				return float64(n)*math.Log(float64(n)) + float64(n)*float64(n)/float64(x1)
			}
			tbl := NewTable(
				fmt.Sprintf("Multiplicative bias %.1f, %d trials per cell:", ratio, trials),
				"n", "k", "x1(0)", "mean T", "T/(n ln n + n²/x1)", "plurality wins")
			add := func(n int64, k int) error {
				cfg, err := conf.WithMultiplicativeBias(n, k, ratio, 0)
				if err != nil {
					return err
				}
				s, winRate, done, err := timeStats(p, p.Seed+uint64(n)*31+uint64(k), cfg, trials, core.NoBudget)
				if err != nil {
					return err
				}
				tbl.AddRowf(n, k, cfg.Support[0], s.Mean, s.Mean/bound(n, cfg.Support[0]),
					fmt.Sprintf("%.0f%% (%d runs)", 100*winRate, done))
				return nil
			}
			for _, n := range pick(p, []int64{1 << 12, 1 << 13}, []int64{1 << 12, 1 << 14, 1 << 16}) {
				if err := add(n, 8); err != nil {
					return err
				}
			}
			for _, k := range pick(p, []int{2, 16}, []int{2, 4, 16, 32}) {
				if err := add(pick(p, int64(1<<13), int64(1<<14)), k); err != nil {
					return err
				}
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "\nReading: the normalized column should stay bounded across n and k,\n"+
				"and the plurality should win every run.\n")
			return err
		},
	}
}

// t3Additive regenerates Theorem 2(2): with an initial additive bias of
// Ω(√(n log n)), plurality consensus within O(n² log n/x₁(0)) interactions.
func t3Additive() Experiment {
	return Experiment{
		ID:       "T3-additive",
		Title:    "Convergence under additive bias",
		Artifact: "Theorem 2(2): O(n² log n/x1(0)) = O(k n log n) interactions",
		Run: func(p Params, w io.Writer) error {
			trials := p.trials(12)
			biasMult := 4.0
			tbl := NewTable(
				fmt.Sprintf("Additive bias %.0f·√(n ln n), %d trials per cell:", biasMult, trials),
				"n", "k", "bias", "mean T", "T·x1(0)/(n² ln n)", "plurality wins")
			add := func(n int64, k int) error {
				bias := int64(biasMult * math.Sqrt(float64(n)*math.Log(float64(n))))
				cfg, err := conf.WithAdditiveBias(n, k, bias, 0)
				if err != nil {
					return err
				}
				s, winRate, done, err := timeStats(p, p.Seed+uint64(n)*37+uint64(k), cfg, trials, core.NoBudget)
				if err != nil {
					return err
				}
				bound := float64(n) * float64(n) * math.Log(float64(n)) / float64(cfg.Support[0])
				tbl.AddRowf(n, k, bias, s.Mean, s.Mean/bound,
					fmt.Sprintf("%.0f%% (%d runs)", 100*winRate, done))
				return nil
			}
			for _, n := range pick(p, []int64{1 << 12, 1 << 13}, []int64{1 << 12, 1 << 14, 1 << 16}) {
				if err := add(n, 8); err != nil {
					return err
				}
			}
			for _, k := range pick(p, []int{2, 16}, []int{2, 4, 16, 32}) {
				if err := add(pick(p, int64(1<<13), int64(1<<14)), k); err != nil {
					return err
				}
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "\nReading: with a Θ(√(n log n)) additive bias the plurality should win\n"+
				"(approximate majority), in time whose normalized column stays bounded.\n")
			return err
		},
	}
}

// t4NoBias regenerates Theorem 2's no-bias statement: from an exactly
// uniform configuration the process still reaches consensus within
// O(k n log n) interactions, on some significant opinion.
func t4NoBias() Experiment {
	return Experiment{
		ID:       "T4-nobias",
		Title:    "Convergence without initial bias",
		Artifact: "Theorem 2 (no-bias case): consensus within O(k n log n)",
		Run: func(p Params, w io.Writer) error {
			trials := p.trials(24)
			k := 8
			tbl := NewTable(
				fmt.Sprintf("Exactly uniform start, k=%d, %d trials per cell:", k, trials),
				"n", "consensus", "mean T", "T/(k n ln n)", "winner χ² (df=7)", "winner=leaderAtT2")
			for _, n := range pick(p, []int64{1 << 12, 1 << 13}, []int64{1 << 12, 1 << 14, 1 << 16}) {
				cfg, err := conf.Uniform(n, k, 0) // k | n for all grid points
				if err != nil {
					return err
				}
				winnerCounts := make([]int64, k)
				var times []float64
				agree := 0
				completed := 0
				Stream(trials, p.Parallelism, p.Seed+uint64(n)*41, func(i int, src *rng.Source, a *Arena) USDRun {
					r, err := RunTracked(a, cfg, src, core.NoBudget, 0, p.Kernel)
					if err != nil {
						return USDRun{}
					}
					return r
				}, func(_ int, r USDRun) {
					if r.Result.Winner < 0 {
						return
					}
					completed++
					winnerCounts[r.Result.Winner]++
					times = append(times, r.Result.Interactions.Float64())
					if r.Phases.LeaderAtT2 == r.Result.Winner {
						agree++
					}
				})
				if completed == 0 {
					return fmt.Errorf("no consensus for n=%d", n)
				}
				s, err := stats.Summarize(times)
				if err != nil {
					return err
				}
				chi2, _, err := stats.ChiSquareUniform(winnerCounts)
				if err != nil {
					return err
				}
				bound := float64(k) * float64(n) * math.Log(float64(n))
				tbl.AddRowf(n,
					fmt.Sprintf("%d/%d", completed, trials),
					s.Mean, s.Mean/bound, chi2,
					fmt.Sprintf("%d/%d", agree, completed))
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "\nReading: every run must converge; winners spread over opinions\n"+
				"(χ² not extreme vs 99.9%% critical value 24.3 for df=7); the unique\n"+
				"significant opinion at T2 should already be the eventual winner.\n")
			return err
		},
	}
}

// f5KScaling regenerates the headline O(k·n log n): at fixed n, the no-bias
// consensus time normalized by n·ln n should grow linearly in k.
func f5KScaling() Experiment {
	return Experiment{
		ID:       "F5-k-scaling",
		Title:    "Linear-in-k scaling of no-bias consensus time",
		Artifact: "Theorem 2: O(k·n log n) interactions",
		Run: func(p Params, w io.Writer) error {
			n := pick(p, int64(1<<13), int64(1<<15))
			trials := p.trials(12)
			ks := pick(p, []int{2, 4, 8, 16}, []int{2, 4, 8, 16, 32, 64})
			tbl := NewTable(
				fmt.Sprintf("No-bias consensus time at n=%d, %d trials per k:", n, trials),
				"k", "mean T", "T/(n ln n)", "T/(k n ln n)")
			var xs, ys []float64
			lnN := math.Log(float64(n))
			for _, k := range ks {
				cfg, err := conf.Uniform(n, k, 0)
				if err != nil {
					return err
				}
				s, _, _, err := timeStats(p, p.Seed+uint64(k)*43, cfg, trials, core.NoBudget)
				if err != nil {
					return err
				}
				normalized := s.Mean / (float64(n) * lnN)
				tbl.AddRowf(k, s.Mean, normalized, normalized/float64(k))
				xs = append(xs, float64(k))
				ys = append(ys, normalized)
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			slope, intercept, r2, err := stats.LinearFit(xs, ys)
			if err != nil {
				return err
			}
			a, b, pr2, err := stats.PowerFit(xs, ys)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w,
				"\nLinear fit: T/(n ln n) = %.3f·k + %.3f (R²=%.4f)\n"+
					"Power fit:  T/(n ln n) = %.3f·k^%.3f (R²=%.4f)\n"+
					"Reading: time grows with k and the exponent stays ≤ 1, consistent\n"+
					"with the O(k·n log n) upper bound. A measured exponent below 1 means\n"+
					"the bound is conservative in k at these scales — note the theorem's\n"+
					"own range k ≤ c·√n/log²n is tiny for laptop n, so large-k cells sit\n"+
					"outside it (see also the X2-large-k extension experiment).\n",
				slope, intercept, r2, a, b, pr2)
			return err
		},
	}
}
