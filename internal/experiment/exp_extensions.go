package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/stats"
)

// x1Synchronized reproduces the related-work claim that the synchronized
// two-phase USD variant converges polylogarithmically regardless of the
// initial bias, and contrasts it with the plain gossip USD on no-bias
// starts where no bound for k > 2 is known.
func x1Synchronized() Experiment {
	return Experiment{
		ID:       "X1-synchronized",
		Title:    "Synchronized two-phase USD vs plain gossip USD (extension)",
		Artifact: "§1.2 synchronized variant (Bankhamer et al.): polylog rounds without bias",
		Run: func(p Params, w io.Writer) error {
			n := pick(p, int64(1<<12), int64(1<<13))
			trials := p.trials(10)
			logN := math.Log(float64(n))
			tbl := NewTable(
				fmt.Sprintf("No-bias start, n=%d, %d trials per cell:", n, trials),
				"k", "engine", "mean rounds", "median", "rounds/ln²n")
			for _, k := range pick(p, []int{4, 16}, []int{4, 16, 64}) {
				cfg, err := conf.Uniform(n, k, 0)
				if err != nil {
					return err
				}
				syncRounds := make([]float64, trials)
				Stream(trials, p.Parallelism, p.Seed+uint64(k)*97,
					func(i int, src *rng.Source, _ *Arena) float64 {
						e, err := gossip.NewSyncEngine(cfg, src)
						if err != nil {
							return math.NaN()
						}
						res := e.Run(0)
						if !res.Consensus {
							return math.NaN()
						}
						return float64(res.Rounds)
					},
					func(i int, v float64) { syncRounds[i] = v })
				sSync, err := stats.Summarize(syncRounds)
				if err != nil {
					return err
				}
				tbl.AddRowf(k, "synchronized", sSync.Mean, sSync.Median, sSync.Mean/(logN*logN))
				plain, _, _, err := gossipRounds(p, p.Seed+uint64(k)*101, cfg,
					gossip.USD{Opinions: k}, trials, 2000*int64(k))
				if err != nil {
					tbl.AddRowf(k, "plain gossip USD", "budget", "-", "-")
					continue
				}
				tbl.AddRowf(k, "plain gossip USD", plain.Mean, plain.Median, plain.Mean/(logN*logN))
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "\nReading: the synchronized variant's rounds/ln²n column stays O(1)\n"+
				"and does not grow with k — the polylog convergence that the phase-\n"+
				"clock machinery buys. Plain gossip USD pays a factor ≈ k.\n")
			return err
		},
	}
}

// x2LargeK probes the regime k = ω(√n/log²n) that the paper leaves open:
// measure no-bias consensus time as k grows far beyond the theorem's range.
func x2LargeK() Experiment {
	return Experiment{
		ID:       "X2-large-k",
		Title:    "Beyond the theorem: consensus time for very large k (extension)",
		Artifact: "§8 future work: k = ω(√n/log²n)",
		Run: func(p Params, w io.Writer) error {
			n := pick(p, int64(1<<12), int64(1<<13))
			trials := p.trials(8)
			kMax := pick(p, int64(1<<9), int64(1<<11))
			thmRange := math.Sqrt(float64(n)) / math.Pow(math.Log(float64(n)), 2)
			tbl := NewTable(
				fmt.Sprintf("No-bias start, n=%d, %d trials per k (theorem range: k ≤ c·%.1f):",
					n, trials, thmRange),
				"k", "in range", "mean T", "T/(n ln n)", "T/(k n ln n)")
			var xs, ys []float64
			lnN := math.Log(float64(n))
			for k := int64(2); k <= kMax; k *= 4 {
				cfg, err := conf.Uniform(n, int(k), 0)
				if err != nil {
					return err
				}
				s, _, _, err := timeStats(p, p.Seed+uint64(k)*103, cfg, trials, core.NoBudget)
				if err != nil {
					return err
				}
				inRange := "no"
				if float64(k) <= 4*thmRange { // generous constant c = 4
					inRange = "yes"
				}
				norm := s.Mean / (float64(n) * lnN)
				tbl.AddRowf(k, inRange, s.Mean, norm, norm/float64(k))
				xs = append(xs, float64(k))
				ys = append(ys, norm)
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			a, b, r2, err := stats.PowerFit(xs, ys)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w,
				"\nPower fit: T/(n ln n) = %.3f·k^%.3f (R²=%.4f)\n"+
					"Reading: the paper leaves k = ω(√n/log²n) open; empirically the\n"+
					"no-bias consensus time keeps growing only sublinearly in k far\n"+
					"beyond the proven range, suggesting the O(k n log n) bound remains\n"+
					"conservative there (a data point for the open problem, not a proof).\n",
				a, b, r2)
			return err
		},
	}
}
