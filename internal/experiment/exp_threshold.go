package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/conf"
	"repro/internal/stats"
)

// f3Threshold regenerates the approximate-majority threshold curve: the
// probability that the initial plurality wins as a function of the additive
// bias, which transitions from chance to certainty around Θ(√(n log n)).
func f3Threshold() Experiment {
	return Experiment{
		ID:       "F3-majority-threshold",
		Title:    "Plurality success probability vs additive bias",
		Artifact: "Theorem 2(2) + Lemma 2 (Ω(√(n log n)) threshold)",
		Run: func(p Params, w io.Writer) error {
			trials := p.trials(60)
			ns := pick(p, []int64{1 << 12}, []int64{1 << 12, 1 << 14})
			ks := pick(p, []int{2}, []int{2, 8})
			type point struct {
				label string
				beta  func(n int64) float64
			}
			points := []point{
				{"0", func(n int64) float64 { return 0 }},
				{"√n/2", func(n int64) float64 { return math.Sqrt(float64(n)) / 2 }},
				{"√n", func(n int64) float64 { return math.Sqrt(float64(n)) }},
				{"2√n", func(n int64) float64 { return 2 * math.Sqrt(float64(n)) }},
				{"√(n ln n)", func(n int64) float64 { return math.Sqrt(float64(n) * math.Log(float64(n))) }},
				{"2√(n ln n)", func(n int64) float64 { return 2 * math.Sqrt(float64(n)*math.Log(float64(n))) }},
				{"4√(n ln n)", func(n int64) float64 { return 4 * math.Sqrt(float64(n)*math.Log(float64(n))) }},
			}
			tbl := NewTable(
				fmt.Sprintf("Initial-plurality win rate, %d trials per cell (Wilson 95%% CI):", trials),
				"n", "k", "bias", "β", "win rate", "95% CI")
			for _, n := range ns {
				for _, k := range ks {
					for _, pt := range points {
						beta := int64(pt.beta(n))
						cfg, err := conf.WithAdditiveBias(n, k, beta, 0)
						if err != nil {
							return err
						}
						_, winRate, done, err := timeStats(p,
							p.Seed+uint64(n)*53+uint64(k)*59+uint64(beta), cfg, trials)
						if err != nil {
							return err
						}
						wins := int(winRate*float64(done) + 0.5)
						lo, hi, err := stats.WilsonInterval(wins, done, 1.96)
						if err != nil {
							return err
						}
						tbl.AddRowf(n, k, pt.label, beta,
							fmt.Sprintf("%.2f", winRate),
							fmt.Sprintf("[%.2f, %.2f]", lo, hi))
					}
				}
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "\nReading: near-chance (≈1/k for k opinions, 1/2 for k=2) at β=0,\n"+
				"rising through the Θ(√(n log n)) regime to ≈1 at 4√(n ln n) —\n"+
				"the approximate-majority threshold of Theorem 2(2).\n")
			return err
		},
	}
}
