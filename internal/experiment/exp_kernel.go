package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/stats"
)

// k1KernelAgreement validates the windowed kernels' accuracy contracts
// against the exact kernel: over paired trials from the same initial
// configuration, the winner frequencies, the consensus-time distribution
// (two-sample KS test), and the per-phase median end times must agree
// within the stated tolerances, for both KernelBatched and KernelAuto
// (which shares the window law but switches sampling strategies per
// window). This is the empirical license for using the windowed kernels in
// every large-n experiment and fleet workload.
func k1KernelAgreement() Experiment {
	return Experiment{
		ID:       "K1-kernel-agreement",
		Title:    "Exact vs batched/auto kernel distributional agreement",
		Artifact: "windowed-kernel accuracy contract (tau-leaping tolerance)",
		Run: func(p Params, w io.Writer) error {
			// Byte-identity preface: replay the embedded pre-refactor golden
			// corpus through the pluggable-dynamics engine. The classic
			// variant must reproduce every recorded outcome, winner, 128-bit
			// clock, and phase end time exactly — this is a stronger (and
			// cheaper) statement than the distributional gates below, and it
			// runs first so an engine regression fails loudly.
			golden, err := GoldenClassicRuns()
			if err != nil {
				return err
			}
			for _, g := range golden {
				mismatch, err := ReplayGoldenRun(g)
				if err != nil {
					return err
				}
				if mismatch != "" {
					return fmt.Errorf("golden classic run (config=%s kernel=%s seed=%d tracked=%v) diverged: %s",
						g.Config, g.Kernel, g.Seed, g.Tracked, mismatch)
				}
			}
			if _, err := fmt.Fprintf(w, "golden corpus: %d pre-refactor classic runs replayed byte-identically\n\n", len(golden)); err != nil {
				return err
			}

			n := pick(p, int64(1<<13), int64(1<<14))
			k := 8
			trials := p.trials(200) // quick mode halves this; still >= 100 paired
			thr := math.Sqrt(float64(n) * math.Log(float64(n)))
			configs := []struct {
				name string
				mk   func() (*conf.Config, error)
			}{
				{"uniform", func() (*conf.Config, error) { return conf.Uniform(n, k, 0) }},
				{"additive-2thr", func() (*conf.Config, error) { return conf.WithAdditiveBias(n, k, 2*int64(thr), 0) }},
			}

			const (
				ksAlpha     = 0.01 // two-sample KS significance for consensus times
				winTol      = 0.12 // max |leader-win-rate| gap (≈4σ at 200 trials)
				medianTol   = 0.25 // max relative gap of per-phase median end times
				minPerPhase = 20   // phases reached less often are not compared
			)

			kernels := []core.Kernel{core.KernelBatched(0), core.KernelAuto(0)}
			tbl := NewTable(
				fmt.Sprintf("Kernel agreement, n=%d k=%d, %d paired trials per config (tol %g):",
					n, k, trials, core.DefaultTolerance),
				"config", "kernel", "metric", "exact", "windowed", "gap", "tolerance", "verdict")
			allPass := true
			verdict := func(pass bool) string {
				if pass {
					return "agree"
				}
				allPass = false
				return "DISAGREE"
			}

			type gathered struct {
				times  []float64
				wins   int
				oks    int
				phases [][]float64
			}
			gather := func(cfg *conf.Config, kern core.Kernel, seedOff uint64) (gathered, error) {
				g := gathered{phases: make([][]float64, 5)}
				spec := NewShardSpec(cfg, core.Variant{}, kern, core.NoBudget, 0, true)
				_, err := p.Cell(spec, trials, p.Seed+seedOff, func(_ int, r ShardResult) {
					if !r.Consensus() {
						return
					}
					g.oks++
					g.times = append(g.times, r.Interactions().Float64())
					if r.Winner == r.InitialLeader {
						g.wins++
					}
					phases := r.Phases()
					for ph := 1; ph <= 5; ph++ {
						if phases.Reached(ph) {
							g.phases[ph-1] = append(g.phases[ph-1], phases.End[ph-1].Float64())
						}
					}
				}, nil, "")
				return g, err
			}

			for ci, c := range configs {
				cfg, err := c.mk()
				if err != nil {
					return err
				}
				// All arms share the same derived seed per trial index
				// (common random numbers), so the comparisons are genuinely
				// paired; the kernels then consume the stream differently.
				ge, err := gather(cfg, core.KernelExact, uint64(ci)*1000+1)
				if err != nil {
					return err
				}
				if ge.oks == 0 {
					return fmt.Errorf("no successful exact runs for config %s", c.name)
				}
				for _, kern := range kernels {
					gw, err := gather(cfg, kern, uint64(ci)*1000+1)
					if err != nil {
						return err
					}
					if gw.oks == 0 {
						return fmt.Errorf("no successful %v runs for config %s", kern, c.name)
					}
					kname := kern.Name()

					// Leader win frequency.
					we := float64(ge.wins) / float64(ge.oks)
					wb := float64(gw.wins) / float64(gw.oks)
					tbl.AddRowf(c.name, kname, "leader win rate", we, wb, math.Abs(we-wb), winTol,
						verdict(math.Abs(we-wb) <= winTol))

					// Consensus-time distribution: two-sample KS.
					d, err := stats.KSTwoSample(ge.times, gw.times)
					if err != nil {
						return err
					}
					crit := stats.KSCriticalValue(len(ge.times), len(gw.times), ksAlpha)
					tbl.AddRowf(c.name, kname, "consensus time KS", "-", "-", d, crit, verdict(d <= crit))

					// Per-phase median end times.
					for ph := 1; ph <= 5; ph++ {
						if len(ge.phases[ph-1]) < minPerPhase || len(gw.phases[ph-1]) < minPerPhase {
							continue
						}
						me, err := stats.Quantile(ge.phases[ph-1], 0.5)
						if err != nil {
							return err
						}
						mb, err := stats.Quantile(gw.phases[ph-1], 0.5)
						if err != nil {
							return err
						}
						gap := 0.0
						if me > 0 {
							gap = math.Abs(mb-me) / me
						}
						tbl.AddRowf(c.name, kname, fmt.Sprintf("phase %d median end", ph), me, mb, gap, medianTol,
							verdict(gap <= medianTol))
					}
				}
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			summary := "PASS: every windowed kernel matches the exact kernel within tolerance on every metric."
			if !allPass {
				summary = "FAIL: at least one metric disagrees; inspect the table."
			}
			_, err = fmt.Fprintf(w, "\n%s\n", summary)
			return err
		},
	}
}

// k2NScaling exercises the batched kernel in the regime the exact kernel
// cannot reach in reasonable wall-clock time: uniform no-bias starts with
// k = 32 at n up to 10⁹ agents. It reports consensus interactions against
// the Theorem 2 shape n²·ln n/x₁ (= k·n·ln n for the uniform start, which
// dominates the n·ln n + n²/x₁ multiplicative-regime bound once a leader
// emerges) and fits interactions ~ a·n^b, whose exponent should be ~1
// (quasi-linear scaling, the paper's headline result).
func k2NScaling() Experiment {
	return Experiment{
		ID:       "K2-n-scaling",
		Title:    "Batched-kernel consensus scaling up to n = 1e9",
		Artifact: "Theorem 2 shape at population scales beyond the exact kernel",
		Run: func(p Params, w io.Writer) error {
			ns := pick(p,
				[]int64{100_000, 1_000_000, 10_000_000},
				[]int64{1_000_000, 10_000_000, 100_000_000, 1_000_000_000})
			k := 32
			trials := p.trials(5)
			// The 10¹⁰ smoke point exercises the 128-bit interaction clock
			// past the old ⌊√MaxInt64⌋ ceiling (n² ≈ 10²⁰ > MaxInt64) under
			// the auto kernel; a single trial at smaller k keeps the
			// full-mode wall-clock in check while still crossing the
			// boundary every 64-bit clock would overflow at.
			type cell struct {
				n      int64
				k      int
				trials int
				kern   core.Kernel
				fit    bool
			}
			cells := make([]cell, 0, len(ns)+1)
			for _, n := range ns {
				cells = append(cells, cell{n: n, k: k, trials: trials, kern: core.KernelBatched(0), fit: true})
			}
			if !p.Quick {
				cells = append(cells, cell{n: 10_000_000_000, k: 2, trials: 1, kern: core.KernelAuto(0)})
			}
			tbl := NewTable(
				fmt.Sprintf("Batched kernel (tol %g), uniform start, k=%d, %d trials per n:",
					core.DefaultTolerance, k, trials),
				"n", "k", "kernel", "mean T", "std", "par. time", "T/(k n ln n)", "leader wins")
			var xs, ys []float64
			for _, c := range cells {
				n := c.n
				cfg, err := conf.Uniform(n, c.k, 0)
				if err != nil {
					return err
				}
				times, wins, err := consensusSamples(p, c.kern, p.Seed+uint64(n), cfg, c.trials)
				if err != nil {
					return err
				}
				s, err := stats.Summarize(times)
				if err != nil {
					return fmt.Errorf("n=%d: %w", n, err)
				}
				norm := s.Mean / (float64(c.k) * float64(n) * math.Log(float64(n)))
				tbl.AddRowf(n, c.k, c.kern.Name(), s.Mean, s.Std, s.Mean/float64(n), norm,
					fmt.Sprintf("%d/%d", wins, len(times)))
				if c.fit {
					xs = append(xs, float64(n))
					ys = append(ys, s.Mean)
				}
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			a, b, r2, err := stats.PowerFit(xs, ys)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w,
				"\nPower fit: T ~ %.3g * n^%.3f (R² %.4f); exponent ~1 confirms the\n"+
					"quasi-linear k·n·ln n scaling at populations the exact kernel cannot reach.\n",
				a, b, r2)
			return err
		},
	}
}
