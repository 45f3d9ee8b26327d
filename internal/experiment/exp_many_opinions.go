package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// KForEps returns the opinion count of the many-opinions regime k = Θ(n^ε):
// round(n^ε) clamped to at least 2. cmd/sweep shares it for its k = n^ε
// grids.
func KForEps(n int64, eps float64) int {
	k := int(math.Round(math.Pow(float64(n), eps)))
	if k < 2 {
		k = 2
	}
	return k
}

// k3ManyOpinions explores the many-opinions regime k = Θ(n^ε) that the
// follow-up line of work (Cooper et al.; "Undecided State Dynamics with
// Many Opinions", arXiv:2603.02636) studies: the number of opinions grows
// polynomially with the population instead of staying constant. From a
// uniform start x₁ = n/k, so Theorem 2's no-bias bound n²·ln n/x₁ becomes
// k·n·ln n = n^(1+ε)·ln n — the consensus-time exponent itself should grow
// with ε. Each (ε, n) cell runs the batched kernel to consensus and streams
// trials through online aggregators (mean/variance via Welford, median via
// a P² sketch), so the cell's memory cost is independent of the trial
// count; a per-window trajectory of the largest cell is recorded through
// the bounded sampler, the observer path that makes n >= 10⁸ trajectory
// runs affordable.
func k3ManyOpinions() Experiment {
	return Experiment{
		ID:       "K3-many-opinions",
		Title:    "Consensus scaling in the many-opinions regime k = Θ(n^ε)",
		Artifact: "many-opinions USD shape (Cooper et al., arXiv:2603.02636): T ~ n^(1+ε) ln n",
		Run: func(p Params, w io.Writer) error {
			// The amortized batched cost per cell grows like k²·ln n (windows
			// are capped by tol·u ~ tol·n/2 events but each costs O(k)), so
			// the ε = 0.5 column uses smaller n than the flatter exponents.
			type grid struct {
				eps float64
				ns  []int64
			}
			grids := pick(p,
				[]grid{
					{0.1, []int64{1 << 12, 1 << 14}},
					{0.25, []int64{1 << 12, 1 << 14}},
					{0.5, []int64{1 << 12, 1 << 14}},
				},
				[]grid{
					{0.1, []int64{1_000_000, 10_000_000, 100_000_000, 1_000_000_000}},
					{0.25, []int64{1_000_000, 10_000_000, 100_000_000, 1_000_000_000}},
					{0.5, []int64{10_000, 100_000, 1_000_000}},
				})
			// A fixed cell's metric has no rule, so it never stops before
			// the count. Adaptive mode (Params.Adaptive) replaces the count
			// with sequential stopping: a higher cap, spent only where the
			// consensus-time CI stays wide — the cheap way to tighten the
			// per-ε exponent fits below.
			trials, policy := p.trials(5), "fixed"
			var rule stats.StoppingRule
			trialDesc, capSuffix := fmt.Sprintf("%d trials per cell", trials), ""
			if p.Adaptive {
				trials = p.maxTrials(20)
				rule, policy = p.consensusRule(trials), ConsensusPolicy(p.relWidth())
				trialDesc = fmt.Sprintf("adaptive trials (±%.0f%% CI, cap %d) per cell",
					100*p.relWidth(), trials)
				capSuffix = fmt.Sprintf("/%d", trials)
			}
			tbl := NewTable(
				fmt.Sprintf("Many-opinions regime, uniform start, batched kernel (tol %g), %s:",
					core.DefaultTolerance, trialDesc),
				"eps", "n", "k", "trials", "mean T", "std", "median", "par. time", "T/(k n ln n)")

			type fitData struct {
				eps    float64
				xs, ys []float64
			}
			var fits []fitData
			for _, g := range grids {
				fd := fitData{eps: g.eps}
				for _, n := range g.ns {
					k := KForEps(n, g.eps)
					cfg, err := conf.Uniform(n, k, 0)
					if err != nil {
						return err
					}
					// Stream the cell: only the online aggregates are held,
					// never the per-trial results.
					st := &ConsensusCellState{Metric: NewAdaptiveMetric("consensus T", rule)}
					res, err := p.Cell(
						NewShardSpec(cfg, core.Variant{}, core.KernelBatched(0), core.NoBudget, 0, false),
						trials, p.Seed+uint64(n)*13+uint64(g.eps*1000), st.fold, StopWhenAll(st.Metric), policy)
					if err != nil {
						return fmt.Errorf("eps=%g n=%d: %w", g.eps, n, err)
					}
					agg, med := &st.Metric.Online, st.Metric.Median
					if agg.N() == 0 {
						return fmt.Errorf("eps=%g n=%d: all trials failed", g.eps, n)
					}
					if st.Failed > 0 {
						fmt.Fprintf(w, "note: eps=%g n=%d: %d trials did not reach consensus\n",
							g.eps, n, st.Failed)
					}
					norm := agg.Mean() / (float64(k) * float64(n) * math.Log(float64(n)))
					tbl.AddRowf(g.eps, n, k, fmt.Sprintf("%d%s", res.Trials, capSuffix),
						agg.Mean(), agg.Std(), med.Value(), agg.Mean()/float64(n), norm)
					fd.xs = append(fd.xs, float64(n))
					fd.ys = append(fd.ys, agg.Mean())
				}
				fits = append(fits, fd)
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}

			// Per-ε power fits: T ~ a·n^b with b ≈ 1+ε (up to the ln n
			// factor, which biases b slightly upward).
			if _, err := fmt.Fprintf(w, "\nPower fits T ~ a·n^b per ε (expected exponent ≈ 1+ε from T = Θ(n^(1+ε) ln n)):\n"); err != nil {
				return err
			}
			for _, fd := range fits {
				a, b, r2, err := stats.PowerFit(fd.xs, fd.ys)
				if err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "  eps=%.2f: T ~ %.3g·n^%.3f (R² %.4f, 1+ε = %.2f)\n",
					fd.eps, a, b, r2, 1+fd.eps); err != nil {
					return err
				}
			}

			// One per-window trajectory of the largest population in the
			// grid (ties to the larger ε), recorded via the bounded
			// sampler: the observation count scales with windows rather
			// than interactions and the recorders cap memory, so even the
			// billion-agent cell records a full trajectory for free.
			big := grids[0]
			n := big.ns[len(big.ns)-1]
			for _, g := range grids[1:] {
				if last := g.ns[len(g.ns)-1]; last >= n {
					big, n = g, last
				}
			}
			k := KForEps(n, big.eps)
			cfg, err := conf.Uniform(n, k, 0)
			if err != nil {
				return err
			}
			s, err := core.New(cfg, rng.New(p.Seed+1), core.WithKernel(core.KernelBatched(0)))
			if err != nil {
				return err
			}
			sampler := trace.NewSampler().
				Track("u/n", 96, func(s *core.Simulator) float64 {
					return float64(s.Undecided()) / float64(s.N())
				}).
				Track("xmax/n", 96, func(s *core.Simulator) float64 {
					_, x := s.Max()
					return float64(x) / float64(s.N())
				})
			res := s.RunWatched(core.NoBudget, sampler)
			sampler.Final(s)
			plot, err := trace.RenderASCII(64, 12, sampler.Series()...)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w,
				"\nSample trajectory, eps=%.2f n=%d k=%d (window-granularity observer, %v):\n\n%s\n"+
					"Reading: the normalized column T/(k n ln n) should stay roughly\n"+
					"constant within each ε while n spans decades, and the fitted\n"+
					"exponents should track 1+ε — consensus stays quasi-linear per\n"+
					"opinion even when k grows polynomially with n.\n",
				big.eps, n, k, res.Outcome, plot)
			return err
		},
	}
}
