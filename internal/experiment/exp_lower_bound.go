package experiment

import (
	"fmt"
	"io"

	"repro/internal/bounds"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/stats"
)

// k4LowerBound exploits the regime the raised conf.MaxN unlocked: population
// sizes n ∈ (2·10⁹, 3·10⁹], where the almost-tight lower bound of El-Hayek,
// Elsässer et al. (arXiv:2505.02765) pinches against the source paper's
// Theorem 2 upper bound. Each (n, k) cell runs uniform unbiased starts on
// the batched kernel and brackets the measured mean consensus time between
// the two evaluated curves (internal/bounds), localizing the empirical
// constant inside the (UpperConst/LowerConst)·ln ln n envelope.
//
// Trials at these sizes cost seconds to tens of seconds each, so the cell
// budget is adaptive by construction: each cell folds its trials through
// the cell runner (RunCell, in process or sharded per Params.Engine) and
// halts as soon as the consensus-time CI closes below the relative
// half-width target (Params.RelWidth, default ±5% at 95%), with
// Params.MaxTrials as the hard cap — the self-budgeting machinery this
// experiment exists to exercise.
func k4LowerBound() Experiment {
	return Experiment{
		ID:       "K4-lower-bound",
		Title:    "Consensus time bracketed in the lower-bound regime n ∈ (2e9, 3e9]",
		Artifact: "almost-tight lower bound comparison (arXiv:2505.02765) with adaptive trial budgets",
		Run: func(p Params, w io.Writer) error {
			// Quick mode keeps the full k grid but shrinks n to smoke-test
			// sizes; the envelope constants were calibrated down to n = 10⁴,
			// so the bracketing check is meaningful at both scales.
			ns := pick(p,
				[]int64{10_000, 30_000},
				[]int64{2_200_000_000, 2_600_000_000, 3_000_000_000})
			ks := []int{2, 32, 512}
			maxTrials := p.maxTrials(24)
			rel := p.relWidth()

			tbl := NewTable(
				fmt.Sprintf("Uniform start, batched kernel (tol %g), adaptive stopping at ±%.0f%% CI (%.0f%%, cap %d):",
					core.DefaultTolerance, 100*rel, 100*DefaultCILevel, maxTrials),
				"n", "k", "trials", "mean T", "ci95 ±", "median", "lower", "upper", "T/upper", "verdict")

			type cell struct {
				n       int64
				k       int
				mean    float64
				lo, hi  float64
				trials  int
				stopped bool
			}
			var cells []cell
			allBracketed := true
			for _, n := range ns {
				for _, k := range ks {
					cfg, err := conf.Uniform(n, k, 0)
					if err != nil {
						return err
					}
					st := &ConsensusCellState{Metric: NewAdaptiveMetric("consensus T", p.consensusRule(maxTrials))}
					metric := st.Metric
					res, err := p.Cell(
						NewShardSpec(cfg, core.Variant{}, core.KernelBatched(0), core.NoBudget, 0, false),
						maxTrials, p.Seed+uint64(n)*31+uint64(k)*1_000_003, st.fold, StopWhenAll(metric), ConsensusPolicy(rel))
					if err != nil {
						return fmt.Errorf("n=%d k=%d: %w", n, k, err)
					}
					if metric.Online.N() == 0 {
						return fmt.Errorf("n=%d k=%d: all %d trials failed", n, k, res.Trials)
					}
					if st.Failed > 0 {
						fmt.Fprintf(w, "note: n=%d k=%d: %d/%d trials did not reach consensus\n",
							n, k, st.Failed, res.Trials)
					}
					ci := stats.StudentTCI(&metric.Online, DefaultCILevel)
					lo, hi, ok := bounds.Bracket(n, k, ci.Mean)
					verdict := "bracketed"
					if !ok {
						verdict = "OUTSIDE"
						allBracketed = false
					}
					trialsCell := fmt.Sprintf("%d/%d", res.Trials, maxTrials)
					if res.Stopped {
						trialsCell += " (ci)"
					} else {
						trialsCell += " (cap)"
					}
					tbl.AddRowf(n, k, trialsCell, ci.Mean, ci.Half, metric.Median.Value(),
						lo, hi, ci.Mean/hi, verdict)
					cells = append(cells, cell{n, k, ci.Mean, lo, hi, res.Trials, res.Stopped})
				}
			}
			if err := tbl.Fprint(w); err != nil {
				return err
			}

			// Per-k localization of the empirical constant inside the
			// envelope: where T/upper sits, and how much of the ln ln n gap
			// the measurements actually use.
			if _, err := fmt.Fprintf(w, "\nEnvelope localization (gap = upper/lower = %.3g·ln ln n):\n",
				bounds.UpperConst/bounds.LowerConst); err != nil {
				return err
			}
			for _, k := range ks {
				var ratios []float64
				var trialsUsed, trialsCap int
				for _, c := range cells {
					if c.k != k {
						continue
					}
					ratios = append(ratios, c.mean/c.hi)
					trialsUsed += c.trials
					trialsCap += maxTrials
				}
				s, err := stats.Summarize(ratios)
				if err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w,
					"  k=%-4d T/upper ∈ [%.3f, %.3f] across n; adaptive spent %d/%d budgeted trials\n",
					k, s.Min, s.Max, trialsUsed, trialsCap); err != nil {
					return err
				}
			}

			summary := "PASS: every measured mean lies between the lower- and upper-bound curves."
			if !allBracketed {
				summary = "FAIL: at least one mean escaped the envelope; inspect the table."
			}
			if _, err := fmt.Fprintf(w,
				"\n%s\nReading: the curves are the Theorem 2 upper bound %.3g·n²·ln n/x₁ and the\n"+
					"almost-tight lower bound %.3g·n²·ln n/(x₁·ln ln n) (arXiv:2505.02765), both with\n"+
					"calibrated constants (see internal/bounds). Adaptive stopping spends trials only\n"+
					"until the ±%.0f%% CI closes, so expensive billion-agent cells self-budget.\n",
				summary, bounds.UpperConst, bounds.LowerConst, 100*rel); err != nil {
				return err
			}
			if !allBracketed {
				return fmt.Errorf("K4-lower-bound: a measured mean escaped the bounds envelope")
			}
			return nil
		},
	}
}
