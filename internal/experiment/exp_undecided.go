package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/potential"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// f1Undecided regenerates the undecided-count picture of Lemmas 1, 3, 4 and
// Observation 7: a trajectory of u(t) climbing to the band around the
// unstable equilibrium u* = n(k−1)/(2k−1), and band-violation counts across
// independent runs.
func f1Undecided() Experiment {
	return Experiment{
		ID:       "F1-undecided",
		Title:    "Undecided-count trajectory and concentration band",
		Artifact: "Lemmas 1, 3, 4; Observation 7 (equilibrium u*)",
		Run: func(p Params, w io.Writer) error {
			n := pick(p, int64(1<<13), int64(1<<14))
			k := 8
			cfg, err := conf.Uniform(n, k, 0)
			if err != nil {
				return err
			}

			// One traced trajectory.
			src := rng.New(p.Seed + 1)
			s, err := core.New(cfg, src, core.WithKernel(p.Kernel))
			if err != nil {
				return err
			}
			recU := trace.NewRecorder("u(t)", n/2)
			recMax := trace.NewRecorder("xmax(t)", n/2)
			res := s.RunObserved(core.NoBudget, func(sim *core.Simulator, ev core.Event) {
				_, xmax := sim.Max()
				recU.Observe(ev.Interactions, float64(sim.Undecided()))
				recMax.Observe(ev.Interactions, float64(xmax))
			})
			recU.Final(res.Interactions, float64(s.Undecided()))
			uStar := potential.EquilibriumUndecided(n, k)
			ref := &trace.Series{Name: fmt.Sprintf("u* = n(k-1)/(2k-1) = %.0f", uStar)}
			for _, x := range recU.Series.X {
				ref.Add(x, uStar)
			}
			plot, err := trace.RenderASCII(72, 18,
				trace.Downsample(recU.Series, 72),
				trace.Downsample(ref, 72),
				trace.Downsample(recMax.Series, 72))
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "Single run, n=%d k=%d (x axis: interactions):\n\n%s\n", n, k, plot); err != nil {
				return err
			}

			// Band-violation counts across trials. The Lemma 3 constant c
			// comes from the assumption k <= c·√n/log²n.
			cBand := float64(k) * math.Sqrt(math.Log(float64(n))*math.Log(float64(n))*math.Log(float64(n))*math.Log(float64(n))) / math.Sqrt(float64(n))
			if cBand < 1 {
				cBand = 1
			}
			upper := potential.UndecidedUpperBound(n, cBand)
			trials := p.trials(20)
			type bandObs struct {
				samples, upViol, loViol int64
			}
			var samples, up, lo int64
			Stream(trials, p.Parallelism, p.Seed+2, func(i int, src *rng.Source, _ *Arena) bandObs {
				var o bandObs
				s, err := core.New(cfg, src, core.WithKernel(p.Kernel))
				if err != nil {
					return o
				}
				inPhase2 := false
				s.RunObserved(core.NoBudget, func(sim *core.Simulator, _ core.Event) {
					_, xmax := sim.Max()
					u := sim.Undecided()
					if !inPhase2 && 2*u >= sim.N()-xmax {
						inPhase2 = true
					}
					o.samples++
					if float64(u) > upper {
						o.upViol++
					}
					if inPhase2 && float64(u) < potential.UndecidedLowerBound(sim.N(), xmax) {
						o.loViol++
					}
				})
				return o
			}, func(_ int, o bandObs) {
				samples += o.samples
				up += o.upViol
				lo += o.loViol
			})
			tbl := NewTable(
				fmt.Sprintf("Band violations over %d runs (%d observed configurations):", trials, samples),
				"bound", "value at xmax=n/k", "violations")
			tbl.AddRowf("Lemma 3 upper: u ≤ n/2 − √(n ln n)/(5c)", upper, up)
			tbl.AddRowf("Lemma 4 lower: u ≥ (n−xmax)/2 − 8√(n ln n)",
				potential.UndecidedLowerBound(n, n/int64(k)), lo)
			if err := tbl.Fprint(w); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "\nReading: u(t) rises in Phase 1 toward the u* band and stays inside\n"+
				"it (0 violations expected) until the endgame drains it to 0.\n")
			return err
		},
	}
}

// f2GapGrowth regenerates Lemma 7: from a perfect tie, the support gap of
// the two leading opinions reaches 4√n quickly (anti-concentration), then
// grows multiplicatively to the significance threshold.
func f2GapGrowth() Experiment {
	return Experiment{
		ID:       "F2-gap-growth",
		Title:    "Bias creation from a tie and multiplicative gap growth",
		Artifact: "Lemma 7 (anti-concentration + gambler's ruin)",
		Run: func(p Params, w io.Writer) error {
			n := pick(p, int64(1<<13), int64(1<<14))
			trials := p.trials(30)
			cfg, err := conf.Uniform(n, 2, 0) // perfect tie between 2 opinions
			if err != nil {
				return err
			}
			sqrtN := math.Sqrt(float64(n))
			target1 := 4 * sqrtN
			target2 := 4 * math.Sqrt(float64(n)*math.Log(float64(n)))

			type gapObs struct {
				t1, t2 float64 // interactions to reach the two targets
				ok     bool
			}
			gap := func(s *core.Simulator) float64 {
				return math.Abs(float64(s.Support(0) - s.Support(1)))
			}
			var t1s, t2s []float64
			Stream(trials, p.Parallelism, p.Seed+3, func(i int, src *rng.Source, _ *Arena) gapObs {
				s, err := core.New(cfg, src, core.WithKernel(p.Kernel))
				if err != nil {
					return gapObs{}
				}
				r1 := s.RunUntil(core.NoBudget, func(sim *core.Simulator) bool { return gap(sim) >= target1 })
				t1 := r1.Interactions.Float64()
				r2 := s.RunUntil(core.NoBudget, func(sim *core.Simulator) bool { return gap(sim) >= target2 })
				return gapObs{t1: t1, t2: r2.Interactions.Float64(), ok: true}
			}, func(_ int, o gapObs) {
				if o.ok {
					t1s = append(t1s, o.t1/float64(n))
					t2s = append(t2s, (o.t2-o.t1)/float64(n))
				}
			})
			s1, err := stats.Summarize(t1s)
			if err != nil {
				return err
			}
			s2, err := stats.Summarize(t2s)
			if err != nil {
				return err
			}
			tbl := NewTable(
				fmt.Sprintf("Gap growth from a tie, n=%d k=2, %d trials (times in units of n interactions):", n, trials),
				"milestone", "mean", "median", "p90", "Lemma 7 window")
			tbl.AddRowf("|x1-x2| reaches 4√n", s1.Mean, s1.Median, s1.P90,
				"O(n²/xmax)/n = O(n/xmax) ≈ 2 per attempt")
			tbl.AddRowf("then reaches 4√(n ln n)", s2.Mean, s2.Median, s2.P90,
				"O(log log n) successful doublings")
			if err := tbl.Fprint(w); err != nil {
				return err
			}

			// One gap trajectory for the figure.
			src := rng.New(p.Seed + 4)
			s, err := core.New(cfg, src, core.WithKernel(p.Kernel))
			if err != nil {
				return err
			}
			rec := trace.NewRecorder("|x1-x2|", n/4)
			s.RunUntil(core.NoBudget, func(sim *core.Simulator) bool {
				rec.Observe(sim.Interactions(), gap(sim))
				return gap(sim) >= target2
			})
			refSeries := &trace.Series{Name: fmt.Sprintf("4√n = %.0f", target1)}
			for _, x := range rec.Series.X {
				refSeries.Add(x, target1)
			}
			plot, err := trace.RenderASCII(72, 14,
				trace.Downsample(rec.Series, 72), trace.Downsample(refSeries, 72))
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "\nOne trajectory of the top-two gap (x axis: interactions):\n\n%s\n", plot)
			return err
		},
	}
}
