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

// k5Variants validates the two non-classic dynamics variants against the
// predictions of their source papers.
//
// Stubborn arm (arXiv:2406.07335): from a dead-heat two-opinion start, a
// small stubborn minority behind one opinion steers the metastable process
// toward it — the win rate of the stubborn-backed opinion must rise with
// the stubborn count, clearing 50% decisively once the count is a few
// percent of n, while the zero-stubborn control stays near the symmetric
// 50%. Every trial must terminate through the variant's dominance terminal
// (full consensus is unreachable with stubborn dissenters).
//
// Unconstrained arm (arXiv:2103.10366): with undecided agents still
// communicating a latent opinion (and the initially-undecided blank),
// every run must reach full consensus — the variant removes the
// all-undecided failure mode — in O(n log n) interactions for every k.
//
// Params.Variant focuses the run on one arm and, for stubborn, overrides
// the per-opinion counts; the zero Variant runs both arms.
func k5Variants() Experiment {
	return Experiment{
		ID:       "K5-variants",
		Title:    "Stubborn-agent and unconstrained USD variant validation",
		Artifact: "variant dynamics predictions (arXiv:2406.07335, arXiv:2103.10366)",
		Run: func(p Params, w io.Writer) error {
			focus := p.Variant
			focusDyn, err := focus.Dynamics()
			if err != nil {
				return err
			}
			runStubborn := focus.Classic() || focusDyn == core.StubbornAgents
			runUnconstrained := focus.Classic() || focusDyn == core.Unconstrained
			allPass := true
			verdict := func(pass bool) string {
				if pass {
					return "pass"
				}
				allPass = false
				return "FAIL"
			}

			if runStubborn {
				if err := k5Stubborn(p, w, focus, verdict); err != nil {
					return err
				}
			}
			if runUnconstrained {
				if err := k5Unconstrained(p, w, verdict); err != nil {
					return err
				}
			}
			summary := "PASS: both variants match their papers' predictions within tolerance."
			if !allPass {
				summary = "FAIL: at least one variant prediction missed; inspect the tables."
			}
			_, err = fmt.Fprintf(w, "\n%s\n", summary)
			return err
		},
	}
}

// k5Stubborn runs the stubborn-steering arm: a dead-heat k=2 start with b
// stubborn agents behind opinion 0 and none behind opinion 1.
func k5Stubborn(p Params, w io.Writer, focus core.Variant, verdict func(bool) string) error {
	n := pick(p, int64(1000), int64(4000))
	trials := p.trials(40)
	// Dominance at these sizes lands around 10n–20n interactions; n² is a
	// comfortable safety budget, and exhausting it fails the decided gate.
	budget := u128.Mul64(uint64(n), uint64(n))
	// Stubborn counts per row: the control, ~1% of n, and ~5% of n, all
	// behind opinion 0 — or the counts forced by a -variant stubborn:...
	// focus spec.
	rows := [][]int64{
		{0, 0},
		{n / 100, 0},
		{n / 20, 0},
	}
	if len(focus.Stubborn) > 0 {
		rows = [][]int64{focus.Stubborn}
	}
	const (
		controlTol = 0.30 // max |win rate − 0.5| of the zero-stubborn control
		wilsonZ    = 1.96 // 95% Wilson interval for the steering gate
	)
	tbl := NewTable(
		fmt.Sprintf("Stubborn steering, n=%d k=2 dead-heat start, %d trials per row (%s kernel):",
			n, trials, p.Kernel.Name()),
		"stubborn", "decided", "win rate b-side", "wilson 95% lo", "mean par. time", "gate", "verdict")
	for ri, bs := range rows {
		v := core.Variant{Name: "stubborn", Stubborn: bs}
		if err := v.Validate(); err != nil {
			return err
		}
		if err := v.ValidateKernel(p.Kernel); err != nil {
			return err
		}
		dyn, err := v.Dynamics()
		if err != nil {
			return err
		}
		cfg, err := conf.Uniform(n, len(bs), 0)
		if err != nil {
			return err
		}
		v.Configure(cfg)
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("stubborn row %v: %w", bs, err)
		}
		opts := []core.Option{core.WithDynamics(dyn)}
		type out struct {
			t       float64
			winner  int
			decided bool
		}
		decided, wins := 0, 0
		var par float64
		Stream(trials, p.Parallelism, p.Seed+uint64(ri)*1000, func(i int, src *rng.Source, a *Arena) out {
			r, err := RunTracked(a, cfg, src, budget, 0, p.Kernel, opts...)
			if err != nil {
				return out{}
			}
			oc := r.Result.Outcome
			return out{
				t:       r.Result.Interactions.Float64(),
				winner:  r.Result.Winner,
				decided: oc == core.OutcomeDominance || oc == core.OutcomeConsensus,
			}
		}, func(_ int, o out) {
			if !o.decided {
				return
			}
			decided++
			par += o.t / float64(n)
			if o.winner == 0 {
				wins++
			}
		})
		if decided > 0 {
			par /= float64(decided)
		}
		rate := float64(wins) / math.Max(float64(decided), 1)
		lo, _, err := stats.WilsonInterval(wins, decided, wilsonZ)
		if err != nil {
			return err
		}
		// The control must stay near the symmetric 50%; a stubborn count of
		// ~5% of n must steer decisively (Wilson lower bound past 50% —
		// measured: 1% of n only wins ~55% of dead heats, 5% wins nearly
		// all). Rows in between only gate on termination.
		b := bs[0]
		for _, x := range bs[1:] {
			if x > b {
				b = x
			}
		}
		gate, pass := "decided", decided == trials
		switch {
		case b == 0:
			gate = fmt.Sprintf("|rate-0.5|<=%g", controlTol)
			pass = pass && math.Abs(rate-0.5) <= controlTol
		case b >= n/20:
			gate = "wilson lo>0.5"
			pass = pass && lo > 0.5
		}
		tbl.AddRowf(fmt.Sprintf("%v", bs), fmt.Sprintf("%d/%d", decided, trials),
			rate, lo, par, gate, verdict(pass))
	}
	return tbl.Fprint(w)
}

// k5Unconstrained runs the unconstrained-consensus arm: uniform k-opinion
// starts with half the population initially blank.
func k5Unconstrained(p Params, w io.Writer, verdict func(bool) string) error {
	n := pick(p, int64(1000), int64(4000))
	trials := p.trials(40)
	ks := []int{2, 8}
	// The variant is exact-only; the arm ignores Params.Kernel.
	const timeTol = 30 // max mean T/(n ln n), generous vs the O(n log n) bound
	opts := []core.Option{core.WithDynamics(core.Unconstrained)}
	tbl := NewTable(
		fmt.Sprintf("Unconstrained USD, n=%d, u0=n/2 blank, %d trials per k (exact kernel):", n, trials),
		"k", "consensus", "mean T/(n ln n)", "mean par. time", "gate", "verdict")
	for ki, k := range ks {
		cfg, err := conf.Uniform(n, k, n/2)
		if err != nil {
			return err
		}
		type out struct {
			t  float64
			ok bool
		}
		oks := 0
		var sum float64
		Stream(trials, p.Parallelism, p.Seed+uint64(ki)*7777, func(i int, src *rng.Source, a *Arena) out {
			t, _, err := consensusTime(a, cfg, src, core.NoBudget, core.KernelExact, opts...)
			if err != nil {
				return out{}
			}
			return out{t: t.Float64(), ok: true}
		}, func(_ int, o out) {
			if !o.ok {
				return
			}
			oks++
			sum += o.t
		})
		mean := sum / math.Max(float64(oks), 1)
		norm := mean / (float64(n) * math.Log(float64(n)))
		pass := oks == trials && norm <= timeTol
		tbl.AddRowf(k, fmt.Sprintf("%d/%d", oks, trials), norm, mean/float64(n),
			fmt.Sprintf("all consensus, norm<=%d", timeTol), verdict(pass))
	}
	return tbl.Fprint(w)
}
