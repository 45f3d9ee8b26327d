package experiment

import (
	"repro/internal/rng"
	"repro/internal/stats"
)

// StreamAdaptive is the sequential-stopping layer over the trial engine:
// instead of a fixed trial count, the caller supplies a hard cap and a
// stopping predicate over the streamed aggregates, and the engine runs only
// as many trials as the predicate demands. Results are folded into the sink
// strictly in trial-index order and the predicate is consulted after every
// fold, so the number of folded trials is a pure function of (seed,
// predicate) — never of parallelism or scheduling. Billion-agent sweeps,
// where a trial costs seconds, become self-budgeting: cells with low
// variance stop after a handful of trials, cells near a phase boundary keep
// sampling until their confidence interval closes.

// AdaptiveOptions configure StreamAdaptive.
type AdaptiveOptions struct {
	// MaxTrials is the hard trial cap; the engine never folds more. It must
	// be positive.
	MaxTrials int
	// Parallelism bounds concurrent trials; 0 means GOMAXPROCS. It affects
	// wall-clock only, never the folded results.
	Parallelism int
	// Seed is the stream-family seed; trial i draws from rng.Derive(Seed, i)
	// exactly as in Stream, so an adaptive run that folds T trials is
	// byte-identical to Stream with trials = T.
	Seed uint64
}

// AdaptiveResult reports how an adaptive stream ended.
type AdaptiveResult struct {
	// Trials is the number of trials folded into the sink.
	Trials int
	// Stopped reports whether the stopping predicate fired; false means the
	// MaxTrials cap was exhausted with the predicate still unsatisfied.
	Stopped bool
}

// StreamAdaptive runs fn for trial indices 0, 1, 2, … until stop() reports
// the streamed aggregates have converged or opts.MaxTrials trials have been
// folded. Results are delivered to sink exactly once each, in trial-index
// order, on the calling goroutine, and stop() is evaluated after every
// sink call — both exactly as a fixed-count Stream would behave, so the
// folded prefix is byte-identical to Stream(result.Trials, …) at every
// parallelism level (the determinism regression test pins this).
//
// It runs on Stream's worker pool, so when the predicate fires at the T-th
// fold no trial at index T+4·parallelism or beyond has been started. Trials
// computed past the stop are discarded, queued ones are never run, and
// StreamAdaptive returns only once the running ones have finished.
func StreamAdaptive[T any](opts AdaptiveOptions, fn func(i int, src *rng.Source, a *Arena) T, sink func(i int, v T), stop func() bool) AdaptiveResult {
	trials, stopped := run(opts.MaxTrials, opts.Parallelism, opts.Seed, func(pos int) int { return pos }, fn, sink, stop)
	return AdaptiveResult{Trials: trials, Stopped: stopped}
}

// AdaptiveMetric is one named measurement of an adaptive stream: a Welford
// aggregator and a P² median sketch fed by every folded trial, plus the
// stopping rule that decides when this metric has been resolved tightly
// enough. A metric latches: once its rule first holds it is recorded as
// halted at that trial count (StoppedAt) and no longer gates the run, even
// if later folds widen its interval again — the standard group-sequential
// convention, and the reason a finished run can report per-metric stopping
// trials individually.
//
// A metric round-trips through encoding/json for callers that snapshot a
// fold themselves through dist.JSONState (RunCell checkpoints results and
// replays them instead): the aggregates (bit-exactly, via the stats
// snapshot encodings) and the latch, but not the Rule — rules are code, so
// the restoring side builds the metric with NewAdaptiveMetric and
// unmarshals into it, which keeps the rule it was constructed with.
type AdaptiveMetric struct {
	// Name labels the metric in reports.
	Name string `json:"name"`
	// Rule decides when the metric needs no more samples.
	Rule stats.StoppingRule `json:"-"`
	// Online accumulates mean/variance/extrema of the folded values.
	Online stats.Online `json:"online"`
	// Median is the P² sketch of the 0.5 quantile.
	Median *stats.P2 `json:"median,omitempty"`
	// StoppedAt is the trial count after which Rule first held; 0 while the
	// metric is still open.
	StoppedAt int64 `json:"stopped_at"`
}

// NewAdaptiveMetric returns a metric with the given stopping rule.
func NewAdaptiveMetric(name string, rule stats.StoppingRule) *AdaptiveMetric {
	return &AdaptiveMetric{Name: name, Rule: rule, Median: stats.NewP2(0.5)}
}

// Add folds one value into the metric's aggregators and updates the latch.
func (m *AdaptiveMetric) Add(x float64) {
	m.Online.Add(x)
	m.Median.Add(x)
	if m.StoppedAt == 0 && m.Rule != nil && m.Rule.Stop(&m.Online) {
		m.StoppedAt = m.Online.N()
	}
}

// Done reports whether the metric has halted.
func (m *AdaptiveMetric) Done() bool { return m.StoppedAt > 0 }

// StopWhenAll returns a StreamAdaptive predicate that fires once every
// metric has halted. Metrics with a nil rule never halt on their own, so
// including one turns the run into a fixed-MaxTrials run.
func StopWhenAll(metrics ...*AdaptiveMetric) func() bool {
	return func() bool {
		for _, m := range metrics {
			if !m.Done() {
				return false
			}
		}
		return true
	}
}
