// Command sweep measures USD consensus time across a one-dimensional
// parameter sweep and emits a table or CSV, for custom scaling studies
// beyond the canned experiments.
//
// Usage:
//
//	sweep -param n -values 4096,8192,16384,32768 -k 8 -trials 10
//	sweep -param k -values 2,4,8,16,32 -n 16384 -csv
//	sweep -param bias -values 0,64,128,256,512 -n 16384 -k 2
//	sweep -param n -values 1e7,1e8,1e9 -k 32 -kernel batched
//	sweep -param n -values 1e6,1e8,1e9 -keps 0.25 -kernel batched
//	sweep -param eps -values 0.1,0.25,0.5 -n 1e6 -kernel batched
//	sweep -param n -values 2.2e9,2.6e9,3e9 -k 512 -kernel batched -adaptive -rel 0.03
//	sweep -param n -values 3e9 -k 512 -kernel batched -adaptive -shards 4 -checkpoint sweep-ckpt
//
// -kernel batched selects the bulk stepping kernel for large-n sweeps; it
// trades a bounded per-rate drift (-tol, default 0.05) for orders of
// magnitude in throughput. The many-opinions regime k = Θ(n^ε) (Cooper et
// al.) is swept either by -param eps (ε varies at fixed n) or by -param n
// with -keps (n varies, k = n^ε follows). Trials run on the shared-arena
// trial engine; -parallelism bounds the workers and results are identical
// at every parallelism level. -adaptive replaces the fixed -trials count
// with sequential stopping: each point keeps sampling until the 95%
// consensus-time confidence interval has relative half-width below -rel,
// capped at -maxtrials — billion-agent points where trials cost seconds
// then spend exactly as many trials as their variance demands.
//
// -variant sweeps a non-classic dynamics: stubborn:b0,b1,... (per-opinion
// stubborn agents; points fold dominance times instead of consensus
// times) or unconstrained (latent-opinion USD; exact kernel only). The
// variant rides the shard-spec wire format, so -shards and -checkpoint
// work unchanged.
//
// -shards N distributes each point's trials across N worker processes (the
// binary re-executes itself in a hidden worker mode) through the
// internal/dist coordinator; the folded output is byte-identical to the
// in-process run at every shard count — the shard-determinism CI job
// diffs 1-, 2-, and 4-shard runs of the same sweep. -checkpoint DIR
// additionally logs each point's trial results in a file under DIR after
// every folded wave and resumes by replaying them, so interrupted
// billion-agent sweeps continue instead of restarting (delete the
// directory to start over).
//
// Sharded runs tolerate worker failure: a crashed, hung (-worker-timeout),
// or garbling worker is relaunched up to -max-relaunches times with its
// unfinished trials requeued, and the folded table stays byte-identical to
// an undisturbed run. SIGINT/SIGTERM is graceful — the wave in flight is
// folded and checkpointed, the process exits with status 130, and rerunning
// the same command resumes; a second signal exits immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	usd "repro"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/stats"
)

func main() {
	os.Exit(runMain(os.Args[1:]))
}

// runMain maps a run's outcome to the process exit status (see
// experiment.ExitStatus).
func runMain(args []string) int {
	return experiment.ExitStatus("sweep", run(args))
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		param    = fs.String("param", "n", "swept parameter: n, k, bias (additive), mult (ratio), or eps (k = n^eps)")
		values   = fs.String("values", "", "comma-separated values for the swept parameter")
		nFlag    = fs.String("n", "16384", "population size, integer or scientific like 1e9 (fixed unless swept)")
		k        = fs.Int("k", 8, "number of opinions (fixed unless swept or derived via -keps)")
		keps     = fs.Float64("keps", 0, "with -param n: derive k = n^keps per point (0 = use -k)")
		u0       = fs.Int64("u0", 0, "initially undecided agents")
		trials   = fs.Int("trials", 10, "trials per sweep point")
		seed     = fs.Uint64("seed", 1, "base random seed")
		asCSV    = fs.Bool("csv", false, "emit CSV instead of a table")
		kernel   = fs.String("kernel", "exact", "stepping kernel: exact, batched, or auto")
		varSpec  = fs.String("variant", "", "dynamics variant spec: classic, stubborn:b0,b1,..., or unconstrained (empty = classic)")
		tol      = fs.Float64("tol", 0, "batched/auto-kernel drift tolerance in [0, 0.25] (0 = default 0.05)")
		adaptive = fs.Bool("adaptive", false, "adaptive trial counts: stop each point once the consensus-time CI closes")
		rel      = fs.Float64("rel", 0.05, "adaptive stopping target: relative CI half-width")
		maxTri   = fs.Int("maxtrials", 0, "adaptive per-point trial cap (0 = 4x -trials)")
		eng      = experiment.AddEngineFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *u0 < 0 {
		return fmt.Errorf("-u0 %d must be non-negative", *u0)
	}
	// Every point is one experiment cell (experiment.Params.Cell) on this
	// base; the launcher, interrupt and fault-tolerance options only
	// matter with -shards.
	base, served, err := eng.Engine()
	if served || err != nil {
		return err
	}
	if *trials < 0 || (*trials == 0 && !*adaptive) {
		return fmt.Errorf("-trials %d must be positive", *trials)
	}
	kern, err := core.ParseKernel(*kernel, *tol)
	if err != nil {
		return err
	}
	variant, err := core.ParseVariantSpec(*varSpec)
	if err != nil {
		return err
	}
	if !(*rel > 0 && *rel < 1) {
		return fmt.Errorf("-rel %v out of range (0, 1)", *rel)
	}
	if *maxTri < 0 {
		return fmt.Errorf("-maxtrials %d must be non-negative", *maxTri)
	}
	adaptiveCap := *maxTri
	if adaptiveCap == 0 {
		adaptiveCap = 4 * *trials
	}
	if *adaptive && adaptiveCap == 0 {
		return fmt.Errorf("-adaptive with -trials 0 needs a positive -maxtrials")
	}
	n, err := parseCount(*nFlag)
	if err != nil {
		return fmt.Errorf("bad -n value %q: %w", *nFlag, err)
	}
	if *values == "" {
		return fmt.Errorf("-values is required")
	}
	if *keps != 0 && *param != "n" {
		return fmt.Errorf("-keps only applies to -param n (got -param %s)", *param)
	}
	if !(*keps >= 0 && *keps < 1) {
		return fmt.Errorf("-keps %v out of range [0, 1)", *keps)
	}
	raw := strings.Split(*values, ",")

	maxTrials, policy := *trials, "fixed"
	if *adaptive {
		maxTrials, policy = adaptiveCap, experiment.ConsensusPolicy(*rel)
	}
	cells := experiment.Params{Parallelism: eng.Parallelism, Engine: base, CheckpointDir: eng.CheckpointDir}

	type row struct {
		value        string
		k            int
		trials       int
		mean, median float64
		std          float64
		parallel     float64
		winRate      float64
	}
	var rows []row
	for vi, vs := range raw {
		vs = strings.TrimSpace(vs)
		cfg, err := buildConfig(*param, vs, n, *k, *keps, *u0)
		if err != nil {
			return err
		}
		// Prepare rejects a bad (variant, kernel, configuration) triple
		// before the point runs any trial.
		if cfg, _, err = variant.Prepare(cfg, kern); err != nil {
			return fmt.Errorf("value %s with -variant %s: %w", vs, variant, err)
		}
		st := &pointState{value: vs}
		var stop func() bool
		if *adaptive {
			// Sequential stopping: keep sampling this point until the
			// consensus-time CI closes below -rel or the cap is hit. The
			// win-rate estimate simply uses however many trials that took.
			st.metric = experiment.NewAdaptiveMetric("consensus T",
				experiment.ConsensusRule(*rel, adaptiveCap))
			stop = experiment.StopWhenAll(st.metric)
		}
		// In process or across -shards workers, the cell folds the same
		// results in the same order, so the table is byte-identical between
		// them; an interrupted point returns ErrInterrupted instead of a
		// table built on a partial fold.
		spec := experiment.NewShardSpec(cfg, variant, kern, core.NoBudget, 0, true)
		if _, err := cells.Cell(spec, maxTrials, *seed+uint64(vi)*1_000_003, st.fold, stop, policy); err != nil {
			if errors.Is(err, experiment.ErrInterrupted) {
				return fmt.Errorf("point %s: %w", vs, err)
			}
			return err
		}
		if st.firstFail != "" {
			return fmt.Errorf("%s", st.firstFail)
		}
		s, err := stats.Summarize(st.times)
		if err != nil {
			return err
		}
		rows = append(rows, row{
			value:    vs,
			k:        cfg.K(),
			trials:   len(st.times),
			mean:     s.Mean,
			median:   s.Median,
			std:      s.Std,
			parallel: s.Mean / float64(cfg.N()),
			winRate:  float64(st.wins) / float64(len(st.times)),
		})
	}

	if *asCSV {
		fmt.Println("value,k,trials,mean_interactions,median,std,parallel_time,initial_leader_win_rate")
		for _, r := range rows {
			fmt.Printf("%s,%d,%d,%g,%g,%g,%g,%g\n", r.value, r.k, r.trials, r.mean, r.median, r.std, r.parallel, r.winRate)
		}
		return nil
	}
	if *adaptive {
		fmt.Printf("sweep over %s (adaptive trials, ±%.0f%% CI, cap %d per point):\n\n", *param, 100**rel, adaptiveCap)
	} else {
		fmt.Printf("sweep over %s (%d trials per point):\n\n", *param, *trials)
	}
	fmt.Printf("%-10s %-6s %-8s %-14s %-14s %-12s %-14s %s\n",
		*param, "k", "trials", "mean T", "median", "std", "parallel time", "leader wins")
	for _, r := range rows {
		fmt.Printf("%-10s %-6d %-8d %-14.6g %-14.6g %-12.4g %-14.4g %.0f%%\n",
			r.value, r.k, r.trials, r.mean, r.median, r.std, r.parallel, 100*r.winRate)
	}
	return nil
}

// pointState is the fold state of one sweep point. A checkpointed point
// saves its trial results, not this state, and a resumed point replays
// them through the fold (see experiment.RunCell).
type pointState struct {
	value string
	// times holds the consensus times of successful trials, in fold order.
	times []float64
	// wins counts trials the initial leader won.
	wins int
	// firstFail records the first non-consensus trial, or "".
	firstFail string
	// metric is the adaptive stopping metric; nil for fixed-count runs.
	metric *experiment.AdaptiveMetric
}

// fold accumulates trial i's outcome. Decided covers both consensus and
// the stubborn variant's dominance terminal, so stubborn sweeps report
// decision times rather than failing every trial.
func (st *pointState) fold(i int, r experiment.ShardResult) {
	if !r.Decided() {
		if st.firstFail == "" {
			st.firstFail = fmt.Sprintf("value %s trial %d: %s", st.value, i, r.Outcome)
		}
		return
	}
	t := r.Interactions().Float64()
	st.times = append(st.times, t)
	if r.Winner == r.InitialLeader {
		st.wins++
	}
	if st.metric != nil {
		st.metric.Add(t)
	}
}

func buildConfig(param, value string, n int64, k int, keps float64, u0 int64) (*usd.Config, error) {
	switch param {
	case "n":
		v, err := parseCount(value)
		if err != nil {
			return nil, fmt.Errorf("bad n value %q: %w", value, err)
		}
		kk := k
		if keps > 0 {
			kk = experiment.KForEps(v, keps)
		}
		return usd.Uniform(v, kk, scaleU(u0, n, v))
	case "k":
		v, err := strconv.Atoi(value)
		if err != nil {
			return nil, fmt.Errorf("bad k value %q: %w", value, err)
		}
		return usd.Uniform(n, v, u0)
	case "eps":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("bad eps value %q: %w", value, err)
		}
		if v < 0 || v >= 1 {
			return nil, fmt.Errorf("bad eps value %q: want a float in [0, 1)", value)
		}
		return usd.Uniform(n, experiment.KForEps(n, v), u0)
	case "bias":
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad bias value %q: %w", value, err)
		}
		return usd.WithAdditiveBias(n, k, v, u0)
	case "mult":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("bad mult value %q: %w", value, err)
		}
		return usd.WithMultiplicativeBias(n, k, v, u0)
	default:
		return nil, fmt.Errorf("unknown -param %q (want n, k, eps, bias, or mult)", param)
	}
}

// parseCount parses a population size, accepting both integer ("1000000")
// and scientific ("1e6") notation so billion-agent sweeps stay readable.
func parseCount(value string) (int64, error) {
	if v, err := strconv.ParseInt(value, 10, 64); err == nil {
		return v, nil
	}
	f, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return 0, err
	}
	// float64(MaxInt64) rounds up to 2^63, so >= is required to keep the
	// int64 conversion in range.
	if f != math.Trunc(f) || f < 0 || f >= math.MaxInt64 {
		return 0, fmt.Errorf("not a non-negative integer: %v", f)
	}
	return int64(f), nil
}

// scaleU keeps the undecided fraction constant when n is the swept
// parameter.
func scaleU(u0, nOld, nNew int64) int64 {
	if u0 == 0 || nOld == 0 {
		return u0
	}
	return int64(math.Round(float64(u0) * float64(nNew) / float64(nOld)))
}
