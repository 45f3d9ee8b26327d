// Command bench measures the per-interaction cost of the three stepping
// kernels on the uniform-start k=32 workload at n ∈ {10⁴, 10⁶, 10⁸}, the
// small-n fleet regime, the Monte-Carlo trial throughput of the
// shared-arena trial engine, and the distributed coordinator, and writes
// the results to BENCH_core.json, giving future changes a perf trajectory
// to compare against. The report records the machine (CPU model, core
// count, GOMAXPROCS) so trajectories from different hosts are
// interpretable.
//
// All kernels run the same protocol per population size: the unbiased
// uniform configuration, an identical fixed interaction budget, and the
// same derived seeds; ns/interaction is total wall time over total
// simulated interactions (including skipped unproductive ones). The budget
// window covers the early no-bias phase, which is the exact kernel's
// densest regime (almost every interaction is productive) and the windowed
// kernels' weakest (windows ramp up from the all-decided start), so the
// reported speedups are conservative.
//
// The small-n fleet section is the regime the auto kernel exists for:
// full-consensus fleets at n ∈ {10³, 10⁴}, where windows never grow large
// enough for the chained-binomial batch to amortize. It reports consensus
// trials/sec per kernel and each windowed kernel's speedup over exact.
//
// The trial-throughput section runs the same tracked-trial fleet twice —
// once allocating a fresh simulator and tracker per trial (the pre-engine
// cost model) and once reusing one arena across all trials — and reports
// trials/sec for each plus the arena speedup, on the auto kernel (the
// fleet default). Both arms must produce byte-identical results; the
// benchmark fails otherwise.
//
// The adaptive-engine section compares sequential stopping against a
// fixed-count fleet held to the same CI-width target (±5% at 95%): the
// fixed arm must meet the target with its pre-provisioned count, and the
// adaptive arm must meet it with strictly fewer trials (recorded as
// trials_saved_frac in adaptive_engine).
//
// The dist-fleet section runs one consensus fleet through the distributed
// coordinator (internal/dist) in every arm: exec workers (this binary
// re-executed in worker mode) at 1, 2 and 4 shards, loopback members (the
// multi-host transport over /bin/sh) at 1 and 4, and the 4-shard exec arm
// with one worker killed mid-wave by the fault-injection harness
// (dist.FaultLauncher). Every arm runs under the same total core budget —
// GOMAXPROCS(0) cores partitioned across the workers — so
// parallel_efficiency (throughput against the 1-shard arm of the same
// launcher) prices what sharding costs rather than letting one worker
// saturate the machine alone. Every arm must fold the in-process engine's
// result sequence byte for byte, and the faulted arm must relaunch a
// worker; the benchmark fails otherwise. recovery_overhead is the faulted
// arm's wall over the undisturbed 4-shard arm's.
//
// Every gate is a ratio of two arms timed in the same round: auto over
// exact fleets at n = 10³ (at least 1×) and n = 10⁴ (at least 4×), and the
// 4-shard over the 1-shard arm for exec (at least 0.75) and loopback
// (at least 0.70). Each compared group runs once untimed, then fleetReps
// rounds that alternate which arm goes first, and the gate reads the
// median of the per-round ratios, so drift in host speed cancels. A full
// (non-quick) run fails if any gate is missed; -quick times one round and
// reports the gates without enforcing them.
//
// The report is written via a temp file and an atomic rename, so a failing
// section (or a crash mid-write) can never clobber the committed
// BENCH_core.json with a partial run.
//
// Usage:
//
//	bench                       # full run, writes BENCH_core.json
//	bench -quick                # one timed round per cell, no perf gates
//	bench -out path.json
//	bench -cpuprofile cpu.out   # pprof CPU profile of the whole run
//	bench -memprofile mem.out   # heap profile written at exit
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	usd "repro"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/u128"
)

// fleetReps is the number of timed rounds behind every gated ratio in a
// full run.
const fleetReps = 9

// Entry is one (n, kernel) measurement.
type Entry struct {
	N                int64   `json:"n"`
	K                int     `json:"k"`
	Kernel           string  `json:"kernel"`
	Tolerance        float64 `json:"tolerance,omitempty"`
	BudgetPerRun     int64   `json:"budget_interactions_per_run"`
	Runs             int     `json:"runs"`
	Interactions     int64   `json:"interactions_total"`
	WallNanos        int64   `json:"wall_ns_total"`
	NsPerInteraction float64 `json:"ns_per_interaction"`
	NsPerProductive  float64 `json:"ns_per_productive_event"`
	ProductiveEvents int64   `json:"productive_events_total"`
	ReachedConsensus int     `json:"runs_reaching_consensus"`
}

// AdaptiveEntry compares the sequential-stopping engine against a
// fixed-count baseline held to the same CI-width target: both arms must
// deliver a mean whose relative half-width (at CILevel) is at most
// RelTarget — the shared reporting requirement, against which each arm's
// actually-achieved width is recorded. The fixed arm models hand-tuned
// provisioning — a trial count chosen in advance, necessarily conservative
// so that every cell meets the target — while the adaptive arm stops at the
// first prefix of the same trial stream whose interval closes below the
// target. The benchmark errors unless the fixed arm meets the target and
// the adaptive arm meets it with strictly fewer trials — pinning the
// "self-budgeting beats hand-tuned" claim to a number (trials_saved_frac).
type AdaptiveEntry struct {
	Workload           string  `json:"workload"`
	N                  int64   `json:"n"`
	K                  int     `json:"k"`
	Kernel             string  `json:"kernel"`
	CILevel            float64 `json:"ci_level"`
	RelTarget          float64 `json:"ci_rel_target"`
	FixedTrials        int     `json:"fixed_trials"`
	FixedRelWidth      float64 `json:"fixed_ci_rel_width"`
	FixedWallNanos     int64   `json:"fixed_wall_ns"`
	AdaptiveTrials     int     `json:"adaptive_trials"`
	AdaptiveRelWidth   float64 `json:"adaptive_ci_rel_width"`
	AdaptiveWallNanos  int64   `json:"adaptive_wall_ns"`
	FixedTrialsPerS    float64 `json:"fixed_trials_per_sec"`
	AdaptiveTrialsPerS float64 `json:"adaptive_trials_per_sec"`
	TrialsSavedFrac    float64 `json:"trials_saved_frac"`
}

// TrialEntry is one trial-throughput measurement: the same Monte-Carlo
// fleet with and without arena reuse.
type TrialEntry struct {
	Workload        string  `json:"workload"`
	N               int64   `json:"n"`
	K               int     `json:"k"`
	Kernel          string  `json:"kernel"`
	Trials          int     `json:"trials"`
	BudgetPerTrial  int64   `json:"budget_interactions_per_trial"`
	FreshWallNanos  int64   `json:"fresh_wall_ns"`
	ArenaWallNanos  int64   `json:"arena_wall_ns"`
	FreshTrialsPerS float64 `json:"fresh_trials_per_sec"`
	ArenaTrialsPerS float64 `json:"arena_trials_per_sec"`
	ArenaSpeedup    float64 `json:"arena_speedup"`
	Identical       bool    `json:"results_identical"`
}

// DistFleetEntry is one coordinator arm of the dist-fleet section: the
// consensus fleet dispatched through dist.Run by one launcher at one shard
// count under a fixed total core budget, undisturbed or with an injected
// fault.
type DistFleetEntry struct {
	// Workload names the fleet.
	Workload string `json:"workload"`
	// N is the population size per trial.
	N int64 `json:"n"`
	// K is the opinion count.
	K int `json:"k"`
	// Kernel is the stepping kernel name.
	Kernel string `json:"kernel"`
	// Launcher is "exec" (worker processes) or "loopback" (the multi-host
	// transport with /bin/sh standing in for ssh).
	Launcher string `json:"launcher"`
	// Shards is the worker (member) count.
	Shards int `json:"shards"`
	// Fault names the injected failure mode; empty for an undisturbed arm.
	Fault string `json:"fault"`
	// Trials is the fleet size.
	Trials int `json:"trials"`
	// CoreBudget is the total CPU-core budget partitioned across the
	// workers.
	CoreBudget int `json:"core_budget"`
	// WallNanos is the coordinator wall time: the median over the timed
	// rounds for an undisturbed arm, the single timing of a faulted one.
	WallNanos int64 `json:"wall_ns"`
	// TrialsPerS is the folded-trial throughput at WallNanos.
	TrialsPerS float64 `json:"trials_per_sec"`
	// ParallelEfficiency is the median per-round throughput ratio of this
	// arm over the 1-shard arm of the same launcher (1 for that arm; 0 for
	// a faulted arm). At a fixed core budget the ideal is 1.
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	// RecoveryOverhead is a faulted arm's wall over the undisturbed arm's
	// at the same shard count: 1.0 means free recovery. 0 when undisturbed.
	RecoveryOverhead float64 `json:"recovery_overhead"`
	// Relaunches counts worker relaunches (at least 1 on a faulted arm, or
	// the fault never fired).
	Relaunches int `json:"relaunches"`
	// Requeued counts trial indices re-dispatched after worker failure.
	Requeued int `json:"requeued"`
	// Identical records that the folded sequence matched the in-process
	// engine's byte for byte.
	Identical bool `json:"results_identical"`
}

// FleetEntry is one small-n fleet measurement: a full-consensus Monte-Carlo
// fleet at small n under one kernel.
type FleetEntry struct {
	// Workload names the fleet.
	Workload string `json:"workload"`
	// N is the population size per trial.
	N int64 `json:"n"`
	// K is the opinion count.
	K int `json:"k"`
	// Kernel is the stepping kernel name.
	Kernel string `json:"kernel"`
	// Trials is the fleet size.
	Trials int `json:"trials"`
	// WallNanos is the median fleet wall time over the timed rounds.
	WallNanos int64 `json:"wall_ns"`
	// TrialsPerS is the consensus-trial throughput at WallNanos.
	TrialsPerS float64 `json:"trials_per_sec"`
	// SpeedupVsExact is the median per-round wall ratio of the exact
	// kernel's fleet over this one at the same n; 0 for the exact row
	// itself.
	SpeedupVsExact float64 `json:"speedup_vs_exact"`
}

// LargeNEntry is the beyond-int64-clock benchmark row: full consensus at
// n = 10^10, where the ordered-pair clock n² = 10²⁰ is ~10⁴ times past
// MaxInt64 and the 128-bit interaction clock is load-bearing end to end —
// in the simulator, the wire format, and the fingerprint fold.
type LargeNEntry struct {
	// Workload names the benchmark section.
	Workload string `json:"workload"`
	// N is the population size per trial.
	N int64 `json:"n"`
	// K is the opinion count.
	K int `json:"k"`
	// Kernel is the stepping kernel name.
	Kernel string `json:"kernel"`
	// Trials is the fleet size.
	Trials int `json:"trials"`
	// Interactions is the fleet's total consensus time in interactions,
	// in decimal: at this scale it exceeds both int64 and float64's exact
	// integer range, so the row records the full u128 value as a string.
	Interactions string `json:"interactions_total"`
	// WallNanos is the in-process fleet wall time.
	WallNanos int64 `json:"wall_ns"`
	// NsPerInteraction is wall time per simulated interaction.
	NsPerInteraction float64 `json:"ns_per_interaction"`
	// Identical reports whether the 1-, 2- and 4-shard coordinator arms all
	// folded exactly the in-process result sequence.
	Identical bool `json:"results_identical"`
}

// EnvInfo identifies the machine a report was produced on, so perf
// trajectories from different hosts are never compared as like for like.
type EnvInfo struct {
	// GoVersion is the toolchain that built the benchmark.
	GoVersion string `json:"go_version"`
	// GOOS and GOARCH name the platform.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// GOMAXPROCS is the scheduler's processor limit during the run.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the machine's logical core count.
	NumCPU int `json:"num_cpu"`
	// CPUModel is the processor model string (best effort; empty when the
	// platform does not expose it).
	CPUModel string `json:"cpu_model,omitempty"`
}

// Report is the BENCH_core.json schema.
type Report struct {
	Workload        string             `json:"workload"`
	Env             EnvInfo            `json:"env"`
	Entries         []Entry            `json:"entries"`
	Speedups        map[string]float64 `json:"batched_speedup_by_n"`
	AutoSpeedups    map[string]float64 `json:"auto_speedup_by_n"`
	FleetEntries    []FleetEntry       `json:"small_n_fleet"`
	TrialEntries    []TrialEntry       `json:"trial_throughput"`
	AdaptiveEntries []AdaptiveEntry    `json:"adaptive_engine"`
	DistFleet       []DistFleetEntry   `json:"dist_fleet"`
	LargeN          []LargeNEntry      `json:"large_n"`
}

// gate is one full-run regression bound on the median ratio of two
// interleaved arms.
type gate struct {
	name     string
	got, min float64
}

// cpuModel returns the processor model string on platforms that expose it
// (best effort: /proc/cpuinfo on Linux).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		out        = fs.String("out", "BENCH_core.json", "output path for the JSON report")
		quick      = fs.Bool("quick", false, "one timed round per cell; perf gates report instead of failing")
		seed       = fs.Uint64("seed", 1, "base random seed")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile at exit to this path")
		worker     = fs.String("shard-worker", "", "internal: serve as shard worker \"i/of\" over stdin/stdout (spawned by the dist-fleet and large-n sections)")
		workerPar  = fs.Int("shard-par", 1, "internal: worker-local trial parallelism of the -shard-worker mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *worker != "" {
		shard, of, err := dist.ParseShardArg(*worker)
		if err != nil {
			return err
		}
		// The worker-local pool is the coordinator's per-shard core share,
		// so the dist-fleet section holds total parallelism at the fixed
		// core budget regardless of the shard count.
		return experiment.ServeShard(os.Stdin, os.Stdout, shard, of, *workerPar)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			}
		}()
	}
	runs, reps := 3, fleetReps
	if *quick {
		runs, reps = 1, 1
	}

	const k = 32
	ns := []int64{10_000, 1_000_000, 100_000_000}
	kernels := []core.Kernel{core.KernelExact, core.KernelBatched(0), core.KernelAuto(0)}

	rep := Report{
		Workload: fmt.Sprintf("uniform start, k=%d, fixed interaction budget per n", k),
		Env: EnvInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			CPUModel:   cpuModel(),
		},
		Speedups:     map[string]float64{},
		AutoSpeedups: map[string]float64{},
	}
	fmt.Printf("env: %s %s/%s, GOMAXPROCS=%d, %d cores, %s\n",
		rep.Env.GoVersion, rep.Env.GOOS, rep.Env.GOARCH, rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.CPUModel)
	perNs := map[int64]map[string]float64{}
	for _, n := range ns {
		// ~40 parallel rounds of the no-bias early phase, capped so the
		// exact kernel's densest regime stays at sub-second cost per run.
		budget := 40 * n
		if budget > 4_000_000 {
			budget = 4_000_000
		}
		for _, kern := range kernels {
			e, err := measure(n, k, kern, budget, runs, *seed)
			if err != nil {
				return err
			}
			rep.Entries = append(rep.Entries, e)
			if perNs[n] == nil {
				perNs[n] = map[string]float64{}
			}
			perNs[n][e.Kernel] = e.NsPerInteraction
			fmt.Printf("n=%-12d kernel=%-14s %12.5f ns/interaction  (%d interactions in %v)\n",
				n, e.Kernel, e.NsPerInteraction, e.Interactions, time.Duration(e.WallNanos))
		}
		if exact, ok := perNs[n]["exact"]; ok {
			if batched, ok := perNs[n][core.KernelBatched(0).String()]; ok && batched > 0 {
				rep.Speedups[fmt.Sprintf("%d", n)] = exact / batched
			}
			if auto, ok := perNs[n][core.KernelAuto(0).String()]; ok && auto > 0 {
				rep.AutoSpeedups[fmt.Sprintf("%d", n)] = exact / auto
			}
		}
	}
	for _, n := range ns {
		nKey := fmt.Sprintf("%d", n)
		fmt.Printf("n=%-12s batched speedup: %6.1fx   auto speedup: %6.1fx\n",
			nKey, rep.Speedups[nKey], rep.AutoSpeedups[nKey])
	}

	fleet, err := measureSmallNFleet(k, *quick, reps, *seed)
	if err != nil {
		return err
	}
	rep.FleetEntries = fleet
	for _, fe := range fleet {
		fmt.Printf("%-16s n=%-9d kernel=%-14s trials=%-4d %8.1f trials/s  speedup vs exact %.2fx\n",
			fe.Workload, fe.N, fe.Kernel, fe.Trials, fe.TrialsPerS, fe.SpeedupVsExact)
	}

	trialCells := []struct {
		workload string
		n        int64
		trials   int
		budget   int64
	}{
		// Dispatch-bound fleet: a one-interaction budget isolates the
		// per-trial engine overhead that arena reuse removes.
		{"trial-dispatch", 1_000_000, 1000, 1},
		// Simulation-bound fleet: full consensus runs at small n, where
		// per-trial setup is negligible next to the simulation itself.
		{"trial-consensus", 10_000, 200, 0},
	}
	if *quick {
		trialCells[1].trials = 20
	}
	for _, c := range trialCells {
		te, err := measureTrials(c.workload, c.n, k, core.KernelAuto(0), c.trials, c.budget, *seed)
		if err != nil {
			return err
		}
		rep.TrialEntries = append(rep.TrialEntries, te)
		fmt.Printf("%-16s n=%-9d trials=%-5d budget=%-8d fresh %10.0f trials/s, arena %10.0f trials/s, speedup %.1fx\n",
			te.Workload, te.N, te.Trials, te.BudgetPerTrial, te.FreshTrialsPerS, te.ArenaTrialsPerS, te.ArenaSpeedup)
	}

	ae, err := measureAdaptive("adaptive-vs-fixed", 10_000, k, core.KernelAuto(0), 48, 0.05, *seed)
	if err != nil {
		return err
	}
	rep.AdaptiveEntries = append(rep.AdaptiveEntries, ae)
	fmt.Printf("%-16s n=%-9d target ±%.0f%%: fixed %d trials → ±%.2f%%, adaptive %d trials → ±%.2f%% (%.0f%% saved)\n",
		ae.Workload, ae.N, 100*ae.RelTarget, ae.FixedTrials, 100*ae.FixedRelWidth,
		ae.AdaptiveTrials, 100*ae.AdaptiveRelWidth, 100*ae.TrialsSavedFrac)

	distTrials := 96
	if *quick {
		distTrials = 16
	}
	df, err := newFleet(10_000, k, core.KernelAuto(0), distTrials, *seed)
	if err != nil {
		return err
	}
	rep.DistFleet, err = measureDistFleet(df, reps)
	if err != nil {
		return err
	}
	for _, de := range rep.DistFleet {
		fmt.Printf("%-16s n=%-9d trials=%-5d %-8s shards=%d cores=%d fault=%-14q %8.0f trials/s  efficiency %.2f  overhead %.2fx  relaunches=%d requeued=%d  identical=%v\n",
			de.Workload, de.N, de.Trials, de.Launcher, de.Shards, de.CoreBudget, de.Fault, de.TrialsPerS,
			de.ParallelEfficiency, de.RecoveryOverhead, de.Relaunches, de.Requeued, de.Identical)
	}

	// The beyond-int64-clock row (128-bit interaction clocks): n = 10^10
	// consensus under the auto kernel, byte-identical across 1, 2, and 4
	// shards. It runs in quick mode too — bench-smoke is its CI gate.
	lne, err := measureLargeN("large-n-consensus", 10_000_000_000, 2, core.KernelAuto(0), 2, *seed)
	if err != nil {
		return err
	}
	rep.LargeN = append(rep.LargeN, lne)
	// A run to consensus at this n takes milliseconds at ~10⁻⁶ ns per
	// interaction, so fixed-point seconds and ns would both print zeros.
	fmt.Printf("%-16s n=%-11d trials=%-3d kernel=%-14s wall %v  %.3g ns/interaction  total=%s  identical=%v\n",
		lne.Workload, lne.N, lne.Trials, lne.Kernel, time.Duration(lne.WallNanos),
		lne.NsPerInteraction, lne.Interactions, lne.Identical)

	// The regression gates, each on a median ratio of interleaved arms.
	// Small n: auto must hold 4x over exact at n = 1e4 and must not fall
	// behind exact at n = 1e3, where windows stay near a dozen events and
	// per-window setup decides the race. Sharding: at a fixed total core
	// budget, 4 exec shards keep at least 0.75 of the 1-shard throughput,
	// and 4 loopback members at least 0.70 — the transport may cost a few
	// points over plain process sharding.
	var gates []gate
	autoGate := map[int64]float64{1_000: 1.0, 10_000: 4.0}
	for _, fe := range rep.FleetEntries {
		if fe.Kernel == core.KernelAuto(0).String() {
			gates = append(gates, gate{fmt.Sprintf("auto/exact fleet n=%d", fe.N), fe.SpeedupVsExact, autoGate[fe.N]})
		}
	}
	shardGate := map[string]float64{"exec": 0.75, "loopback": 0.70}
	for _, de := range rep.DistFleet {
		if de.Shards == 4 && de.Fault == "" {
			gates = append(gates, gate{de.Launcher + " 4/1-shard efficiency", de.ParallelEfficiency, shardGate[de.Launcher]})
		}
	}
	missed := 0
	for _, g := range gates {
		verdict := "ok"
		if g.got < g.min {
			verdict, missed = "MISSED", missed+1
		}
		fmt.Printf("gate %-30s median %.2f over %d rounds (min %.2f) %s\n", g.name, g.got, reps, g.min, verdict)
	}
	if missed > 0 && !*quick {
		return fmt.Errorf("bench: %d of %d gates missed", missed, len(gates))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	// Atomic replacement: a partial or failed run must never clobber the
	// committed perf trajectory.
	if err := dist.WriteFileAtomic(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// interleave times a group of arms that gates compare: every arm once
// untimed to warm up, then reps rounds that run every arm, in forward
// order on even rounds and reverse order on odd ones, so no arm always
// goes first. It returns each arm's median wall time and, per arm, the
// median over rounds of arm 0's wall divided by that arm's — a speedup or
// efficiency whose two sides ran in the same round, so drift in host
// speed between rounds cancels.
func interleave(reps int, arms []func() (time.Duration, error)) ([]time.Duration, []float64, error) {
	for _, arm := range arms {
		if _, err := arm(); err != nil {
			return nil, nil, err
		}
	}
	walls := make([][]float64, len(arms)) // walls[arm][round]
	for r := 0; r < reps; r++ {
		for j := range arms {
			i := j
			if r%2 == 1 {
				i = len(arms) - 1 - j
			}
			w, err := arms[i]()
			if err != nil {
				return nil, nil, err
			}
			walls[i] = append(walls[i], float64(w))
		}
	}
	median := func(xs []float64) float64 {
		m, _ := stats.Quantile(xs, 0.5) // errors only on an empty slice; reps >= 1
		return m
	}
	wall := make([]time.Duration, len(arms))
	ratio := make([]float64, len(arms))
	for i := range arms {
		wall[i] = time.Duration(median(walls[i]))
		rs := make([]float64, reps)
		for r := range rs {
			rs[r] = walls[0][r] / walls[i][r]
		}
		ratio[i] = median(rs)
	}
	return wall, ratio, nil
}

// measureSmallNFleet times full-consensus fleets at small n under every
// kernel — the regime where per-trial and per-window overhead, not
// per-interaction asymptotics, bound fleet throughput — interleaved per n,
// and reports each windowed kernel's median speedup over exact.
func measureSmallNFleet(k int, quick bool, reps int, seed uint64) ([]FleetEntry, error) {
	kernels := []core.Kernel{core.KernelExact, core.KernelBatched(0), core.KernelAuto(0)}
	var entries []FleetEntry
	for _, c := range []struct {
		n      int64
		trials int
	}{{1_000, 200}, {10_000, 48}} {
		if quick {
			c.trials = 6
		}
		arms := make([]func() (time.Duration, error), len(kernels))
		for i, kern := range kernels {
			arms[i] = func() (time.Duration, error) {
				f, err := newFleet(c.n, k, kern, c.trials, seed)
				if err != nil {
					return 0, err
				}
				return f.wall, nil
			}
		}
		walls, ratios, err := interleave(reps, arms)
		if err != nil {
			return nil, err
		}
		for i, kern := range kernels {
			fe := FleetEntry{
				Workload:   "small-n-consensus",
				N:          c.n,
				K:          k,
				Kernel:     kern.String(),
				Trials:     c.trials,
				WallNanos:  walls[i].Nanoseconds(),
				TrialsPerS: float64(c.trials) / walls[i].Seconds(),
			}
			if i > 0 {
				fe.SpeedupVsExact = ratios[i]
			}
			entries = append(entries, fe)
		}
	}
	return entries, nil
}

// fleet is one consensus fleet, run once in-process at construction: want
// is the fingerprint of that run's folded result sequence, which every
// coordinator arm must reproduce, and wall, total and consensus describe
// the run.
type fleet struct {
	cfg    *conf.Config
	kern   core.Kernel
	trials int
	seed   uint64
	spec   []byte
	want   string

	wall      time.Duration
	total     u128.U128
	consensus int
}

// newFleet builds the fleet's shard spec and runs its in-process
// reference at parallelism 1.
func newFleet(n int64, k int, kern core.Kernel, trials int, seed uint64) (*fleet, error) {
	cfg, err := conf.Uniform(n, k, 0)
	if err != nil {
		return nil, err
	}
	spec, err := experiment.NewShardSpec(cfg, core.Variant{}, kern, core.NoBudget, 0, false).Encode()
	if err != nil {
		return nil, err
	}
	f := &fleet{cfg: cfg, kern: kern, trials: trials, seed: seed, spec: spec}
	h := sha256.New()
	start := time.Now()
	experiment.Stream(trials, 1, seed, func(i int, src *rng.Source, a *experiment.Arena) core.Result {
		s, err := a.Simulator(cfg, src, core.WithKernel(kern))
		if err != nil {
			panic(err) // configuration validated above
		}
		return s.Run(core.NoBudget)
	}, func(i int, r core.Result) {
		shardFingerprint(h, i, r.Interactions, r.Winner)
		f.total = f.total.Add(r.Interactions)
		if r.Outcome == core.OutcomeConsensus {
			f.consensus++
		}
	})
	f.wall = time.Since(start)
	f.want = fmt.Sprintf("%x", h.Sum(nil))
	return f, nil
}

// shardFingerprint folds one trial outcome into an order-sensitive
// fingerprint; two fold paths agreeing on the final digest folded identical
// sequences.
func shardFingerprint(h io.Writer, i int, interactions u128.U128, winner int) {
	fmt.Fprintf(h, "%d:%d.%d:%d;", i, interactions.Hi, interactions.Lo, winner)
}

// arm runs the fleet through the distributed coordinator with the given
// launcher and shard count and returns the coordinator's wall time. It
// errors if the run fails or its fold diverges from the in-process
// reference.
func (f *fleet) arm(launcher dist.Launcher, shards int) (time.Duration, dist.Result, error) {
	h := sha256.New()
	start := time.Now()
	res, err := dist.Run(dist.Options{
		Shards:          shards,
		MaxTrials:       f.trials,
		Seed:            f.seed,
		Spec:            f.spec,
		Launcher:        launcher,
		WorkerTimeout:   time.Minute,
		RelaunchBackoff: time.Millisecond,
		Log:             io.Discard,
	}, func(i int, data []byte) error {
		var r experiment.ShardResult
		if err := r.UnmarshalJSON(data); err != nil {
			return err
		}
		shardFingerprint(h, i, r.Interactions(), r.Winner)
		return nil
	}, nil, nil)
	wall := time.Since(start)
	if err != nil {
		return wall, res, fmt.Errorf("%d-shard arm: %w", shards, err)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != f.want {
		return wall, res, fmt.Errorf("%d-shard arm folded fingerprint %s, want in-process %s", shards, got, f.want)
	}
	return wall, res, nil
}

// execLauncher re-executes this binary as shard workers under a total
// core budget: GOMAXPROCS (dist.ExecLauncher.CoreBudget) and a matching
// worker-local trial parallelism partition it across the workers.
func execLauncher(budget int) *dist.ExecLauncher {
	return &dist.ExecLauncher{
		Args: func(shard, shards int) []string {
			return []string{
				"-shard-worker", dist.ShardArg(shard, shards),
				"-shard-par", strconv.Itoa(dist.CoreShare(budget, shard, shards)),
			}
		},
		CoreBudget: budget,
	}
}

// measureDistFleet runs the fleet through the coordinator: exec workers at
// 1, 2 and 4 shards and loopback members at 1 and 4, each launcher's arms
// interleaved, then the 4-shard exec arm with one worker killed mid-wave,
// which must relaunch it and still fold the reference sequence.
func measureDistFleet(f *fleet, reps int) ([]DistFleetEntry, error) {
	budget := runtime.GOMAXPROCS(0)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	row := func(launcher string, shards int, wall time.Duration) DistFleetEntry {
		return DistFleetEntry{
			Workload:   "dist-fleet",
			N:          f.cfg.N(),
			K:          f.cfg.K(),
			Kernel:     f.kern.String(),
			Launcher:   launcher,
			Shards:     shards,
			Trials:     f.trials,
			CoreBudget: budget,
			WallNanos:  wall.Nanoseconds(),
			TrialsPerS: float64(f.trials) / wall.Seconds(),
			Identical:  true,
		}
	}
	groups := []struct {
		name     string
		launcher dist.Launcher
		shards   []int
	}{
		{"exec", execLauncher(budget), []int{1, 2, 4}},
		// The {cores} placeholder partitions the budget across members:
		// GOMAXPROCS caps the worker runtime, -shard-par its trial pool.
		{"loopback", &dist.RemoteLauncher{
			Command: dist.LoopbackCommand(
				"GOMAXPROCS={cores} " + exe + " -shard-worker {shard}/{shards} -shard-par {cores}"),
			CoreBudget: budget,
		}, []int{1, 4}},
	}
	var rows []DistFleetEntry
	var clean time.Duration // the undisturbed 4-shard exec arm
	for _, g := range groups {
		arms := make([]func() (time.Duration, error), len(g.shards))
		for i, shards := range g.shards {
			arms[i] = func() (time.Duration, error) {
				wall, _, err := f.arm(g.launcher, shards)
				return wall, err
			}
		}
		walls, ratios, err := interleave(reps, arms)
		if err != nil {
			return rows, fmt.Errorf("bench: %s fleet: %w", g.name, err)
		}
		for i, shards := range g.shards {
			r := row(g.name, shards, walls[i])
			r.ParallelEfficiency = ratios[i]
			rows = append(rows, r)
		}
		if g.name == "exec" {
			clean = walls[len(walls)-1]
		}
	}

	fault := dist.Fault{Shard: 1, Kind: dist.FaultCrashMidWave, After: 2}
	wall, res, err := f.arm(&dist.FaultLauncher{Inner: execLauncher(budget), Schedule: []dist.Fault{fault}}, 4)
	if err != nil {
		return rows, fmt.Errorf("bench: faulted fleet: %w", err)
	}
	if res.Relaunches < 1 {
		return rows, fmt.Errorf("bench: faulted fleet relaunched no worker; the injected fault never fired")
	}
	r := row("exec", 4, wall)
	r.Fault = fault.Kind.String()
	r.RecoveryOverhead = float64(wall) / float64(clean)
	r.Relaunches, r.Requeued = res.Relaunches, res.Requeued
	return append(rows, r), nil
}

// measureLargeN prices the beyond-int64-clock regime: a small fleet of
// full consensus runs at n = 10^10 under the auto kernel, reported as
// consensus wall-clock and ns per simulated interaction, then the same
// fleet re-run through the distributed coordinator at 1, 2, and 4 shards.
// Every arm must fold identical result sequences (results_identical, the
// field bench-smoke greps) — the determinism gate for populations whose
// interaction clock no longer fits int64.
func measureLargeN(workload string, n int64, k int, kern core.Kernel, trials int, seed uint64) (LargeNEntry, error) {
	f, err := newFleet(n, k, kern, trials, seed)
	if err != nil {
		return LargeNEntry{}, err
	}
	le := LargeNEntry{
		Workload:     workload,
		N:            n,
		K:            k,
		Kernel:       kern.String(),
		Trials:       trials,
		Interactions: f.total.String(),
		WallNanos:    f.wall.Nanoseconds(),
	}
	if f.consensus != trials {
		return le, fmt.Errorf("bench: only %d/%d large-n trials reached consensus", f.consensus, trials)
	}
	if t := f.total.Float64(); t > 0 {
		le.NsPerInteraction = float64(le.WallNanos) / t
	}
	for _, shards := range []int{1, 2, 4} {
		if _, _, err := f.arm(execLauncher(runtime.GOMAXPROCS(0)), shards); err != nil {
			return le, fmt.Errorf("bench: large-n %w", err)
		}
	}
	le.Identical = true
	return le, nil
}

// measureAdaptive runs both arms of the adaptive-vs-fixed comparison
// against the shared ±relTarget reporting requirement. Both arms consume
// the same seed-per-trial-index stream, so the adaptive arm folds a strict
// prefix of the fixed arm's trials; it must meet the target with strictly
// fewer trials (and the fixed arm must meet it at all, i.e. be genuinely
// provisioned rather than under-resolved) or the benchmark fails.
func measureAdaptive(workload string, n int64, k int, kern core.Kernel, fixedTrials int, relTarget float64, seed uint64) (AdaptiveEntry, error) {
	cfg, err := conf.Uniform(n, k, 0)
	if err != nil {
		return AdaptiveEntry{}, err
	}
	const level = experiment.DefaultCILevel
	ae := AdaptiveEntry{
		Workload:    workload,
		N:           n,
		K:           k,
		Kernel:      kern.String(),
		CILevel:     level,
		RelTarget:   relTarget,
		FixedTrials: fixedTrials,
	}
	trial := func(i int, src *rng.Source, a *experiment.Arena) float64 {
		s, err := a.Simulator(cfg, src, core.WithKernel(kern))
		if err != nil {
			panic(err) // configuration validated above
		}
		return s.Run(core.NoBudget).Interactions.Float64()
	}

	var fixed stats.Online
	start := time.Now()
	experiment.Stream(fixedTrials, 1, seed, trial,
		func(_ int, t float64) { fixed.Add(t) })
	ae.FixedWallNanos = time.Since(start).Nanoseconds()
	ae.FixedRelWidth = stats.StudentTCI(&fixed, level).Rel()

	metric := experiment.NewAdaptiveMetric("consensus T",
		experiment.ConsensusRule(relTarget, fixedTrials))
	start = time.Now()
	res := experiment.StreamAdaptive(
		experiment.AdaptiveOptions{MaxTrials: fixedTrials, Parallelism: 1, Seed: seed},
		trial,
		func(_ int, t float64) { metric.Add(t) },
		experiment.StopWhenAll(metric))
	ae.AdaptiveWallNanos = time.Since(start).Nanoseconds()
	ae.AdaptiveTrials = res.Trials
	ae.AdaptiveRelWidth = stats.StudentTCI(&metric.Online, level).Rel()
	ae.FixedTrialsPerS = float64(fixedTrials) / (float64(ae.FixedWallNanos) / 1e9)
	ae.AdaptiveTrialsPerS = float64(res.Trials) / (float64(ae.AdaptiveWallNanos) / 1e9)
	ae.TrialsSavedFrac = 1 - float64(res.Trials)/float64(fixedTrials)
	if ae.FixedRelWidth > relTarget {
		return ae, fmt.Errorf("bench: fixed baseline of %d trials misses the ±%.1f%% target (achieved ±%.2f%%); raise the baseline",
			fixedTrials, 100*relTarget, 100*ae.FixedRelWidth)
	}
	if !res.Stopped || res.Trials >= fixedTrials {
		return ae, fmt.Errorf("bench: adaptive engine used %d/%d trials to reach rel width %.4f (target %.4f); expected strictly fewer",
			res.Trials, fixedTrials, ae.AdaptiveRelWidth, relTarget)
	}
	return ae, nil
}

// measureTrials times the same tracked Monte-Carlo fleet twice through the
// trial engine — allocating per trial versus reusing one arena — at
// parallelism 1 so the wall-clock difference is exactly the per-trial
// setup cost. Both arms must produce identical results; Identical records
// the check and the benchmark errors if it fails.
func measureTrials(workload string, n int64, k int, kern core.Kernel, trials int, budget int64, seed uint64) (TrialEntry, error) {
	cfg, err := conf.Uniform(n, k, 0)
	if err != nil {
		return TrialEntry{}, err
	}
	te := TrialEntry{
		Workload:       workload,
		N:              n,
		K:              k,
		Kernel:         kern.String(),
		Trials:         trials,
		BudgetPerTrial: budget,
	}

	runFleet := func(useArena bool) ([]experiment.USDRun, int64, error) {
		var firstErr error
		start := time.Now()
		runs := make([]experiment.USDRun, trials)
		experiment.Stream(trials, 1, seed, func(i int, src *rng.Source, a *experiment.Arena) experiment.USDRun {
			if !useArena {
				// Pre-engine cost model: a fresh source, simulator, and
				// tracker per trial. rng.New(Derive(seed, i)) is the exact
				// state of the engine-reseeded src, so both arms simulate
				// identical trials.
				a = nil
				src = rng.New(rng.Derive(seed, uint64(i)))
			}
			r, err := experiment.RunTracked(a, cfg, src, u128.From64(budget), 0, kern)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			return r
		}, func(i int, r experiment.USDRun) { runs[i] = r })
		return runs, time.Since(start).Nanoseconds(), firstErr
	}

	freshRuns, freshNs, err := runFleet(false)
	if err != nil {
		return TrialEntry{}, err
	}
	arenaRuns, arenaNs, err := runFleet(true)
	if err != nil {
		return TrialEntry{}, err
	}
	te.FreshWallNanos, te.ArenaWallNanos = freshNs, arenaNs
	te.FreshTrialsPerS = float64(trials) / (float64(freshNs) / 1e9)
	te.ArenaTrialsPerS = float64(trials) / (float64(arenaNs) / 1e9)
	if arenaNs > 0 {
		te.ArenaSpeedup = float64(freshNs) / float64(arenaNs)
	}
	te.Identical = true
	for i := range freshRuns {
		if freshRuns[i] != arenaRuns[i] {
			te.Identical = false
			return te, fmt.Errorf("bench: trial %d diverged between fresh and arena arms", i)
		}
	}
	return te, nil
}

// measure times `runs` budgeted runs of the kernel and aggregates them.
func measure(n int64, k int, kern core.Kernel, budget int64, runs int, seed uint64) (Entry, error) {
	cfg, err := conf.Uniform(n, k, 0)
	if err != nil {
		return Entry{}, err
	}
	e := Entry{
		N:            n,
		K:            k,
		Kernel:       kern.String(),
		Tolerance:    kern.Tolerance(),
		BudgetPerRun: budget,
		Runs:         runs,
	}
	for i := 0; i < runs; i++ {
		s, err := core.New(cfg, rng.New(rng.Derive(seed, uint64(i))), core.WithKernel(kern))
		if err != nil {
			return Entry{}, err
		}
		var productive int64
		start := time.Now()
		res := s.RunObserved(u128.From64(budget), func(_ *core.Simulator, ev core.Event) {
			productive += ev.Count
		})
		e.WallNanos += time.Since(start).Nanoseconds()
		// Budgeted sections cap each run at a few million interactions, so
		// the int64 total is exact; only the large_n row needs a u128 form.
		e.Interactions += int64(res.Interactions.Lo)
		e.ProductiveEvents += productive
		if res.Outcome == usd.OutcomeConsensus {
			e.ReachedConsensus++
		}
	}
	if e.Interactions > 0 {
		e.NsPerInteraction = float64(e.WallNanos) / float64(e.Interactions)
	}
	if e.ProductiveEvents > 0 {
		e.NsPerProductive = float64(e.WallNanos) / float64(e.ProductiveEvents)
	}
	return e, nil
}
