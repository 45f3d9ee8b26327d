// Command bench measures the per-interaction cost of the three stepping
// kernels on the uniform-start k=32 workload at n ∈ {10⁴, 10⁶, 10⁸}, the
// small-n fleet regime, and the Monte-Carlo trial throughput of the
// shared-arena trial engine, and writes the results to BENCH_core.json,
// giving future changes a perf trajectory to compare against. The report
// records the machine (CPU model, core count, GOMAXPROCS) so trajectories
// from different hosts are interpretable.
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
// trials/sec per kernel and each windowed kernel's speedup over exact; a
// full (non-quick) run fails unless the auto kernel reaches 4× over exact
// at n = 10⁴ and at least parity with exact at n = 10³ — the regression
// gates for the small-n hot path.
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
// The shard-throughput section runs the same consensus fleet through the
// distributed coordinator (internal/dist) at 1, 2, and 4 worker processes
// under a fixed total core budget: GOMAXPROCS(0) cores are partitioned
// across the workers (dist.ExecLauncher.CoreBudget plus a matching
// worker-local trial parallelism), so every shard count competes for the
// same hardware and the 1-shard baseline cannot win by quietly saturating
// all cores in-process — the methodology flaw the earlier shard section
// had. It reports trials/sec and parallel_efficiency per shard count
// (throughput relative to the 1-shard arm at the same core budget); a full
// run fails if 4-shard efficiency drops below 0.75. Every arm must fold a
// result sequence identical to the in-process engine's; the benchmark
// fails otherwise.
//
// The fault-recovery section prices the coordinator's fault tolerance: the
// same sharded fleet runs undisturbed and with one worker killed mid-wave
// by the deterministic fault-injection harness (dist.FaultLauncher). The
// faulted arm must relaunch the worker, requeue its unfinished trials, and
// fold the byte-identical result sequence; the recorded recovery_overhead
// is the wall-clock ratio of the two arms.
//
// The report is written via a temp file and an atomic rename, so a failing
// section (or a crash mid-write) can never clobber the committed
// BENCH_core.json with a partial run.
//
// Usage:
//
//	bench                       # full run, writes BENCH_core.json
//	bench -quick                # single repetition per cell, no perf gates
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

// Entry is one (n, kernel) measurement.
type Entry struct {
	N                 int64   `json:"n"`
	K                 int     `json:"k"`
	Kernel            string  `json:"kernel"`
	Tolerance         float64 `json:"tolerance,omitempty"`
	BudgetPerRun      int64   `json:"budget_interactions_per_run"`
	Runs              int     `json:"runs"`
	Interactions      int64   `json:"interactions_total"`
	WallNanos         int64   `json:"wall_ns_total"`
	NsPerInteraction  float64 `json:"ns_per_interaction"`
	NsPerProductive   float64 `json:"ns_per_productive_event"`
	ProductiveEvents  int64   `json:"productive_events_total"`
	ReachedConsensus  int     `json:"runs_reaching_consensus"`
	InteractionsPerNs float64 `json:"interactions_per_ns"`
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

// ShardEntry is one shard-throughput measurement: the same consensus fleet
// dispatched through the distributed coordinator at a given worker-process
// count, under a fixed total core budget.
type ShardEntry struct {
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
	// Shards is the worker-process count.
	Shards int `json:"shards"`
	// CoreBudget is the total CPU-core budget partitioned across the
	// workers (GOMAXPROCS of this shard count's whole arm).
	CoreBudget int `json:"core_budget"`
	// WallNanos is the end-to-end coordinator wall time.
	WallNanos int64 `json:"wall_ns"`
	// TrialsPerS is the folded-trial throughput.
	TrialsPerS float64 `json:"trials_per_sec"`
	// SpeedupVs1Shard is wall(1 shard)/wall(this), 0 for the 1-shard row.
	SpeedupVs1Shard float64 `json:"speedup_vs_1shard"`
	// ParallelEfficiency is this arm's throughput relative to the 1-shard
	// arm at the same total core budget: the honest cost of process-level
	// sharding. 0 for the 1-shard row.
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	// Identical records that the folded sequence matched the in-process
	// engine's byte for byte.
	Identical bool `json:"results_identical"`
}

// FaultRecoveryEntry measures what the coordinator's fault tolerance costs:
// the same sharded consensus fleet run twice, once undisturbed and once with
// one worker killed mid-wave by the deterministic fault-injection harness
// (dist.FaultLauncher). The faulted arm must relaunch the worker, requeue its
// unfinished trials, and still fold the byte-identical result sequence; the
// benchmark errors otherwise. RecoveryOverhead is the wall-clock price of
// the detour (faulted wall over clean wall).
type FaultRecoveryEntry struct {
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
	// Shards is the worker-process count of both arms.
	Shards int `json:"shards"`
	// FaultKind names the injected failure mode.
	FaultKind string `json:"fault_kind"`
	// FaultShard is the shard whose first worker incarnation is killed.
	FaultShard int `json:"fault_shard"`
	// CleanWallNanos is the undisturbed arm's coordinator wall time.
	CleanWallNanos int64 `json:"clean_wall_ns"`
	// FaultWallNanos is the faulted arm's coordinator wall time.
	FaultWallNanos int64 `json:"fault_wall_ns"`
	// CleanTrialsPerS is the undisturbed arm's folded-trial throughput.
	CleanTrialsPerS float64 `json:"clean_trials_per_sec"`
	// FaultTrialsPerS is the faulted arm's folded-trial throughput.
	FaultTrialsPerS float64 `json:"fault_trials_per_sec"`
	// RecoveryOverhead is fault wall over clean wall: 1.0 means free
	// recovery, 2.0 means the fault doubled the run.
	RecoveryOverhead float64 `json:"recovery_overhead"`
	// Relaunches counts worker relaunches in the faulted arm (at least 1, or
	// the fault never fired).
	Relaunches int `json:"relaunches"`
	// Requeued counts trial indices re-dispatched after worker failure.
	Requeued int `json:"requeued"`
	// Identical records that both arms folded the in-process engine's exact
	// result sequence.
	Identical bool `json:"results_identical"`
}

// RemoteFleetEntry is one cross-host fleet measurement: the same consensus
// fleet dispatched through the full multi-host transport path — template
// expansion, a transport process per member, frame/write deadline guards —
// with /bin/sh as the loopback stand-in for ssh, so the section runs on any
// machine. An sshd-backed fleet differs only in the command template.
type RemoteFleetEntry struct {
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
	// Members is the fleet's member (worker transport) count.
	Members int `json:"members"`
	// CoreBudget is the total core budget the {cores} template placeholder
	// partitions across members.
	CoreBudget int `json:"core_budget"`
	// WallNanos is the end-to-end coordinator wall time.
	WallNanos int64 `json:"wall_ns"`
	// TrialsPerS is the folded-trial throughput.
	TrialsPerS float64 `json:"trials_per_sec"`
	// SpeedupVs1Member is wall(1 member)/wall(this), 0 for the 1-member row.
	SpeedupVs1Member float64 `json:"speedup_vs_1member"`
	// ParallelEfficiency is this arm's throughput relative to the 1-member
	// arm at the same total core budget: what the cross-host transport and
	// spreading the fleet over members cost. 0 for the 1-member row.
	ParallelEfficiency float64 `json:"parallel_efficiency"`
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
	// WallNanos is the fleet wall time.
	WallNanos int64 `json:"wall_ns"`
	// TrialsPerS is the consensus-trial throughput.
	TrialsPerS float64 `json:"trials_per_sec"`
	// SpeedupVsExact is trials/sec over the exact kernel's at the same n;
	// 0 for the exact row itself.
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
	Workload        string               `json:"workload"`
	GoVersion       string               `json:"go_version"`
	Env             EnvInfo              `json:"env"`
	Entries         []Entry              `json:"entries"`
	Speedups        map[string]float64   `json:"batched_speedup_by_n"`
	AutoSpeedups    map[string]float64   `json:"auto_speedup_by_n"`
	FleetEntries    []FleetEntry         `json:"small_n_fleet"`
	TrialEntries    []TrialEntry         `json:"trial_throughput"`
	AdaptiveEntries []AdaptiveEntry      `json:"adaptive_engine"`
	ShardEntries    []ShardEntry         `json:"shard_throughput"`
	FaultRecovery   []FaultRecoveryEntry `json:"fault_recovery"`
	RemoteFleet     []RemoteFleetEntry   `json:"remote_fleet"`
	LargeN          []LargeNEntry        `json:"large_n"`
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
		quick      = fs.Bool("quick", false, "single repetition per cell; perf gates report instead of failing")
		seed       = fs.Uint64("seed", 1, "base random seed")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile at exit to this path")
		worker     = fs.String("shard-worker", "", "internal: serve as shard worker \"i/of\" over stdin/stdout (spawned by the shard-throughput section)")
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
		// so the shard-throughput section holds total parallelism at the
		// fixed core budget regardless of the shard count.
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
	runs := 3
	if *quick {
		runs = 1
	}

	const k = 32
	ns := []int64{10_000, 1_000_000, 100_000_000}
	kernels := []core.Kernel{core.KernelExact, core.KernelBatched(0), core.KernelAuto(0)}

	rep := Report{
		Workload:  fmt.Sprintf("uniform start, k=%d, fixed interaction budget per n", k),
		GoVersion: runtime.Version(),
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

	fleet, err := measureSmallNFleet(k, *quick, *seed)
	if err != nil {
		return err
	}
	rep.FleetEntries = fleet
	for _, fe := range fleet {
		fmt.Printf("%-16s n=%-9d kernel=%-14s trials=%-4d %8.1f trials/s  speedup vs exact %.1fx\n",
			fe.Workload, fe.N, fe.Kernel, fe.Trials, fe.TrialsPerS, fe.SpeedupVsExact)
	}
	if !*quick {
		// The small-n regression gates of the auto kernel: the fleet regime
		// must hold at least 4x over exact at n = 1e4, and auto must not
		// fall behind exact at n = 1e3, where windows stay near a dozen
		// events and per-window setup decides the race.
		gates := map[int64]float64{1_000: 1.0, 10_000: 4.0}
		for _, fe := range fleet {
			gate, ok := gates[fe.N]
			if ok && fe.Kernel == core.KernelAuto(0).String() && fe.SpeedupVsExact < gate {
				return fmt.Errorf("bench: auto kernel reaches only %.2fx over exact at n=%d (gate %.1fx)",
					fe.SpeedupVsExact, fe.N, gate)
			}
		}
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

	shardTrials := 96
	if *quick {
		shardTrials = 16
	}
	ses, err := measureShards("shard-consensus", 10_000, k, core.KernelAuto(0), shardTrials, *seed)
	if err != nil {
		return err
	}
	rep.ShardEntries = ses
	for _, se := range ses {
		fmt.Printf("%-16s n=%-9d trials=%-5d shards=%d cores=%d  %8.0f trials/s  speedup vs 1 shard %.2fx  efficiency %.2f  identical=%v\n",
			se.Workload, se.N, se.Trials, se.Shards, se.CoreBudget, se.TrialsPerS, se.SpeedupVs1Shard, se.ParallelEfficiency, se.Identical)
	}
	if !*quick {
		// The sharding regression gate (ISSUE 5): at a fixed total core
		// budget, 4-shard efficiency at or above 0.75 — process sharding
		// must cost at most a quarter of the hardware.
		const gate = 0.75
		for _, se := range ses {
			if se.Shards == 4 && se.ParallelEfficiency < gate {
				return fmt.Errorf("bench: 4-shard parallel efficiency %.2f under the fixed core budget (gate %.2f)",
					se.ParallelEfficiency, gate)
			}
		}
	}

	rfe, err := measureRemoteFleet("remote-fleet", 10_000, k, core.KernelAuto(0), shardTrials, *seed)
	if err != nil {
		return err
	}
	rep.RemoteFleet = rfe
	for _, fe := range rfe {
		fmt.Printf("%-16s n=%-9d trials=%-5d members=%d cores=%d  %8.0f trials/s  speedup vs 1 member %.2fx  efficiency %.2f  identical=%v\n",
			fe.Workload, fe.N, fe.Trials, fe.Members, fe.CoreBudget, fe.TrialsPerS, fe.SpeedupVs1Member, fe.ParallelEfficiency, fe.Identical)
	}
	if !*quick {
		// The cross-host transport gate (ISSUE 10): the loopback fleet at 4
		// members must keep at least 0.70 of the 1-member throughput under
		// the fixed core budget — the transport layer may cost at most a
		// few points over plain process sharding.
		const fleetGate = 0.70
		for _, fe := range rfe {
			if fe.Members == 4 && fe.ParallelEfficiency < fleetGate {
				return fmt.Errorf("bench: 4-member loopback-fleet parallel efficiency %.2f under the fixed core budget (gate %.2f)",
					fe.ParallelEfficiency, fleetGate)
			}
		}
	}

	fre, err := measureFaultRecovery("fault-recovery", 10_000, k, core.KernelAuto(0), shardTrials, *seed)
	if err != nil {
		return err
	}
	rep.FaultRecovery = append(rep.FaultRecovery, fre)
	fmt.Printf("%-16s n=%-9d trials=%-5d shards=%d fault=%s@shard%d  clean %8.0f trials/s, faulted %8.0f trials/s, overhead %.2fx, relaunches=%d, requeued=%d, identical=%v\n",
		fre.Workload, fre.N, fre.Trials, fre.Shards, fre.FaultKind, fre.FaultShard,
		fre.CleanTrialsPerS, fre.FaultTrialsPerS, fre.RecoveryOverhead, fre.Relaunches, fre.Requeued, fre.Identical)

	// The beyond-int64-clock row (128-bit interaction clocks): n = 10^10
	// consensus under the auto kernel, byte-identical across 1, 2, and 4
	// shards. It runs in quick mode too — bench-smoke is its CI gate.
	lne, err := measureLargeN("large-n-consensus", 10_000_000_000, 2, core.KernelAuto(0), 2, *seed)
	if err != nil {
		return err
	}
	rep.LargeN = append(rep.LargeN, lne)
	fmt.Printf("%-16s n=%-11d trials=%-3d kernel=%-14s wall %6.2fs  %.3f ns/interaction  total=%s  identical=%v\n",
		lne.Workload, lne.N, lne.Trials, lne.Kernel, float64(lne.WallNanos)/1e9,
		lne.NsPerInteraction, lne.Interactions, lne.Identical)

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

// measureSmallNFleet times full-consensus fleets at small n under every
// kernel — the regime where per-trial and per-window overhead, not
// per-interaction asymptotics, bound fleet throughput — and reports each
// windowed kernel's speedup over exact. Full runs gate the auto kernel's
// speedup at >= 4x at n = 10⁴ and >= 1x at n = 10³.
func measureSmallNFleet(k int, quick bool, seed uint64) ([]FleetEntry, error) {
	trials := 24
	if quick {
		trials = 6
	}
	kernels := []core.Kernel{core.KernelExact, core.KernelBatched(0), core.KernelAuto(0)}
	var entries []FleetEntry
	for _, n := range []int64{1_000, 10_000} {
		cfg, err := conf.Uniform(n, k, 0)
		if err != nil {
			return nil, err
		}
		var exactTps float64
		for _, kern := range kernels {
			start := time.Now()
			ran := 0
			experiment.Stream(trials, 1, seed, func(i int, src *rng.Source, a *experiment.Arena) u128.U128 {
				s, err := a.Simulator(cfg, src)
				if err != nil {
					panic(err) // configuration validated above
				}
				s.SetKernel(kern)
				return s.Run(core.NoBudget).Interactions
			}, func(int, u128.U128) { ran++ })
			wall := time.Since(start).Nanoseconds()
			if ran != trials {
				return nil, fmt.Errorf("bench: fleet ran %d/%d trials", ran, trials)
			}
			fe := FleetEntry{
				Workload:  "small-n-consensus",
				N:         n,
				K:         k,
				Kernel:    kern.String(),
				Trials:    trials,
				WallNanos: wall,
			}
			if wall > 0 {
				fe.TrialsPerS = float64(trials) / (float64(wall) / 1e9)
			}
			if kern == core.KernelExact {
				exactTps = fe.TrialsPerS
			} else if exactTps > 0 {
				fe.SpeedupVsExact = fe.TrialsPerS / exactTps
			}
			entries = append(entries, fe)
		}
	}
	return entries, nil
}

// refOut is one in-process reference trial outcome fed to the fingerprint.
type refOut struct {
	t      u128.U128
	winner int
}

// shardFingerprint folds one trial outcome into an order-sensitive
// fingerprint; two fold paths agreeing on the final digest folded identical
// sequences.
func shardFingerprint(h io.Writer, i int, interactions u128.U128, winner int) {
	fmt.Fprintf(h, "%d:%d.%d:%d;", i, interactions.Hi, interactions.Lo, winner)
}

// measureShards runs the same consensus fleet through the distributed
// coordinator at 1, 2, and 4 worker processes (this binary re-executed in
// worker mode) and compares every folded sequence against the in-process
// engine's. Every arm runs under the same total core budget —
// GOMAXPROCS(0), partitioned across the workers via both the GOMAXPROCS
// environment (dist.ExecLauncher.CoreBudget) and a matching worker-local
// trial parallelism — so parallel_efficiency isolates what process-level
// sharding costs rather than letting the 1-shard baseline saturate the
// machine alone; it errors if any arm folds a different sequence.
func measureShards(workload string, n int64, k int, kern core.Kernel, trials int, seed uint64) ([]ShardEntry, error) {
	cfg, err := conf.Uniform(n, k, 0)
	if err != nil {
		return nil, err
	}
	// The in-process reference fingerprint, same fleet and seeds.
	ref := sha256.New()
	experiment.Stream(trials, 1, seed, func(i int, src *rng.Source, a *experiment.Arena) refOut {
		s, err := a.Simulator(cfg, src, core.WithKernel(kern))
		if err != nil {
			panic(err) // configuration validated above
		}
		res := s.Run(core.NoBudget)
		return refOut{t: res.Interactions, winner: res.Winner}
	}, func(i int, v refOut) {
		shardFingerprint(ref, i, v.t, v.winner)
	})
	want := fmt.Sprintf("%x", ref.Sum(nil))

	spec, err := experiment.NewShardSpec(cfg, core.Variant{}, kern, core.NoBudget, 0, false).Encode()
	if err != nil {
		return nil, err
	}
	// The fixed total core budget every arm competes under.
	budget := runtime.GOMAXPROCS(0)
	var entries []ShardEntry
	var oneShardNanos int64
	for _, shards := range []int{1, 2, 4} {
		launcher := &dist.ExecLauncher{
			Args: func(shard, shards int) []string {
				return []string{
					"-shard-worker", dist.ShardArg(shard, shards),
					"-shard-par", strconv.Itoa(dist.CoreShare(budget, shard, shards)),
				}
			},
			CoreBudget: budget,
		}
		h := sha256.New()
		start := time.Now()
		res, err := dist.Run(dist.Options{
			Shards:    shards,
			MaxTrials: trials,
			Seed:      seed,
			Spec:      spec,
			Launcher:  launcher,
		}, func(i int, data []byte) error {
			var r experiment.ShardResult
			if err := json.Unmarshal(data, &r); err != nil {
				return err
			}
			shardFingerprint(h, i, r.Interactions(), r.Winner)
			return nil
		}, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: %d-shard run: %w", shards, err)
		}
		wall := time.Since(start).Nanoseconds()
		se := ShardEntry{
			Workload:   workload,
			N:          n,
			K:          k,
			Kernel:     kern.String(),
			Trials:     res.Trials,
			Shards:     shards,
			CoreBudget: budget,
			WallNanos:  wall,
		}
		if wall > 0 {
			se.TrialsPerS = float64(res.Trials) / (float64(wall) / 1e9)
		}
		if shards == 1 {
			oneShardNanos = wall
		} else if wall > 0 {
			se.SpeedupVs1Shard = float64(oneShardNanos) / float64(wall)
			// At a fixed total core budget the ideal multi-shard arm matches
			// the 1-shard arm's throughput, so efficiency is the plain
			// throughput ratio.
			se.ParallelEfficiency = float64(oneShardNanos) / float64(wall)
		}
		se.Identical = fmt.Sprintf("%x", h.Sum(nil)) == want
		entries = append(entries, se)
		if !se.Identical {
			return entries, fmt.Errorf("bench: %d-shard fold diverged from the in-process engine", shards)
		}
	}
	return entries, nil
}

// measureRemoteFleet runs the same consensus fleet through the multi-host
// transport at 1 and 4 members — workers started by RemoteLauncher through
// the /bin/sh loopback template (this binary re-executed in worker mode,
// with {cores} partitioning the fixed total core budget) — and compares
// every folded sequence against the in-process engine's.
// parallel_efficiency prices the whole cross-host path against the 1-member
// baseline at the same core budget; it errors if any arm folds a different
// sequence.
func measureRemoteFleet(workload string, n int64, k int, kern core.Kernel, trials int, seed uint64) ([]RemoteFleetEntry, error) {
	cfg, err := conf.Uniform(n, k, 0)
	if err != nil {
		return nil, err
	}
	// The in-process reference fingerprint, same fleet and seeds.
	ref := sha256.New()
	experiment.Stream(trials, 1, seed, func(i int, src *rng.Source, a *experiment.Arena) refOut {
		s, err := a.Simulator(cfg, src, core.WithKernel(kern))
		if err != nil {
			panic(err) // configuration validated above
		}
		res := s.Run(core.NoBudget)
		return refOut{t: res.Interactions, winner: res.Winner}
	}, func(i int, v refOut) {
		shardFingerprint(ref, i, v.t, v.winner)
	})
	want := fmt.Sprintf("%x", ref.Sum(nil))

	spec, err := experiment.NewShardSpec(cfg, core.Variant{}, kern, core.NoBudget, 0, false).Encode()
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The fixed total core budget every arm competes under, partitioned
	// across members by the {cores} placeholder: GOMAXPROCS caps the worker
	// runtime, -shard-par its trial pool.
	budget := runtime.GOMAXPROCS(0)
	var entries []RemoteFleetEntry
	var oneMemberNanos int64
	for _, members := range []int{1, 4} {
		launcher := &dist.RemoteLauncher{
			Command: dist.LoopbackCommand(
				"GOMAXPROCS={cores} " + exe + " -shard-worker {shard}/{shards} -shard-par {cores}"),
			CoreBudget: budget,
		}
		h := sha256.New()
		start := time.Now()
		res, err := dist.Run(dist.Options{
			Shards:    members,
			MaxTrials: trials,
			Seed:      seed,
			Spec:      spec,
			Launcher:  launcher,
		}, func(i int, data []byte) error {
			var r experiment.ShardResult
			if err := json.Unmarshal(data, &r); err != nil {
				return err
			}
			shardFingerprint(h, i, r.Interactions(), r.Winner)
			return nil
		}, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: %d-member loopback fleet: %w", members, err)
		}
		wall := time.Since(start).Nanoseconds()
		fe := RemoteFleetEntry{
			Workload:   workload,
			N:          n,
			K:          k,
			Kernel:     kern.String(),
			Trials:     res.Trials,
			Members:    members,
			CoreBudget: budget,
			WallNanos:  wall,
		}
		if wall > 0 {
			fe.TrialsPerS = float64(res.Trials) / (float64(wall) / 1e9)
		}
		if members == 1 {
			oneMemberNanos = wall
		} else if wall > 0 {
			fe.SpeedupVs1Member = float64(oneMemberNanos) / float64(wall)
			// At a fixed total core budget the ideal multi-member arm
			// matches the 1-member arm's throughput, so efficiency is the
			// plain throughput ratio.
			fe.ParallelEfficiency = float64(oneMemberNanos) / float64(wall)
		}
		fe.Identical = fmt.Sprintf("%x", h.Sum(nil)) == want
		entries = append(entries, fe)
		if !fe.Identical {
			return entries, fmt.Errorf("bench: %d-member loopback fleet fold diverged from the in-process engine", members)
		}
	}
	return entries, nil
}

// measureFaultRecovery runs the same sharded consensus fleet twice — once
// undisturbed, once with one worker killed mid-wave through the
// deterministic fault-injection harness — and prices the recovery detour.
// Both arms (and the in-process reference) must fold identical result
// sequences, and the faulted arm must actually have relaunched a worker; it
// errors otherwise.
func measureFaultRecovery(workload string, n int64, k int, kern core.Kernel, trials int, seed uint64) (FaultRecoveryEntry, error) {
	cfg, err := conf.Uniform(n, k, 0)
	if err != nil {
		return FaultRecoveryEntry{}, err
	}
	// The in-process reference fingerprint, same fleet and seeds.
	ref := sha256.New()
	experiment.Stream(trials, 1, seed, func(i int, src *rng.Source, a *experiment.Arena) refOut {
		s, err := a.Simulator(cfg, src, core.WithKernel(kern))
		if err != nil {
			panic(err) // configuration validated above
		}
		res := s.Run(core.NoBudget)
		return refOut{t: res.Interactions, winner: res.Winner}
	}, func(i int, v refOut) {
		shardFingerprint(ref, i, v.t, v.winner)
	})
	want := fmt.Sprintf("%x", ref.Sum(nil))

	spec, err := experiment.NewShardSpec(cfg, core.Variant{}, kern, core.NoBudget, 0, false).Encode()
	if err != nil {
		return FaultRecoveryEntry{}, err
	}
	const shards = 4
	fault := dist.Fault{Shard: 1, Launch: 0, Kind: dist.FaultCrashMidWave, After: 2}
	fe := FaultRecoveryEntry{
		Workload:   workload,
		N:          n,
		K:          k,
		Kernel:     kern.String(),
		Trials:     trials,
		Shards:     shards,
		FaultKind:  fault.Kind.String(),
		FaultShard: fault.Shard,
	}
	budget := runtime.GOMAXPROCS(0)
	arm := func(faulted bool) (int64, dist.Result, error) {
		var launcher dist.Launcher = &dist.ExecLauncher{
			Args: func(shard, shards int) []string {
				return []string{
					"-shard-worker", dist.ShardArg(shard, shards),
					"-shard-par", strconv.Itoa(dist.CoreShare(budget, shard, shards)),
				}
			},
			CoreBudget: budget,
		}
		if faulted {
			launcher = &dist.FaultLauncher{Inner: launcher, Schedule: []dist.Fault{fault}}
		}
		h := sha256.New()
		start := time.Now()
		res, err := dist.Run(dist.Options{
			Shards:          shards,
			MaxTrials:       trials,
			Seed:            seed,
			Spec:            spec,
			Launcher:        launcher,
			WorkerTimeout:   time.Minute,
			RelaunchBackoff: time.Millisecond,
			Log:             io.Discard,
		}, func(i int, data []byte) error {
			var r experiment.ShardResult
			if err := json.Unmarshal(data, &r); err != nil {
				return err
			}
			shardFingerprint(h, i, r.Interactions(), r.Winner)
			return nil
		}, nil, nil)
		if err != nil {
			return 0, res, err
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			return 0, res, fmt.Errorf("fold diverged from the in-process engine")
		}
		return time.Since(start).Nanoseconds(), res, nil
	}

	cleanNs, _, err := arm(false)
	if err != nil {
		return fe, fmt.Errorf("bench: clean fault-recovery arm: %w", err)
	}
	faultNs, fres, err := arm(true)
	if err != nil {
		return fe, fmt.Errorf("bench: faulted fault-recovery arm: %w", err)
	}
	fe.CleanWallNanos, fe.FaultWallNanos = cleanNs, faultNs
	fe.Relaunches, fe.Requeued = fres.Relaunches, fres.Requeued
	fe.Identical = true
	if cleanNs > 0 {
		fe.CleanTrialsPerS = float64(trials) / (float64(cleanNs) / 1e9)
		fe.RecoveryOverhead = float64(faultNs) / float64(cleanNs)
	}
	if faultNs > 0 {
		fe.FaultTrialsPerS = float64(trials) / (float64(faultNs) / 1e9)
	}
	if fres.Relaunches < 1 {
		return fe, fmt.Errorf("bench: fault-recovery arm relaunched no worker; the injected fault never fired")
	}
	return fe, nil
}

// measureLargeN prices the beyond-int64-clock regime: a small fleet of
// full consensus runs at n = 10^10 under the auto kernel, reported as
// consensus wall-clock and ns per simulated interaction, then the same
// fleet re-run through the distributed coordinator at 1, 2, and 4 shards.
// Every arm must fold identical result sequences (results_identical, the
// field bench-smoke greps) — the determinism gate for populations whose
// interaction clock no longer fits int64.
func measureLargeN(workload string, n int64, k int, kern core.Kernel, trials int, seed uint64) (LargeNEntry, error) {
	cfg, err := conf.Uniform(n, k, 0)
	if err != nil {
		return LargeNEntry{}, err
	}
	le := LargeNEntry{
		Workload: workload,
		N:        n,
		K:        k,
		Kernel:   kern.String(),
		Trials:   trials,
	}
	type out struct {
		t      u128.U128
		winner int
		ok     bool
	}
	ref := sha256.New()
	var total u128.U128
	consensus := 0
	start := time.Now()
	experiment.Stream(trials, 1, seed, func(i int, src *rng.Source, a *experiment.Arena) out {
		s, err := a.Simulator(cfg, src, core.WithKernel(kern))
		if err != nil {
			panic(err) // configuration validated above
		}
		res := s.Run(core.NoBudget)
		return out{t: res.Interactions, winner: res.Winner, ok: res.Outcome == core.OutcomeConsensus}
	}, func(i int, v out) {
		shardFingerprint(ref, i, v.t, v.winner)
		total = total.Add(v.t)
		if v.ok {
			consensus++
		}
	})
	le.WallNanos = time.Since(start).Nanoseconds()
	if consensus != trials {
		return le, fmt.Errorf("bench: only %d/%d large-n trials reached consensus", consensus, trials)
	}
	le.Interactions = total.String()
	if f := total.Float64(); f > 0 {
		le.NsPerInteraction = float64(le.WallNanos) / f
	}
	want := fmt.Sprintf("%x", ref.Sum(nil))

	spec, err := experiment.NewShardSpec(cfg, core.Variant{}, kern, core.NoBudget, 0, false).Encode()
	if err != nil {
		return le, err
	}
	budget := runtime.GOMAXPROCS(0)
	for _, shards := range []int{1, 2, 4} {
		launcher := &dist.ExecLauncher{
			Args: func(shard, shards int) []string {
				return []string{
					"-shard-worker", dist.ShardArg(shard, shards),
					"-shard-par", strconv.Itoa(dist.CoreShare(budget, shard, shards)),
				}
			},
			CoreBudget: budget,
		}
		h := sha256.New()
		if _, err := dist.Run(dist.Options{
			Shards:    shards,
			MaxTrials: trials,
			Seed:      seed,
			Spec:      spec,
			Launcher:  launcher,
		}, func(i int, data []byte) error {
			var r experiment.ShardResult
			if err := json.Unmarshal(data, &r); err != nil {
				return err
			}
			shardFingerprint(h, i, r.Interactions(), r.Winner)
			return nil
		}, nil, nil); err != nil {
			return le, fmt.Errorf("bench: large-n %d-shard run: %w", shards, err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			return le, fmt.Errorf("bench: large-n %d-shard arm folded fingerprint %s, want in-process %s", shards, got, want)
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
		e.InteractionsPerNs = float64(e.Interactions) / float64(e.WallNanos)
	}
	if e.ProductiveEvents > 0 {
		e.NsPerProductive = float64(e.WallNanos) / float64(e.ProductiveEvents)
	}
	return e, nil
}
