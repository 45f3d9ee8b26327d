package usd

import (
	"fmt"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/phase"
	"repro/internal/potential"
	"repro/internal/rng"
	"repro/internal/u128"
)

// Clock is the 128-bit saturating interaction clock: interaction counts,
// phase end times, and budgets are Clock-valued because n² exceeds int64
// once n > ⌊√MaxInt64⌋ ≈ 3·10⁹. The zero Clock means "no budget" where a
// budget is expected. Construct from small values with ClockOf and from
// float64 magnitudes (e.g. 1e20) with ClockOfFloat.
type Clock = u128.U128

// ClockOf returns the Clock for a non-negative int64 count; negative
// values clamp to zero, preserving the "budget <= 0 means unlimited"
// convention of the int64 API.
func ClockOf(v int64) Clock { return u128.From64(v) }

// ClockOfFloat returns the Clock nearest the given non-negative float64
// (values ≥ 2¹²⁸ saturate, NaN and negatives clamp to zero); it is how
// CLIs turn a "1e20"-style flag into a budget.
func ClockOfFloat(v float64) Clock { return u128.FromFloat64(v) }

// NoBudget is the zero Clock: run without an interaction budget.
var NoBudget = core.NoBudget

// Config is an aggregate opinion configuration: the support of each of the
// k opinions plus the number of undecided agents.
type Config = conf.Config

// Simulator is the configuration-level USD simulator; see NewSimulator.
type Simulator = core.Simulator

// Result summarizes a simulation run.
type Result = core.Result

// Event describes a single simulated step; see Simulator.Step.
type Event = core.Event

// EventKind classifies what happened in one simulated step.
type EventKind = core.EventKind

// Event kinds.
const (
	// EventAdopt: an undecided responder adopted an opinion.
	EventAdopt = core.EventAdopt
	// EventUndecide: a decided responder became undecided.
	EventUndecide = core.EventUndecide
	// EventNone: the interaction was unproductive.
	EventNone = core.EventNone
	// EventAbsorbed: the configuration can never change again.
	EventAbsorbed = core.EventAbsorbed
)

// Option configures a Simulator.
type Option = core.Option

// Kernel selects the stepping implementation of a Simulator; see
// KernelExact, KernelBatched, and KernelAuto.
type Kernel = core.Kernel

// KernelExact samples every productive interaction individually from the
// exact transition law. It is the default.
var KernelExact = core.KernelExact

// DefaultTolerance is the drift tolerance KernelBatched uses for tol <= 0.
const DefaultTolerance = core.DefaultTolerance

// KernelBatched returns the batched stepping kernel with the given drift
// tolerance (tol <= 0 selects DefaultTolerance): windows of productive
// interactions are sampled in bulk via multinomial chaining and applied in
// O(k), keeping every per-opinion rate within a ~tol relative drift and
// reverting to the exact law near absorption. See the core package
// documentation for the full accuracy contract.
func KernelBatched(tol float64) Kernel { return core.KernelBatched(tol) }

// KernelAuto returns the hybrid stepping kernel with the given drift
// tolerance (tol <= 0 selects DefaultTolerance): it follows KernelBatched's
// window law but picks the cheapest sampling strategy per window from a
// deterministic cost model over the window size and opinion count — exact
// stepping, per-event categorical draws, or binomial chaining. It is the
// fastest kernel across every population size, and the one Monte-Carlo
// fleet workloads should default to; see the core package documentation
// and the K1-kernel-agreement experiment's auto arm.
func KernelAuto(tol float64) Kernel { return core.KernelAuto(tol) }

// WithKernel selects the stepping kernel (default KernelExact).
func WithKernel(k Kernel) Option { return core.WithKernel(k) }

// PhaseTimes records the end times of the paper's five analysis phases.
type PhaseTimes = phase.Times

// Outcomes of a run.
const (
	// OutcomeConsensus: all agents support a single opinion.
	OutcomeConsensus = core.OutcomeConsensus
	// OutcomeAllUndecided: the absorbing all-undecided configuration.
	OutcomeAllUndecided = core.OutcomeAllUndecided
	// OutcomeBudget: the interaction budget ran out first.
	OutcomeBudget = core.OutcomeBudget
	// OutcomeFrozen: no productive interaction remains but the population
	// is split (reachable only under non-classic dynamics).
	OutcomeFrozen = core.OutcomeFrozen
	// OutcomeDominance: the stubborn variant's terminal — one opinion holds
	// every agent stubborn agents cannot permanently deny it.
	OutcomeDominance = core.OutcomeDominance
)

// Dynamics is a pluggable opinion-dynamics rule; see Classic,
// StubbornAgents, and Unconstrained.
type Dynamics = core.Dynamics

// Classic is the paper's k-opinion undecided state dynamics, the default.
var Classic = core.Classic

// StubbornAgents is the stubborn-agent USD variant (arXiv:2406.07335):
// per-opinion stubborn counts never undecide, consensus is replaced by a
// dominance terminal. Configure stubborn counts via Variant or
// Config.Stubborn.
var StubbornAgents = core.StubbornAgents

// Unconstrained is the unconstrained-USD variant (arXiv:2103.10366) where
// undecided agents remember a latent opinion; exact kernel only.
var Unconstrained = core.Unconstrained

// Variant names a dynamics variant plus its parameters in wire/CLI form.
type Variant = core.Variant

// ParseVariantSpec parses a CLI variant spec such as "classic",
// "stubborn:5,0,3", or "unconstrained" ("" means classic).
func ParseVariantSpec(s string) (Variant, error) { return core.ParseVariantSpec(s) }

// VariantNames lists the registered dynamics variants in CLI/wire order.
func VariantNames() []string { return core.VariantNames() }

// WithDynamics selects the simulator's dynamics variant (default Classic).
func WithDynamics(d Dynamics) Option { return core.WithDynamics(d) }

// WithSkipping enables or disables geometric skipping of unproductive
// interactions (default enabled; both settings sample the same law).
func WithSkipping(enabled bool) Option { return core.WithSkipping(enabled) }

// FromSupport builds a configuration from an explicit support vector and
// undecided count.
func FromSupport(support []int64, undecided int64) (*Config, error) {
	return conf.FromSupport(support, undecided)
}

// Uniform returns the unbiased configuration: n−undecided decided agents
// split as evenly as possible over k opinions.
func Uniform(n int64, k int, undecided int64) (*Config, error) {
	return conf.Uniform(n, k, undecided)
}

// WithAdditiveBias returns a configuration whose Opinion 0 leads every
// other opinion by at least the given additive margin.
func WithAdditiveBias(n int64, k int, bias, undecided int64) (*Config, error) {
	return conf.WithAdditiveBias(n, k, bias, undecided)
}

// WithMultiplicativeBias returns a configuration whose Opinion 0 has at
// least ratio times the support of every other opinion.
func WithMultiplicativeBias(n int64, k int, ratio float64, undecided int64) (*Config, error) {
	return conf.WithMultiplicativeBias(n, k, ratio, undecided)
}

// Zipf returns a configuration with power-law opinion supports.
func Zipf(n int64, k int, exponent float64, undecided int64) (*Config, error) {
	return conf.Zipf(n, k, exponent, undecided)
}

// NewSimulator returns a USD simulator over a copy of cfg, seeded
// deterministically.
func NewSimulator(cfg *Config, seed uint64, opts ...Option) (*Simulator, error) {
	return core.New(cfg, rng.New(seed), opts...)
}

// Report is the result of a high-level Run: the simulation outcome
// (Result), the empirical end times of the paper's five analysis phases
// (Phases), and the opinion with the largest initial support
// (InitialLeader).
type Report = phase.Report

// Run simulates the USD from cfg to consensus with phase tracking, using a
// deterministic stream derived from seed.
func Run(cfg *Config, seed uint64) (Report, error) {
	return RunVariant(cfg, Variant{}, seed, NoBudget, KernelExact)
}

// RunFast is Run with the batched kernel at the default drift tolerance: it
// samples windows of productive interactions in bulk, which is orders of
// magnitude faster at large n while staying within the kernel's stated
// accuracy contract (the endgame is still simulated exactly, so winner and
// phase-time distributions agree with Run within tolerance; see the
// K1-kernel-agreement experiment).
func RunFast(cfg *Config, seed uint64) (Report, error) {
	return RunVariant(cfg, Variant{}, seed, NoBudget, KernelBatched(0))
}

// RunVariant is the phase-tracked run behind Run and RunFast, under a
// pluggable dynamics variant and any kernel: Variant.Prepare applies the
// variant's parameters to a copy of cfg and checks the kernel against the
// variant's window-law support (exact-only variants reject batched
// kernels), then the run goes to consensus, absorption, or the budget (the
// zero Clock means none; budgets beyond int64 come from ClockOfFloat) with
// phase tracking. Callers that thread kernel selection through (for example
// from a -kernel flag) use this directly.
func RunVariant(cfg *Config, v Variant, seed uint64, budget Clock, kern Kernel) (Report, error) {
	c, dyn, err := v.Prepare(cfg, kern)
	if err != nil {
		return Report{}, err
	}
	s, err := core.New(c, rng.New(seed), core.WithKernel(kern), core.WithDynamics(dyn))
	if err != nil {
		return Report{}, err
	}
	tr := phase.NewTracker(phase.WithCheckInterval(phase.CheckIntervalFor(c.N(), kern)))
	return tr.Run(s, budget), nil
}

// GossipResult summarizes a gossip-model run.
type GossipResult = gossip.Result

// RunGossip simulates the gossip-model USD (the Becchetti et al. variant)
// from cfg for at most maxRounds synchronous rounds (<= 0: to consensus).
func RunGossip(cfg *Config, seed uint64, maxRounds int64) (GossipResult, error) {
	e, err := gossip.NewEngine(cfg, gossip.USD{Opinions: cfg.K()}, rng.New(seed))
	if err != nil {
		return GossipResult{}, err
	}
	return e.Run(maxRounds), nil
}

// EquilibriumUndecided returns u* = n(k−1)/(2k−1), the unstable equilibrium
// of the undecided count the paper identifies.
func EquilibriumUndecided(n int64, k int) float64 {
	return potential.EquilibriumUndecided(n, k)
}

// SignificanceThreshold returns α·√(n ln n), the additive margin below the
// maximum at which the paper stops calling an opinion significant.
func SignificanceThreshold(n int64, alpha float64) float64 {
	return potential.SignificanceThreshold(n, alpha)
}

// MonochromaticDistance returns md(x) = Σ(xᵢ/xmax)², the Becchetti et al.
// uniformity measure used in the paper's Appendix D comparison.
func MonochromaticDistance(support []int64) float64 {
	return potential.MonochromaticDistance(support)
}

// TheoremBound returns the paper's Theorem 2 convergence bound (in
// interactions, up to constants) for a configuration: the multiplicative-
// bias bound n·ln n + n²/x₁ when the configuration has a multiplicative
// bias of at least 1+ε for ε = 0.5, and the additive-bias/no-bias bound
// n²·ln n/x₁ otherwise.
func TheoremBound(cfg *Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, fmt.Errorf("usd: invalid configuration: %w", err)
	}
	n := float64(cfg.N())
	_, x1 := cfg.Max()
	if x1 == 0 {
		return 0, fmt.Errorf("usd: configuration has no decided agents")
	}
	logN := math.Log(n)
	if cfg.MultiplicativeBias() >= 1.5 {
		return n*logN + n*n/float64(x1), nil
	}
	return n * n * logN / float64(x1), nil
}
