// Package core implements the paper's primary contribution: a
// configuration-level simulator for the k-opinion Undecided State Dynamics
// (USD) in the population protocol model.
//
// The population protocol draws an ordered pair (responder, initiator)
// uniformly at random from the n² ordered agent pairs (self-interactions are
// allowed, exactly as in the paper) and applies the USD transition function:
// a decided responder meeting a differently-decided initiator becomes
// undecided; an undecided responder adopts a decided initiator's opinion;
// every other pair is unproductive.
//
// Because pairs are drawn with replacement, the responder and initiator
// states are independent categorical draws from the configuration, so the
// process is a Markov chain on the aggregate configuration
// (x₁, …, x_k, u). One interaction is simulated in O(log k) time with
// Fenwick-tree sampling, using the exact transition law of Observation 6:
//
//	Pr[adopt opinion j]   = u·xⱼ/n²
//	Pr[opinion i → ⊥]     = xᵢ·(n−u−xᵢ)/n²   (marginally; pair law xᵢxⱼ/n²)
//	Pr[unproductive]      = 1 − u(n−u)/n² − ((n−u)²−r₂)/n²,  r₂ = Σxᵢ²
//
// Unproductive interactions do not change the state, so the simulator can
// optionally advance the interaction clock by a geometric jump to the next
// productive interaction ("skipping"); the resulting trajectory has exactly
// the same distribution while being dramatically faster near consensus,
// where almost all interactions are unproductive.
//
// # Stepping kernels
//
// Three stepping kernels are available (see WithKernel). They share one
// run loop and differ only in data: each kernel is a row of kernelRows
// holding its name, its exact-stepping floor and its categorical boundary.
// For each event the loop samples a window of productive events if the
// kernel's floor admits one, else takes a geometric skip step to the next
// productive interaction, or — only for the exact kernel under
// WithSkipping(false) — steps a single interaction.
//
//   - KernelExact (the default; floor 0, so it never samples a window)
//     samples every productive interaction individually from the law
//     above, in O(log k) per event. It is used whenever single-event
//     resolution matters and by all correctness baselines.
//
//   - KernelBatched(tol) (floor minBatchWindow, no categorical boundary)
//     freezes the transition law at the start of an adaptively-sized
//     window of m productive events, samples the whole window's
//     per-opinion adopt/undecide counts at once (a multinomial over the 2k
//     event categories, drawn by conditional binomial chaining), advances
//     the clock by a NegativeBinomial(m, W/n²) span — the law of m
//     consecutive geometric skips — and applies the window with one O(k)
//     bulk Fenwick update. Amortized cost is O(k/m + 1) per productive
//     event, independent of k for large windows.
//
//   - KernelAuto(tol) (floor minAutoWindow, categorical boundary
//     autoCategoricalFactor·k) follows the same window law but samples
//     windows under the boundary by per-event categorical draws against
//     the frozen cumulative weights, and larger ones by binomial chaining.
//     It closes the small-n regime where windows never grow large enough
//     for the chained sampler's O(k) setup to amortize (see
//     docs/ARCHITECTURE.md, "Performance model").
//
// The windowed kernels' accuracy contract is the tau-leaping leap
// condition (Cao–Gillespie–Petzold): the window m is capped at tol·u and at
// tol·W/(c·n), where c bounds |ΔW| per event in units of n (2 for the
// classic dynamics, 3 for the stubborn one). This bounds the relative drift
// of the undecided count, of the productive weight W, and of every
// per-opinion rate with support at least 1/tol by ~tol across the window
// (smaller supports are granted the one-unit granularity floor). Windows
// therefore shrink automatically as u, W, or the minority supports shrink;
// below the kernel's floor the loop steps exactly, so the endgame — where
// individual events decide the winner — and small-support dynamics are
// simulated exactly. Windows whose sampled net deltas would drive a
// support negative are resampled at half the size, down to one exact step
// below the floor. Variants without a derived window law step exactly
// under every kernel. The K1-kernel-agreement experiment validates the
// contract empirically: winner frequencies, consensus-time distributions
// (two-sample KS), and per-phase median end times match the exact kernel
// at the default tolerance.
package core

import (
	"fmt"

	"repro/internal/conf"
	"repro/internal/fenwick"
	"repro/internal/rng"
	"repro/internal/u128"
)

// EventKind classifies what happened in one simulated step.
type EventKind int

// Event kinds. EventNone is only reported by the non-skipping kernel, which
// simulates unproductive interactions individually.
const (
	// EventAdopt: an undecided responder adopted Event.Opinion.
	EventAdopt EventKind = iota + 1
	// EventUndecide: a responder holding Event.Opinion became undecided.
	EventUndecide
	// EventNone: the interaction was unproductive.
	EventNone
	// EventAbsorbed: the configuration is absorbing (consensus or
	// all-undecided); no interaction can ever change it again.
	EventAbsorbed
	// EventBatch: a batched kernel applied Event.Count productive
	// interactions in one bulk update; Event.Opinion is -1.
	EventBatch
)

// String returns a short name for the event kind.
func (k EventKind) String() string {
	switch k {
	case EventAdopt:
		return "adopt"
	case EventUndecide:
		return "undecide"
	case EventNone:
		return "none"
	case EventAbsorbed:
		return "absorbed"
	case EventBatch:
		return "batch"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event describes one simulated step.
type Event struct {
	// Kind classifies the step.
	Kind EventKind
	// Opinion is the opinion involved for EventAdopt and EventUndecide;
	// it is -1 otherwise.
	Opinion int
	// Interactions is the interaction clock after the step, counting
	// every interaction including skipped unproductive ones. It is a
	// 128-bit count: at MaxN = 10¹¹ a run's clock reaches ~n²·ln n ≈ 2⁷⁹,
	// past int64.
	Interactions u128.U128
	// Count is the number of productive interactions the step applied:
	// 1 for EventAdopt and EventUndecide, the window size for EventBatch,
	// and 0 for EventNone and EventAbsorbed.
	Count int64
}

// Outcome is the terminal state of a Run.
type Outcome int

// Possible outcomes of Run.
const (
	// OutcomeConsensus: all n agents support a single opinion.
	OutcomeConsensus Outcome = iota + 1
	// OutcomeAllUndecided: every agent is undecided; this configuration is
	// absorbing and can only be reached from an all-undecided start.
	OutcomeAllUndecided
	// OutcomeBudget: the interaction budget was exhausted first.
	OutcomeBudget
	// OutcomeFrozen: a variant-specific absorbing configuration short of
	// consensus — for the stubborn dynamics, every decided agent is
	// stubborn with no undecided agents left, so no opinion can ever win.
	// Classic runs never produce it.
	OutcomeFrozen
	// OutcomeDominance: a variant-specific metastable convergence event
	// short of full consensus — for the stubborn dynamics, one opinion
	// holds all but O(b + √(n·ln n)) agents (see StubbornAgents), which is
	// as close to consensus as a chain with stubborn dissenters ever gets.
	// Winner is the dominant opinion. Classic runs never produce it.
	OutcomeDominance
)

// String returns a short name for the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeConsensus:
		return "consensus"
	case OutcomeAllUndecided:
		return "all-undecided"
	case OutcomeBudget:
		return "budget-exhausted"
	case OutcomeFrozen:
		return "frozen"
	case OutcomeDominance:
		return "dominance"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result summarizes a Run.
type Result struct {
	// Outcome is the terminal condition.
	Outcome Outcome
	// Winner is the consensus opinion for OutcomeConsensus and -1 otherwise.
	Winner int
	// Interactions is the value of the interaction clock at termination.
	Interactions u128.U128
	// ParallelTime is Interactions/n, the standard conversion between
	// population-protocol interactions and parallel rounds.
	ParallelTime float64
}

// Observer receives every applied event during an observed run. The
// simulator passed to the callback must not be mutated.
type Observer func(s *Simulator, ev Event)

// Watch makes an Observer usable as a Watcher.
func (o Observer) Watch(s *Simulator, ev Event) { o(s, ev) }

// Watcher is the interface form of Observer: RunWatched invokes Watch after
// every applied event. Passing a long-lived pointer (for example a
// *phase.Tracker) avoids the closure allocation of a func-valued Observer,
// which keeps hot observed runs allocation-free after construction.
type Watcher interface {
	// Watch is called after every applied event; it must not mutate the
	// simulator.
	Watch(s *Simulator, ev Event)
}

// Simulator simulates the USD at configuration level. It is not safe for
// concurrent use. Construct with New.
type Simulator struct {
	tree   *fenwick.Dual // per-opinion support; owns Σx, Σx² and their prefix sums
	src    *rng.Source
	n      int64
	nSq    u128.U128 // n² ordered pairs; reaches 10²² ≈ 2⁷⁴ at MaxN
	invNSq float64   // 1/float64(n²), hoisted once per Reset (see below)
	u      int64
	steps  u128.U128 // interaction clock
	skip   bool
	kernel Kernel

	// dyn is the protocol variant (default Classic); dynState holds its
	// per-simulator state, rebuilt by dyn.init at every Reset and reused
	// across trials when the shape matches.
	dyn      Dynamics
	dynState any

	// Scratch buffers of the batched and auto kernels, allocated on first
	// use: batchCounts holds a window's adopt counts (first k slots) and
	// undecide counts (next k), batchCum64 and batchCum the categorical
	// sampler's 2k cumulative weights (64-bit below narrowN; 128-bit above,
	// plus one all-ones sentinel), batchGuide its draw-acceleration table,
	// sized for the largest categorical window plus one spare slot; each
	// window builds only the power-of-two prefix its size needs, and
	// windows of fewer than 2k draws below narrowN build none. batchZero
	// is the all-zero floor slice of a classic window.
	batchVals    []int64
	batchZero    []int64
	batchCounts  []int64
	batchWeights []float64
	batchCum     []u128.U128
	batchCum64   []uint64
	batchGuide   []int32
}

// Option configures a Simulator.
type Option func(*Simulator)

// WithSkipping enables or disables geometric skipping of unproductive
// interactions. The default is enabled; both settings sample from exactly
// the same process law, but with skipping the simulator only spends time on
// productive interactions.
func WithSkipping(enabled bool) Option {
	return func(s *Simulator) { s.skip = enabled }
}

// MaxN is the largest population size the simulator accepts, 10¹¹. The
// interaction clock, the pair count n², and every quantity derived from them
// are 128-bit (see package u128 and conf.MaxN for the ceiling derivation),
// so the bound is no longer the old ⌊√MaxInt64⌋ clock-overflow fence; New
// and Reset still reject larger populations with a clear error because the
// float64 probability layer's exactness audit covers supports only up to
// this bound.
const MaxN = conf.MaxN

// New returns a simulator initialized with a copy of the configuration c,
// drawing randomness from src.
func New(c *conf.Config, src *rng.Source, opts ...Option) (*Simulator, error) {
	s := &Simulator{skip: true}
	if err := s.Reset(c, src, opts...); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-initializes the simulator in place to a copy of configuration c,
// drawing randomness from src, and rewinds the interaction clock to zero.
// Options given here are applied after the state reset; previously
// configured options (kernel, skipping) are preserved when none are given.
// All allocated state — the Fenwick tree when the opinion count matches,
// and the batched kernel's scratch buffers — is reused, so Monte-Carlo
// trial engines can run millions of trials on one simulator without
// allocating. A Reset simulator is indistinguishable from a freshly
// constructed one. The MaxN population bound is enforced by c.Validate,
// whose running-sum checks are wrap-proof.
func (s *Simulator) Reset(c *conf.Config, src *rng.Source, opts ...Option) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("core: invalid configuration: %w", err)
	}
	if src == nil {
		return fmt.Errorf("core: nil randomness source")
	}
	if s.tree != nil && s.tree.Len() == len(c.Support) {
		s.tree.SetAll(c.Support)
	} else {
		s.tree = fenwick.DualFromSlice(c.Support)
	}
	s.src = src
	s.n = c.N()
	s.nSq = u128.Mul64(uint64(s.n), uint64(s.n))
	// One correctly-rounded reciprocal per Reset: nSq.Float64() is the
	// correctly rounded float64 of n² (exact only up to 2⁵³, audited
	// round-to-odd beyond), and the division is one more correctly rounded
	// operation. Every per-step probability p = w/n² is then computed as
	// w.Float64()·invNSq, so the clock-to-float boundary costs two roundings
	// total instead of re-truncating n² at every step.
	s.invNSq = 1 / s.nSq.Float64()
	s.u = c.Undecided
	s.steps = u128.U128{}
	for _, opt := range opts {
		opt(s)
	}
	if s.dyn == nil {
		s.dyn = Classic
	}
	if s.kernel.Batched() && !s.dyn.Batchable() {
		return fmt.Errorf("core: dynamics %q is exact-only (no derived window law): kernel %q unavailable, want exact",
			s.dyn.Name(), s.kernel.Name())
	}
	if err := s.dyn.init(s, c); err != nil {
		return err
	}
	return nil
}

// N returns the population size.
func (s *Simulator) N() int64 { return s.n }

// K returns the number of opinions.
func (s *Simulator) K() int { return s.tree.Len() }

// Undecided returns the current number of undecided agents.
func (s *Simulator) Undecided() int64 { return s.u }

// Decided returns the current number of decided agents, n − u.
func (s *Simulator) Decided() int64 { return s.n - s.u }

// Support returns the current support of opinion i.
func (s *Simulator) Support(i int) int64 { return s.tree.Get(i) }

// Supports appends the current support vector to dst and returns it.
func (s *Simulator) Supports(dst []int64) []int64 { return s.tree.Values(dst) }

// SumSquares returns r₂ = Σ xᵢ².
func (s *Simulator) SumSquares() u128.U128 { return s.tree.SumSquares() }

// Interactions returns the current interaction clock.
func (s *Simulator) Interactions() u128.U128 { return s.steps }

// ParallelTime returns Interactions()/n.
func (s *Simulator) ParallelTime() float64 { return s.steps.Float64() / float64(s.n) }

// Max returns the index and support of the currently largest opinion in
// O(k). Ties resolve to the smallest index.
func (s *Simulator) Max() (opinion int, support int64) {
	opinion = 0
	for i := 0; i < s.tree.Len(); i++ {
		if x := s.tree.Get(i); x > support {
			opinion, support = i, x
		}
	}
	return opinion, support
}

// Config returns a snapshot of the current configuration, including the
// per-opinion stubborn counts when the stubborn dynamics is active.
func (s *Simulator) Config() *conf.Config {
	c := &conf.Config{
		Support:   s.tree.Values(nil),
		Undecided: s.u,
	}
	if b := s.tree.Floors(); b != nil {
		c.Stubborn = append([]int64(nil), b...)
	}
	return c
}

// IsConsensus reports whether all agents share one opinion.
func (s *Simulator) IsConsensus() bool {
	return s.u == 0 && s.tree.SumSquares() == s.nSq
}

// productiveWeight returns W, the number of ordered agent pairs whose
// interaction is productive under the active dynamics' transition law (for
// the classic dynamics, W = u·D + (D²−r₂) with D = n−u; see
// classicDynamics.weight).
func (s *Simulator) productiveWeight() u128.U128 {
	return s.dyn.weight(s)
}

// ProductiveProbability returns the probability that a single interaction
// changes the configuration.
func (s *Simulator) ProductiveProbability() float64 {
	return s.productiveWeight().Float64() * s.invNSq
}

// adopt applies "undecided responder adopts opinion j".
func (s *Simulator) adopt(j int) {
	s.tree.Add(j, 1)
	s.u--
}

// undecide applies "opinion-i responder becomes undecided".
func (s *Simulator) undecide(i int) {
	s.tree.Add(i, -1)
	s.u++
}

// applyProductive samples and applies one productive event given r uniform
// in [0, W) with W = productiveWeight(), and returns the event. The event
// is drawn under the active dynamics' transition law; the interaction clock
// is not advanced here.
func (s *Simulator) applyProductive(r u128.U128) Event {
	return s.dyn.apply(s, r)
}

// Step simulates a single interaction (without skipping) and returns the
// event. If the configuration is absorbing, the clock does not advance and
// EventAbsorbed is returned.
func (s *Simulator) Step() Event {
	w := s.productiveWeight()
	if w.IsZero() {
		return Event{Kind: EventAbsorbed, Opinion: -1, Interactions: s.steps}
	}
	s.steps = satAdd(s.steps, u128.U128{Lo: 1})
	r := s.src.Uint128n(s.nSq)
	if !r.Less(w) {
		return Event{Kind: EventNone, Opinion: -1, Interactions: s.steps}
	}
	ev := s.applyProductive(r)
	ev.Interactions = s.steps
	return ev
}

// StepProductive advances the clock to the next productive interaction via
// a geometric jump and applies it, returning the event. If the
// configuration is absorbing, the clock does not advance and EventAbsorbed
// is returned.
func (s *Simulator) StepProductive() Event {
	w := s.productiveWeight()
	if w.IsZero() {
		return Event{Kind: EventAbsorbed, Opinion: -1, Interactions: s.steps}
	}
	ev, _ := s.stepSkip(w, NoBudget)
	return ev
}

// Run simulates until consensus, absorption, or the interaction budget is
// exhausted. A zero budget means "until absorbed" (u128.From64 maps
// non-positive int64 budgets there, preserving the old "budget <= 0 is
// unlimited" convention). With skipping enabled, a geometric jump that lands
// past the budget is truncated at the budget and its productive event is
// discarded, exactly as if simulation had stopped mid-jump.
func (s *Simulator) Run(budget u128.U128) Result {
	return s.runLoop(budget, nil, nil)
}

// RunObserved is Run with an observer invoked after every event (including
// EventNone events when skipping is disabled).
func (s *Simulator) RunObserved(budget u128.U128, obs Observer) Result {
	var w Watcher
	if obs != nil {
		w = obs
	}
	return s.runLoop(budget, w, nil)
}

// RunWatched is RunObserved with an interface-valued observer; see Watcher.
func (s *Simulator) RunWatched(budget u128.U128, w Watcher) Result {
	return s.runLoop(budget, w, nil)
}

// RunUntil simulates until stop returns true (checked after every event),
// until absorption, or until the budget is exhausted. The Outcome is
// OutcomeBudget when stop terminated the run without consensus.
func (s *Simulator) RunUntil(budget u128.U128, stop func(*Simulator) bool) Result {
	return s.runLoop(budget, nil, stop)
}

// runLoop is the one run loop of every kernel. Each event it samples a
// window (batchStep, when the kernel's row admits one), takes a geometric
// skip step (stepSkip), or — for the exact kernel under WithSkipping(false)
// — steps a single interaction (Step).
func (s *Simulator) runLoop(budget u128.U128, obs Watcher, stop func(*Simulator) bool) Result {
	row := kernelRows[s.kernel.row]
	// An exact-only dynamics steps exactly even if a windowed kernel slipped
	// past Reset's validation (e.g. via SetKernel): stepping exactly is
	// always a correct refinement of the window law.
	if !s.dyn.Batchable() {
		row.floor = 0
	}
	// Windowed kernels always skip unproductive interactions.
	skip := s.skip || row.floor > 0
	for {
		if outcome, winner, done := s.dyn.terminal(s); done {
			return s.result(outcome, winner)
		}
		w := s.productiveWeight()
		if w.IsZero() {
			outcome, winner := s.dyn.absorbed(s)
			return s.result(outcome, winner)
		}
		if !budget.IsZero() && budget.Leq(s.steps) {
			return s.result(OutcomeBudget, -1)
		}
		// A window or geometric jump that lands past the budget stops the
		// run at the budget without applying its events.
		var ev Event
		ok := true
		switch m := s.window(w, budget, row.floor); {
		case m > 0:
			ev, ok = s.batchStep(w, m, budget, row)
		case skip:
			ev, ok = s.stepSkip(w, budget)
		default:
			ev = s.Step()
		}
		if !ok {
			return s.result(OutcomeBudget, -1)
		}
		if obs != nil {
			obs.Watch(s, ev)
		}
		if stop != nil && ev.Kind != EventNone && stop(s) {
			if outcome, winner, done := s.dyn.terminal(s); done {
				return s.result(outcome, winner)
			}
			return s.result(OutcomeBudget, -1)
		}
	}
}

// NoBudget is the zero interaction budget: run until an absorbing
// configuration with no interaction cap. It reads better at call sites
// than a literal zero u128.U128.
var NoBudget u128.U128

// satAdd returns a+b clamped to u128.Max. Every advance of the interaction
// clock goes through it (or through the saturating budget comparison
// budget−steps < span), so the clock can saturate but never wrap — the same
// defense-in-depth invariant the old int64 clock's satAdd provided, now at a
// ceiling no admissible simulation can reach (a saturated clock would need
// ~2¹²⁸ interactions; the longest run at MaxN takes ~2⁸⁰).
func satAdd(a, b u128.U128) u128.U128 {
	return a.Add(b)
}

func (s *Simulator) result(o Outcome, winner int) Result {
	return Result{
		Outcome:      o,
		Winner:       winner,
		Interactions: s.steps,
		ParallelTime: s.ParallelTime(),
	}
}
