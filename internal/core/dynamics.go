package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/conf"
	"repro/internal/fenwick"
	"repro/internal/u128"
)

// This file is the pluggable dynamics engine: the Dynamics interface a
// protocol variant implements, the serializable Variant selector the CLIs
// and the distributed job specs carry, and the three registered variants —
// classic k-USD (the default), stubborn-agent USD (arXiv:2406.07335), and
// unconstrained USD (arXiv:2103.10366).
//
// A variant provides two layers:
//
//   - The per-interaction transition law: the count W of ordered agent
//     pairs whose interaction changes the configuration (weight), how a
//     uniform threshold in [0, W) maps to one applied event (apply), and
//     when a run is over (terminal for variant-specific convergence,
//     absorbed for the W = 0 classification). The exact kernel and the
//     geometric-skipping clock are shared; only these hooks differ.
//
//   - For the batched/auto kernels, the drift divisor bounding |ΔW| per
//     event (the tau-leaping leap condition's W term). The frozen window
//     law itself is one formula shared by every batchable variant and read
//     by the kernels directly (batch.go): opinion j undecides with weight
//     (xⱼ−bⱼ)(D−xⱼ) and a sampled window must keep xⱼ >= bⱼ, where bⱼ are
//     the stubborn floors the Fenwick dual carries — none, i.e. zero, for
//     classic. Variants without an honest window-law derivation return
//     Batchable() == false and are restricted to the exact kernel by
//     Variant.ValidateKernel and Simulator.Reset.

// Dynamics is a protocol variant of the population-protocol opinion
// dynamics: the per-interaction transition law plus, for batchable
// variants, the leap condition's drift divisor. The frozen window law has
// no hook: the kernels read it from the stubborn floors (see Batchable).
// Implementations are provided by this package (Classic, StubbornAgents,
// Unconstrained) and selected with WithDynamics or a parsed Variant; the
// interface is sealed — its unexported hooks operate on the simulator's
// internals.
type Dynamics interface {
	// Name returns the variant's registry name ("classic", "stubborn",
	// "unconstrained").
	Name() string
	// Batchable reports whether the variant's transition law is the frozen
	// window law the batched/auto kernels sample: adopt weight u·xⱼ,
	// undecide weight (xⱼ−bⱼ)(D−xⱼ) with the dual's stubborn floors bⱼ
	// (zero when none are installed). Exact-only variants return false and
	// are rejected for batched kernels by Variant.ValidateKernel and
	// Simulator.Reset.
	Batchable() bool

	// init validates the configuration for this variant and (re)builds any
	// variant-private state on the simulator. It runs at the end of every
	// Reset, after options are applied.
	init(s *Simulator, c *conf.Config) error
	// weight returns W, the number of ordered agent pairs whose
	// interaction is productive under this variant's transition law.
	weight(s *Simulator) u128.U128
	// apply samples and applies one productive event given r uniform in
	// [0, weight()); the interaction clock is advanced by the caller.
	apply(s *Simulator, r u128.U128) Event
	// terminal reports whether the run loop should stop with the given
	// outcome and winner even though the configuration may not be
	// absorbing (e.g. the stubborn variant's free-agent consensus, which
	// still has positive productive weight). It is checked before every
	// step and must not mutate the simulator or consume randomness.
	terminal(s *Simulator) (Outcome, int, bool)
	// absorbed classifies a weight-zero configuration that terminal did
	// not claim: the outcome and winner of a run that can never change
	// again.
	absorbed(s *Simulator) (Outcome, int)

	// driftDivisor is the window law's |ΔW| bound per productive event in
	// units of n: a window of tol·W/(driftDivisor·n) events keeps the
	// relative drift of W below ~tol (see wDriftDivisor for the classic
	// derivation). Batchable variants only.
	driftDivisor() float64
}

// Registered dynamics. Each value is stateless and safe to share between
// simulators; per-simulator variant state lives on the Simulator and is
// rebuilt by init at every Reset.
var (
	// Classic is the paper's k-opinion Undecided State Dynamics, the
	// default: undecided responders adopt a decided initiator's opinion,
	// decided responders meeting a differently-decided initiator become
	// undecided.
	Classic Dynamics = classicDynamics{}
	// StubbornAgents is the stubborn-agent USD variant (arXiv:2406.07335):
	// conf.Config.Stubborn[i] of opinion i's supporters never leave it —
	// they are sampled as initiators but never undecide as responders. The
	// variant shares the classic adopt law and restricts the undecide law
	// to free (non-stubborn) agents.
	//
	// With stubborn agents on two or more opinions the chain has no
	// absorbing consensus state: stubborn dissenters perpetually re-seed
	// their opinion, and the process settles into a metastable equilibrium
	// holding ~b undecided agents and ~b dissenting supporters (b = Σbᵢ),
	// so both exact consensus and "no undecided agents" are exponentially
	// rare events a run must not wait for. The variant's convergence event
	// is therefore dominance, the quantity the paper's analysis bounds: a
	// run ends with OutcomeDominance when one opinion holds at least
	// n − (2b + 3√(n·ln n)) agents — all but the metastable dissent mass
	// plus a fluctuation margin — clamped to no less than the strict
	// majority n/2 + 1, so at most one opinion can ever qualify. In the
	// heavy-stubborn regime (2b + 3√(n·ln n) on the order of n/2 or more)
	// even a strict majority may be unreachable from some configurations;
	// give such runs a budget or a RunUntil stop condition rather than
	// waiting on an absorbing configuration (OutcomeConsensus with all
	// stubborn agents on the winner, OutcomeFrozen, OutcomeAllUndecided —
	// all exponentially rare).
	StubbornAgents Dynamics = stubbornDynamics{}
	// Unconstrained is the unconstrained USD variant (arXiv:2103.10366):
	// undecided agents keep communicating their most recent opinion, so an
	// undecided responder can adopt from a decided or an undecided
	// initiator, and an agent undecided from opinion i keeps i as its
	// latent opinion. Initially-undecided agents are blank — they
	// communicate nothing until their first adoption. The variant is
	// exact-only (no derived window law) and capped at
	// UnconstrainedMaxN agents.
	Unconstrained Dynamics = unconstrainedDynamics{}
)

// VariantNames returns the registered dynamics names in parse order. The
// conformance suite iterates it so a newly registered variant cannot ship
// without conformance coverage.
func VariantNames() []string { return []string{"classic", "stubborn", "unconstrained"} }

// Variant selects a registered dynamics by name and carries its
// serializable parameters; it is the form CLI flags, sweep specs, and
// distributed job specs thread end-to-end. The zero value selects the
// classic dynamics.
type Variant struct {
	// Name is the dynamics name; empty means "classic".
	Name string `json:"name,omitempty"`
	// Stubborn holds the per-opinion stubborn counts of a
	// "stubborn:b0,b1,..." spec; Configure installs them on a
	// configuration. Nil for every other variant (and for a bare
	// "stubborn" spec, whose counts must already live on the
	// configuration).
	Stubborn []int64 `json:"stubborn,omitempty"`
}

// canonicalName resolves the empty name to "classic".
func (v Variant) canonicalName() string {
	if v.Name == "" {
		return "classic"
	}
	return v.Name
}

// Classic reports whether the variant is the classic dynamics.
func (v Variant) Classic() bool { return v.canonicalName() == "classic" }

// Dynamics resolves the variant to its registered Dynamics implementation.
func (v Variant) Dynamics() (Dynamics, error) {
	switch v.canonicalName() {
	case "classic":
		return Classic, nil
	case "stubborn":
		return StubbornAgents, nil
	case "unconstrained":
		return Unconstrained, nil
	default:
		return nil, fmt.Errorf("core: unknown dynamics variant %q (want %s)",
			v.Name, strings.Join(VariantNames(), ", "))
	}
}

// Validate reports whether the variant is well-formed: a registered name
// and parameters only where the variant accepts them.
func (v Variant) Validate() error {
	d, err := v.Dynamics()
	if err != nil {
		return err
	}
	if len(v.Stubborn) > 0 && d.Name() != "stubborn" {
		return fmt.Errorf("core: variant %q takes no stubborn counts (only stubborn:b0,b1,... does)", d.Name())
	}
	for i, b := range v.Stubborn {
		if b < 0 {
			return fmt.Errorf("core: stubborn count %d of opinion %d is negative", b, i)
		}
	}
	return nil
}

// ValidateKernel reports whether kern can run this variant: exact-only
// variants reject the batched and auto kernels with an error enumerating
// the admissible kernels. CLIs and the shard-spec decoder call it at parse
// time so a bad (variant, kernel) pair fails before any trial runs.
func (v Variant) ValidateKernel(kern Kernel) error {
	d, err := v.Dynamics()
	if err != nil {
		return err
	}
	if kern.Batched() && !d.Batchable() {
		return fmt.Errorf("core: dynamics %q is exact-only (no derived window law): kernel %q unavailable, want exact",
			d.Name(), kern.Name())
	}
	return nil
}

// Spec renders the variant in the spec grammar ParseVariantSpec accepts,
// e.g. "classic", "stubborn:100,0,0", "unconstrained".
func (v Variant) Spec() string {
	if len(v.Stubborn) == 0 {
		return v.canonicalName()
	}
	var b strings.Builder
	b.WriteString(v.canonicalName())
	for i, c := range v.Stubborn {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(c, 10))
	}
	return b.String()
}

// String returns the variant's spec form.
func (v Variant) String() string { return v.Spec() }

// Configure installs the variant's parameters on a configuration: a
// "stubborn:b0,b1,..." variant sets c.Stubborn to a copy of its counts
// (whose per-opinion bounds c.Validate then checks); every other variant
// leaves the configuration untouched.
func (v Variant) Configure(c *conf.Config) {
	if len(v.Stubborn) > 0 {
		c.Stubborn = append([]int64(nil), v.Stubborn...)
	}
}

// Prepare resolves the variant for a run of cfg under kern, the one door
// every entry point (facade, CLIs, shard-spec decode) starts a variant's
// trial through: it checks the variant and the kernel against it, installs
// the variant's parameters on a copy of cfg, validates that copy, and
// returns it with the variant's Dynamics. cfg itself is never modified, and
// a bad (variant, kernel, configuration) triple fails here, before any
// trial runs.
func (v Variant) Prepare(cfg *conf.Config, kern Kernel) (*conf.Config, Dynamics, error) {
	if err := v.Validate(); err != nil {
		return nil, nil, err
	}
	if err := v.ValidateKernel(kern); err != nil {
		return nil, nil, err
	}
	c := cfg.Clone()
	v.Configure(c)
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	dyn, err := v.Dynamics()
	return c, dyn, err
}

// ParseVariantSpec parses a dynamics variant spec: a registered variant
// name ("classic", "stubborn", "unconstrained"; empty means classic),
// where the stubborn variant may carry per-opinion counts as
// "stubborn:b0,b1,...". Unknown names and malformed or negative counts are
// rejected with errors enumerating the valid names. CLI -variant flags and
// the shard-spec decoder share this parser.
func ParseVariantSpec(spec string) (Variant, error) {
	name, args, hasArgs := strings.Cut(spec, ":")
	v := Variant{Name: name}
	if _, err := v.Dynamics(); err != nil {
		return Variant{}, err
	}
	if hasArgs {
		if v.canonicalName() != "stubborn" {
			return Variant{}, fmt.Errorf("core: variant %q takes no parameters (only stubborn:b0,b1,... does)", v.canonicalName())
		}
		for _, f := range strings.Split(args, ",") {
			b, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return Variant{}, fmt.Errorf("core: bad stubborn count %q in variant spec %q", f, spec)
			}
			if b < 0 {
				return Variant{}, fmt.Errorf("core: negative stubborn count %d in variant spec %q", b, spec)
			}
			v.Stubborn = append(v.Stubborn, b)
		}
	}
	return v, nil
}

// WithDynamics selects the protocol variant the simulator runs (default
// Classic). Reset rebuilds the variant's state from the configuration, so
// the option composes with arena-style Reset reuse; Reset rejects the
// combination of a batched kernel with an exact-only variant.
func WithDynamics(d Dynamics) Option {
	return func(s *Simulator) { s.dyn = d }
}

// Dynamics returns the simulator's protocol variant.
func (s *Simulator) Dynamics() Dynamics {
	if s.dyn == nil {
		return Classic
	}
	return s.dyn
}

// classicDynamics is the paper's k-USD transition law; its hooks are the
// pre-refactor simulator code paths verbatim, so classic runs are
// byte-identical to the hard-wired engine at every kernel (pinned by the
// golden-output assertions in K1 and the conformance suite).
type classicDynamics struct{}

// Name implements Dynamics.
func (classicDynamics) Name() string { return "classic" }

// Batchable implements Dynamics: classic k-USD has the full window-law
// derivation of the batched and auto kernels.
func (classicDynamics) Batchable() bool { return true }

func (classicDynamics) init(s *Simulator, c *conf.Config) error {
	if c.Stubborn != nil {
		return fmt.Errorf("core: configuration carries stubborn counts but the dynamics is classic (want the stubborn variant)")
	}
	s.tree.SetStubborn(nil)
	s.dynState = nil
	return nil
}

// weight returns W = u·D + (D²−r₂), the number of ordered agent pairs whose
// interaction is productive, where D = n−u. Both products are exact 64×64
// multiplies and the subtraction is exact (r₂ = Σxᵢ² <= D²), so W is the
// exact pair count even at n = MaxN where it reaches ~2⁷⁴.
func (classicDynamics) weight(s *Simulator) u128.U128 {
	d := uint64(s.n - s.u)
	return u128.Mul64(uint64(s.u), d).Add(u128.Mul64(d, d).Sub(s.tree.SumSquares()))
}

func (classicDynamics) apply(s *Simulator, r u128.U128) Event {
	d := s.n - s.u
	wDown := u128.Mul64(uint64(s.u), uint64(d))
	if r.Less(wDown) {
		// Undecided responder adopts opinion j ∝ xⱼ. r is uniform over
		// [0, u·D); r/u is uniform over [0, D), an exact threshold for
		// the support descent. The quotient is below D <= n, so its low
		// word carries the whole value.
		j := s.tree.FindSupport(int64(r.Div64(uint64(s.u)).Lo))
		s.adopt(j)
		return Event{Kind: EventAdopt, Opinion: j, Count: 1}
	}
	// Decided responder i ∝ xᵢ(D−xᵢ) becomes undecided.
	i := s.tree.FindWeighted(d, r.Sub(wDown))
	s.undecide(i)
	return Event{Kind: EventUndecide, Opinion: i, Count: 1}
}

func (classicDynamics) terminal(s *Simulator) (Outcome, int, bool) {
	if s.IsConsensus() {
		winner, _ := s.Max()
		return OutcomeConsensus, winner, true
	}
	return 0, -1, false
}

func (classicDynamics) absorbed(s *Simulator) (Outcome, int) {
	// Classic W = 0 without consensus forces u = n: u·D = 0 with u < n
	// would need D = 0 anyway, and D² = r₂ with D > 0 is consensus.
	return OutcomeAllUndecided, -1
}

func (classicDynamics) driftDivisor() float64 { return wDriftDivisor }

// stubbornDynamics is the stubborn-agent USD variant. The transition law
// keeps the classic adopt channel (u·xⱼ pairs) and restricts the undecide
// channel to free agents: (xᵢ−bᵢ)·(D−xᵢ) ordered pairs, maintained exactly
// by the Fenwick dual's stubborn extension. The invariant xᵢ >= bᵢ holds by
// construction — stubborn agents are never selected to undecide, and
// adoption only grows supports.
type stubbornDynamics struct{}

// Name implements Dynamics.
func (stubbornDynamics) Name() string { return "stubborn" }

// Batchable implements Dynamics: the stubborn window law is derived below
// (see driftDivisor) and shares the classic adopt split.
func (stubbornDynamics) Batchable() bool { return true }

// stubState is the stubborn variant's per-simulator state: the dominance
// threshold, fixed at Reset.
type stubState struct {
	// threshold is the dominance support level n − (2b + 3√(n·ln n)),
	// clamped to at least the strict majority n/2 + 1 (see StubbornAgents).
	threshold int64
	// thresholdSq is threshold², the r₂ lower bound that gates the O(k)
	// dominance scan: r₂ >= max·Σx implies nothing, but max² <= r₂, so
	// r₂ < threshold² proves no opinion has reached the threshold.
	thresholdSq u128.U128
}

func (stubbornDynamics) init(s *Simulator, c *conf.Config) error {
	if c.Stubborn == nil {
		return fmt.Errorf("core: stubborn dynamics requires per-opinion stubborn counts (conf.Config.Stubborn or a stubborn:b0,b1,... variant spec)")
	}
	// c.Validate (run by Reset) already checked len(Stubborn) == k and
	// 0 <= bᵢ <= Supportᵢ, which is exactly the xᵢ >= bᵢ weight contract
	// of the stubborn descent.
	s.tree.SetStubborn(c.Stubborn)
	st, ok := s.dynState.(*stubState)
	if !ok {
		st = &stubState{}
		s.dynState = st
	}
	slack := 2*s.tree.StubbornSum() + int64(3*math.Sqrt(float64(s.n)*math.Log(float64(s.n))))
	st.threshold = s.n - slack
	// Never require less than a strict majority: for moderate stubborn
	// mass the margin formula can dip below n/2, where two opinions could
	// qualify at once. Heavy-stubborn configurations (slack >= ~n/2) may
	// leave even this majority unreachable — such runs need a budget.
	if st.threshold <= s.n/2 {
		st.threshold = s.n/2 + 1
	}
	st.thresholdSq = u128.Mul64(uint64(st.threshold), uint64(st.threshold))
	return nil
}

// weight returns W = u·D + Σ(xᵢ−bᵢ)(D−xᵢ): the adopt pairs plus the
// undecide pairs restricted to free responders.
func (stubbornDynamics) weight(s *Simulator) u128.U128 {
	d := s.n - s.u
	return u128.Mul64(uint64(s.u), uint64(d)).Add(s.tree.TotalWeightedStubborn(d))
}

func (stubbornDynamics) apply(s *Simulator, r u128.U128) Event {
	d := s.n - s.u
	wDown := u128.Mul64(uint64(s.u), uint64(d))
	if r.Less(wDown) {
		// The adopt channel is the classic one: stubborn agents are
		// ordinary initiators.
		j := s.tree.FindSupport(int64(r.Div64(uint64(s.u)).Lo))
		s.adopt(j)
		return Event{Kind: EventAdopt, Opinion: j, Count: 1}
	}
	// Free decided responder i ∝ (xᵢ−bᵢ)(D−xᵢ) becomes undecided. The
	// descent never selects an opinion at its floor (zero weight), so the
	// xᵢ >= bᵢ invariant is preserved.
	i := s.tree.FindWeightedStubborn(d, r.Sub(wDown))
	s.undecide(i)
	return Event{Kind: EventUndecide, Opinion: i, Count: 1}
}

// terminal stops at the dominance event: some opinion's support has reached
// the threshold n − (2b + 3√(n·ln n)) fixed at Reset (see StubbornAgents
// for the derivation; the metastable equilibrium leaves ~2b agents off the
// winner, so the threshold sits a fluctuation margin outside it and is hit
// on the approach). The check is O(1) on the bulk of the trajectory: max²
// <= r₂, so r₂ < threshold² proves no opinion qualifies, and the O(k) max
// scan runs only once the winner is already past the threshold-squared
// gate. Full consensus — reachable only with every stubborn agent on the
// winner — reports OutcomeConsensus.
func (stubbornDynamics) terminal(s *Simulator) (Outcome, int, bool) {
	st := s.dynState.(*stubState)
	if s.tree.SumSquares().Less(st.thresholdSq) {
		return 0, -1, false
	}
	winner, x := s.Max()
	if x < st.threshold {
		return 0, -1, false
	}
	if s.IsConsensus() {
		return OutcomeConsensus, winner, true
	}
	return OutcomeDominance, winner, true
}

func (stubbornDynamics) absorbed(s *Simulator) (Outcome, int) {
	if s.u == s.n {
		return OutcomeAllUndecided, -1
	}
	if s.IsConsensus() {
		// Reachable only when every stubborn agent backs the winner in a
		// heavy-stubborn configuration whose dominance threshold was never
		// crossed first.
		winner, _ := s.Max()
		return OutcomeConsensus, winner
	}
	// W = 0 with u = 0 short of consensus: every opinion sits at its
	// stubborn floor, so nothing can ever change.
	return OutcomeFrozen, -1
}

// driftDivisor is 3 for the stubborn variant: the per-event change of
// W = uD + Σ(xᵢ−bᵢ)(D−xᵢ) telescopes to n − 2xⱼ − 1 − b + bⱼ for an adopt
// of opinion j and 2xᵢ − n − 1 + b − bᵢ for an undecide of opinion i (with
// b = Σbᵢ), so |ΔW| <= 2n+1 per productive event — one n more than the
// classic bound, because the Σbᵢxᵢ cross-term no longer cancels. A window
// of tol·W/(3n) events keeps the relative drift of W below
// tol·(2n+1)/(3n) < tol.
func (stubbornDynamics) driftDivisor() float64 { return 3 }

// UnconstrainedMaxN is the population ceiling of the unconstrained variant:
// ⌊√MaxInt64⌋, so the per-opinion undecide weights xᵢ·(C−zᵢ) <= n² and
// their Fenwick totals stay exact in int64. The classic and stubborn
// variants keep the global conf.MaxN ceiling.
const UnconstrainedMaxN = int64(3037000499)

// ucState is the unconstrained variant's per-simulator state. Alongside the
// decided supports xᵢ (the simulator's dual tree), the variant tracks which
// opinion each undecided agent still communicates: yᵢ undecided agents have
// latent opinion i, u0 are blank (initially undecided, communicating
// nothing), and zᵢ = xᵢ + yᵢ agents communicate opinion i, C = Σzᵢ = n − u0
// in total.
type ucState struct {
	y       *fenwick.Tree // latent-opinion undecided counts yᵢ
	z       *fenwick.Tree // communicated supports zᵢ = xᵢ + yᵢ
	w       *fenwick.Tree // undecide weights wᵢ = xᵢ·(C−zᵢ)
	u0      int64         // blank undecided agents
	c       int64         // communicating agents, n − u0
	scratch []int64       // O(k) rebuild buffer
}

// updateW re-evaluates wᵢ = xᵢ·(C−zᵢ) after a point change to xᵢ or zᵢ.
func (st *ucState) updateW(s *Simulator, i int) {
	nw := s.tree.Get(i) * (st.c - st.z.Get(i))
	st.w.Add(i, nw-st.w.Get(i))
}

// rebuildW recomputes every undecide weight in O(k); needed only when C
// changes, i.e. when a blank agent adopts — at most u0(0) times per run.
func (st *ucState) rebuildW(s *Simulator) {
	for i, x := range s.tree.View() {
		st.scratch[i] = x * (st.c - st.z.Get(i))
	}
	st.w.SetAll(st.scratch)
}

// unconstrainedDynamics is the unconstrained USD variant. Productive pairs:
// an undecided responder adopts the initiator's communicated opinion
// (u·zⱼ pairs for opinion j — decided and latent initiators alike; blank
// initiators communicate nothing), and a decided responder meeting a
// differently-communicated initiator becomes undecided while keeping its
// opinion latent (xᵢ·(C−zᵢ) pairs). W = u·C + Σxᵢ·(C−zᵢ). The only
// absorbing configurations are consensus and all-blank: an all-undecided
// configuration with latent opinions recovers, which is the mechanism
// behind the variant's fast-consensus guarantee.
type unconstrainedDynamics struct{}

// Name implements Dynamics.
func (unconstrainedDynamics) Name() string { return "unconstrained" }

// Batchable implements Dynamics: the variant is exact-only. Its window law
// would need the joint drift of (u, u0, every yᵢ) — the frozen-law window
// samplers and the leap condition in this package cover only the classic
// (x, u) state, so there is no honest derivation to freeze; Reset and
// Variant.ValidateKernel reject batched kernels instead.
func (unconstrainedDynamics) Batchable() bool { return false }

func (unconstrainedDynamics) init(s *Simulator, c *conf.Config) error {
	if c.Stubborn != nil {
		return fmt.Errorf("core: configuration carries stubborn counts but the dynamics is unconstrained (want the stubborn variant)")
	}
	if s.n > UnconstrainedMaxN {
		return fmt.Errorf("core: unconstrained dynamics supports n <= %d (int64-exact undecide weights), got n = %d",
			UnconstrainedMaxN, s.n)
	}
	s.tree.SetStubborn(nil)
	k := s.tree.Len()
	st, ok := s.dynState.(*ucState)
	if !ok || st.y.Len() != k {
		st = &ucState{
			y:       fenwick.New(k),
			z:       fenwick.New(k),
			w:       fenwick.New(k),
			scratch: make([]int64, k),
		}
		s.dynState = st
	}
	st.u0 = c.Undecided
	st.c = s.n - st.u0
	for i := range st.scratch {
		st.scratch[i] = 0
	}
	st.y.SetAll(st.scratch)
	st.z.SetAll(c.Support)
	st.rebuildW(s)
	return nil
}

func (unconstrainedDynamics) weight(s *Simulator) u128.U128 {
	st := s.dynState.(*ucState)
	return u128.Mul64(uint64(s.u), uint64(st.c)).Add(u128.From64(st.w.Total()))
}

func (unconstrainedDynamics) apply(s *Simulator, r u128.U128) Event {
	st := s.dynState.(*ucState)
	wAdopt := u128.Mul64(uint64(s.u), uint64(st.c))
	if r.Less(wAdopt) {
		// r = q·u + rem with (q, rem) uniform on [0, C) × [0, u) and
		// independent: q selects the communicated opinion ∝ zⱼ, rem
		// selects the responder's undecided bucket (blank, then latent
		// opinions in index order) ∝ counts — one threshold drives both
		// exact descents.
		q := r.Div64(uint64(s.u))
		rem := int64(r.Sub(u128.Mul64(q.Lo, uint64(s.u))).Lo)
		j := st.z.Find(int64(q.Lo))
		if rem < st.u0 {
			// A blank responder adopts j and joins the communicating
			// mass: C grows, so every undecide weight changes.
			st.u0--
			st.c++
			s.adopt(j)
			st.z.Add(j, 1)
			st.rebuildW(s)
			return Event{Kind: EventAdopt, Opinion: j, Count: 1}
		}
		i := st.y.Find(rem - st.u0) // the responder's latent opinion
		st.y.Add(i, -1)
		s.adopt(j)
		if i != j {
			// The responder stops communicating i and starts
			// communicating j; zⱼ and zᵢ move, so both weights do.
			st.z.Add(j, 1)
			st.z.Add(i, -1)
			st.updateW(s, i)
		}
		st.updateW(s, j)
		return Event{Kind: EventAdopt, Opinion: j, Count: 1}
	}
	// Decided responder i ∝ xᵢ·(C−zᵢ) becomes undecided with latent
	// opinion i: zᵢ is unchanged (it still communicates i), only the
	// decided/undecided split moves.
	i := st.w.Find(int64(r.Sub(wAdopt).Lo))
	s.undecide(i)
	st.y.Add(i, 1)
	st.updateW(s, i)
	return Event{Kind: EventUndecide, Opinion: i, Count: 1}
}

func (unconstrainedDynamics) terminal(s *Simulator) (Outcome, int, bool) {
	if s.IsConsensus() {
		winner, _ := s.Max()
		return OutcomeConsensus, winner, true
	}
	return 0, -1, false
}

func (unconstrainedDynamics) absorbed(s *Simulator) (Outcome, int) {
	st := s.dynState.(*ucState)
	if st.u0 == s.n {
		// All agents blank: nobody communicates, nothing can change. Only
		// reachable from an all-undecided start.
		return OutcomeAllUndecided, -1
	}
	// Unreachable: W = 0 with a communicating agent and no consensus is
	// impossible (u > 0 gives u·C > 0; u = 0 gives Σxᵢ(C−zᵢ) = 0 only at
	// consensus). Defensive classification.
	return OutcomeFrozen, -1
}

func (unconstrainedDynamics) driftDivisor() float64 {
	panic("core: unconstrained dynamics has no window law")
}
