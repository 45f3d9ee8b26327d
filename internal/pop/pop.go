// Package pop implements a general agent-level population-protocol engine.
//
// A population protocol is a transition function δ: Q² → Q² applied to an
// ordered pair (responder, initiator) of agents drawn by a scheduler. The
// engine in this package keeps the full n-agent state vector, so it
// simulates any pairwise protocol exactly — including ones whose aggregate
// state is not a small vector — at O(1) cost per interaction.
//
// For the USD specifically, the aggregate simulator in internal/core is
// asymptotically faster; this engine serves as the ground truth it is
// validated against, and as the substrate for scheduler variations
// (forbidding self-interactions, heterogeneous activation weights) that
// the aggregate simulator cannot express.
package pop

import (
	"errors"
	"fmt"

	"repro/internal/conf"
	"repro/internal/rng"
)

// State is an agent state: Undecided (0) or an opinion in 1..k.
type State int32

// Undecided is the distinguished undecided state ⊥.
const Undecided State = 0

// Protocol is a pairwise transition function over states {⊥, 1..k}.
type Protocol interface {
	// K returns the number of opinions.
	K() int
	// Delta maps (responder, initiator) to their successor states.
	Delta(responder, initiator State) (State, State)
}

// USD is the undecided state dynamics transition function from the paper:
// only the responder changes state.
type USD struct {
	// Opinions is the number of opinions k.
	Opinions int
}

// K returns the number of opinions.
func (p USD) K() int { return p.Opinions }

// Delta applies the USD rule.
func (p USD) Delta(responder, initiator State) (State, State) {
	switch {
	case responder != Undecided && initiator != Undecided && responder != initiator:
		return Undecided, initiator
	case responder == Undecided && initiator != Undecided:
		return initiator, initiator
	default:
		return responder, initiator
	}
}

// Voter is the pairwise voter baseline: the responder adopts the
// initiator's opinion whenever the initiator is decided.
type Voter struct {
	// Opinions is the number of opinions k.
	Opinions int
}

// K returns the number of opinions.
func (p Voter) K() int { return p.Opinions }

// Delta applies the voter rule.
func (p Voter) Delta(responder, initiator State) (State, State) {
	if initiator != Undecided {
		return initiator, initiator
	}
	return responder, initiator
}

// Scheduler chooses the next ordered interaction pair.
type Scheduler interface {
	// Pair returns (responder, initiator) indices in [0, n).
	Pair(n int) (responder, initiator int)
}

// UniformScheduler draws both indices independently and uniformly,
// allowing self-interactions — the paper's scheduling model.
type UniformScheduler struct {
	// Src is the randomness source; it must be non-nil.
	Src *rng.Source
}

// Pair draws a uniform ordered pair with replacement.
func (u UniformScheduler) Pair(n int) (int, int) {
	return u.Src.Intn(n), u.Src.Intn(n)
}

// NoSelfScheduler draws a uniform ordered pair of two distinct agents.
// This is the common alternative convention; experiment A3 quantifies the
// O(1/n) difference against the paper's model.
type NoSelfScheduler struct {
	// Src is the randomness source; it must be non-nil.
	Src *rng.Source
}

// Pair draws a uniform ordered pair without replacement.
func (s NoSelfScheduler) Pair(n int) (int, int) {
	i := s.Src.Intn(n)
	j := s.Src.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// Engine simulates a population protocol over an explicit agent vector.
// It is not safe for concurrent use. Construct with NewEngine.
type Engine struct {
	agents []State
	counts []int64 // per-opinion counts, index 0..k-1
	u      int64
	proto  Protocol
	sched  Scheduler
	steps  int64
}

// NewEngine builds an engine from an initial aggregate configuration. The
// agent vector lists opinion-0 agents first, then opinion 1, …, then the
// undecided agents; since the scheduler choices are exchangeable, the
// ordering is immaterial.
func NewEngine(c *conf.Config, proto Protocol, sched Scheduler) (*Engine, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("pop: invalid configuration: %w", err)
	}
	if proto == nil || sched == nil {
		return nil, errors.New("pop: nil protocol or scheduler")
	}
	if proto.K() != c.K() {
		return nil, fmt.Errorf("pop: protocol has k=%d but configuration has k=%d", proto.K(), c.K())
	}
	n := c.N()
	if n > 1<<31 {
		return nil, fmt.Errorf("pop: population %d too large for agent-level simulation", n)
	}
	e := &Engine{
		agents: make([]State, 0, n),
		counts: append([]int64(nil), c.Support...),
		u:      c.Undecided,
		proto:  proto,
		sched:  sched,
	}
	for op, x := range c.Support {
		for i := int64(0); i < x; i++ {
			e.agents = append(e.agents, State(op+1))
		}
	}
	for i := int64(0); i < c.Undecided; i++ {
		e.agents = append(e.agents, Undecided)
	}
	return e, nil
}

// N returns the population size.
func (e *Engine) N() int64 { return int64(len(e.agents)) }

// K returns the number of opinions.
func (e *Engine) K() int { return len(e.counts) }

// Undecided returns the current undecided count.
func (e *Engine) Undecided() int64 { return e.u }

// Support returns the current support of opinion i (0-based).
func (e *Engine) Support(i int) int64 { return e.counts[i] }

// Interactions returns the interaction clock.
func (e *Engine) Interactions() int64 { return e.steps }

// Config returns a snapshot of the aggregate configuration.
func (e *Engine) Config() *conf.Config {
	return &conf.Config{
		Support:   append([]int64(nil), e.counts...),
		Undecided: e.u,
	}
}

// IsConsensus reports whether all agents hold the same opinion.
func (e *Engine) IsConsensus() bool {
	if e.u != 0 {
		return false
	}
	n := e.N()
	for _, c := range e.counts {
		if c == n {
			return true
		}
	}
	return false
}

// Step simulates one interaction.
func (e *Engine) Step() {
	i, j := e.sched.Pair(len(e.agents))
	e.steps++
	ri, rj := e.proto.Delta(e.agents[i], e.agents[j])
	if ri != e.agents[i] {
		e.retag(e.agents[i], ri)
		e.agents[i] = ri
	}
	// A self-interaction (i == j) never changes state under protocols whose
	// Delta is the identity on equal pairs; guard anyway so that a protocol
	// returning a changed initiator for i == j cannot corrupt the counts.
	if i != j && rj != e.agents[j] {
		e.retag(e.agents[j], rj)
		e.agents[j] = rj
	}
}

func (e *Engine) retag(old, nw State) {
	if old == Undecided {
		e.u--
	} else {
		e.counts[old-1]--
	}
	if nw == Undecided {
		e.u++
	} else {
		e.counts[nw-1]++
	}
}

// Result summarizes a Run. Winner is -1 unless consensus was reached.
type Result struct {
	// Consensus reports whether all agents agreed on one opinion.
	Consensus bool
	// Winner is the 0-based consensus opinion, or -1.
	Winner int
	// Interactions is the interaction clock at termination.
	Interactions int64
}

// Run simulates until consensus or until the interaction budget is
// exhausted (budget <= 0 means until consensus).
func (e *Engine) Run(budget int64) Result {
	for !e.IsConsensus() {
		if budget > 0 && e.steps >= budget {
			return Result{Winner: -1, Interactions: e.steps}
		}
		if e.u == e.N() {
			// All-undecided is absorbing; report as non-consensus.
			return Result{Winner: -1, Interactions: e.steps}
		}
		e.Step()
	}
	winner := -1
	for i, c := range e.counts {
		if c == e.N() {
			winner = i
			break
		}
	}
	return Result{Consensus: true, Winner: winner, Interactions: e.steps}
}
