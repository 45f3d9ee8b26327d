// Package exact computes exact quantities of the USD Markov chain for
// small populations by enumerating the configuration space and solving the
// absorbing-chain linear systems: expected consensus times (in
// interactions) and per-opinion winning probabilities.
//
// The USD on aggregate configurations is a Markov chain on the
// compositions (x₁, …, x_k, u) of n. Each state has at most 2k successors:
// for every opinion i, an "adopt" transition (u−1, xᵢ+1) with probability
// u·xᵢ/n² and an "undecide" transition (u+1, xᵢ−1) with probability
// xᵢ(D−xᵢ)/n², D = n−u; all remaining probability is a self-loop. The k
// consensus states are absorbing, and so is the all-undecided state. The
// expected hitting times h and winning probabilities w solve
//
//	h(s) = 1 + Σ_{s'} P(s,s')·h(s')        h(absorbing) = 0
//	wᵢ(s) = Σ_{s'} P(s,s')·wᵢ(s')          wᵢ(consensus j) = [i = j]
//
// New enumerates the states once and builds their transition rows once:
// the productive edges of every state and their total probability (the
// self-loop is the complement, folded into the diagonal). A state is
// absorbing exactly when that total is zero. Both systems are then solved
// by one Gauss-Seidel loop that sweeps the rows in alternating direction
// (both systems are irreducibly diagonally dominant after the fold, so the
// iteration converges). It stops when a sweep's largest update falls below
// a tolerance; that is a stall test, not an error bound. This provides
// ground truth that the simulators are validated against in tests and in
// the X3-exact-validation experiment.
package exact

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/conf"
)

// Limits keeping the state space enumerable: the number of states is
// C(n+k, k).
const (
	// MaxOpinions is the largest k supported.
	MaxOpinions = 4
	// MaxStates bounds the enumerated state count.
	MaxStates = 2_000_000
)

// ErrTooLarge is returned when the configuration space exceeds the limits.
var ErrTooLarge = errors.New("exact: state space too large")

// bits is the width of one part of a packed state key (n <= 4000 < 2¹²).
const bits = 12

// Chain is the exact USD chain for a fixed (n, k). Construct with New.
type Chain struct {
	n int64
	k int
	// keys[id] packs the state (x₁..x_k, u), 12 bits per part with x₁
	// most significant. Enumeration order is ascending key order, so ids
	// are found by binary search.
	keys []uint64
	// The productive edges of state id are to[e], p[e] for e in
	// [start[id], start[id+1]); total[id] is their summed probability.
	start []int32
	to    []int32
	p     []float64
	total []float64
}

// New enumerates the configuration space for n agents and k opinions and
// builds its transition rows.
func New(n int64, k int) (*Chain, error) {
	if k < 1 || k > MaxOpinions {
		return nil, fmt.Errorf("exact: k = %d out of [1, %d]", k, MaxOpinions)
	}
	if n < 1 || n > 4000 {
		return nil, fmt.Errorf("exact: n = %d out of [1, 4000]", n)
	}
	count := stateCount(n, k)
	if count > MaxStates {
		return nil, fmt.Errorf("%w: %d states for n=%d k=%d", ErrTooLarge, count, n, k)
	}
	c := &Chain{
		n:     n,
		k:     k,
		keys:  make([]uint64, 0, count),
		start: make([]int32, 0, count+1),
		total: make([]float64, count),
	}
	// Enumerate all compositions of n into k+1 parts.
	c.enumerate(0, 0, uint64(n))
	c.buildRows()
	return c, nil
}

// stateCount returns C(n+k, k).
func stateCount(n int64, k int) int64 {
	count := int64(1)
	for i := 1; i <= k; i++ {
		count = count * (n + int64(i)) / int64(i)
	}
	return count
}

func (c *Chain) enumerate(key uint64, pos int, remaining uint64) {
	if pos == c.k {
		c.keys = append(c.keys, key<<bits|remaining)
		return
	}
	for v := uint64(0); v <= remaining; v++ {
		c.enumerate(key<<bits|v, pos+1, remaining-v)
	}
}

// buildRows emits the productive edges of every state: per opinion i, the
// adopt edge (xᵢ+1, u−1) and then the undecide edge (xᵢ−1, u+1).
func (c *Chain) buildRows() {
	const mask = 1<<bits - 1
	nn := float64(c.n) * float64(c.n)
	for id, key := range c.keys {
		c.start = append(c.start, int32(len(c.to)))
		u := int64(key & mask)
		d := c.n - u
		for i := 0; i < c.k; i++ {
			shift := uint(bits * (c.k - i))
			xi := int64(key >> shift & mask)
			if xi == 0 {
				continue
			}
			if u > 0 {
				c.addEdge(id, key+1<<shift-1, float64(u*xi)/nn)
			}
			if other := d - xi; other > 0 {
				c.addEdge(id, key-1<<shift+1, float64(xi*other)/nn)
			}
		}
	}
	c.start = append(c.start, int32(len(c.to)))
}

func (c *Chain) addEdge(id int, key uint64, p float64) {
	to, _ := slices.BinarySearch(c.keys, key)
	c.to = append(c.to, int32(to))
	c.p = append(c.p, p)
	c.total[id] += p
}

// States returns the number of enumerated states.
func (c *Chain) States() int { return len(c.keys) }

// N returns the population size.
func (c *Chain) N() int64 { return c.n }

// K returns the number of opinions.
func (c *Chain) K() int { return c.k }

// StateID returns the id of a configuration in the vectors returned by
// ExpectedConsensusTimes and WinProbabilities. The configuration must have
// the chain's exact n and k.
func (c *Chain) StateID(cfg *conf.Config) (int, error) {
	if cfg.K() != c.k || cfg.N() != c.n {
		return 0, fmt.Errorf("exact: configuration (n=%d, k=%d) does not match chain (n=%d, k=%d)",
			cfg.N(), cfg.K(), c.n, c.k)
	}
	var key uint64
	for _, x := range cfg.Support {
		key = key<<bits | uint64(x)
	}
	id, ok := slices.BinarySearch(c.keys, key<<bits|uint64(cfg.Undecided))
	if !ok {
		return 0, fmt.Errorf("exact: configuration %v not found", cfg)
	}
	return id, nil
}

// solver configuration.
const (
	maxSweeps = 200000
	tolerance = 1e-12
)

// solve iterates v(s) = (b + Σ p(s,s')·v(s')) / total(s) over the
// transient states by Gauss-Seidel with alternating sweep direction; the
// absorbing entries of v keep their given values. It reports whether a
// sweep's largest update fell to tolerance·(1 + b·max v) within maxSweeps.
func (c *Chain) solve(v []float64, b float64) bool {
	last := len(c.keys) - 1
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var maxDelta, scale float64
		for pos := 0; pos <= last; pos++ {
			id := pos
			if sweep%2 == 1 {
				id = last - pos
			}
			if c.total[id] == 0 {
				continue
			}
			var sum float64
			for e := c.start[id]; e < c.start[id+1]; e++ {
				sum += c.p[e] * v[c.to[e]]
			}
			nv := (b + sum) / c.total[id]
			if delta := math.Abs(nv - v[id]); delta > maxDelta {
				maxDelta = delta
			}
			if nv > scale {
				scale = nv
			}
			v[id] = nv
		}
		if maxDelta <= tolerance*(1+b*scale) {
			return true
		}
	}
	return false
}

// ExpectedConsensusTimes solves for the expected number of interactions to
// absorption from every state and returns the vector indexed by state id,
// plus the id lookup for a start configuration via StateID. States from
// which absorption is impossible do not exist in this chain (absorption is
// almost sure), so the system has a unique solution.
func (c *Chain) ExpectedConsensusTimes() ([]float64, error) {
	h := make([]float64, len(c.keys))
	if !c.solve(h, 1) {
		return nil, errors.New("exact: expected-time solver did not converge")
	}
	return h, nil
}

// WinProbabilities solves for the probability that opinion `win` is the
// eventual consensus opinion, from every state.
func (c *Chain) WinProbabilities(win int) ([]float64, error) {
	if win < 0 || win >= c.k {
		return nil, fmt.Errorf("exact: opinion %d out of range", win)
	}
	w := make([]float64, len(c.keys))
	id, _ := slices.BinarySearch(c.keys, uint64(c.n)<<(bits*(c.k-win)))
	w[id] = 1
	if !c.solve(w, 0) {
		return nil, errors.New("exact: win-probability solver did not converge")
	}
	return w, nil
}

// ExpectedTimeFrom returns the expected interactions to absorption from a
// start configuration.
func (c *Chain) ExpectedTimeFrom(cfg *conf.Config) (float64, error) {
	id, err := c.StateID(cfg)
	if err != nil {
		return 0, err
	}
	h, err := c.ExpectedConsensusTimes()
	if err != nil {
		return 0, err
	}
	return h[id], nil
}

// WinProbabilityFrom returns the probability that opinion `win` wins from
// a start configuration.
func (c *Chain) WinProbabilityFrom(cfg *conf.Config, win int) (float64, error) {
	id, err := c.StateID(cfg)
	if err != nil {
		return 0, err
	}
	w, err := c.WinProbabilities(win)
	if err != nil {
		return 0, err
	}
	return w[id], nil
}
