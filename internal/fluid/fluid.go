// Package fluid implements the mean-field (fluid) limit of the undecided
// state dynamics: the system of ODEs obtained from the expected one-
// interaction drift in the large-n limit, integrated with a classical
// fourth-order Runge-Kutta scheme.
//
// Writing aᵢ = xᵢ/n and υ = u/n for the densities and measuring time in
// parallel units (n interactions per unit), Observation 8 gives
//
//	daᵢ/dτ = aᵢ·(2υ − 1 + aᵢ)
//	dυ/dτ  = (1−υ)² − Σaᵢ² − υ(1−υ)
//
// which conserves Σaᵢ + υ = 1. The unique interior symmetric fixed point
// has υ = (k−1)/(2k−1) — exactly the unstable equilibrium u*/n the paper
// identifies before Lemma 3: it attracts within the symmetric manifold
// (where all aᵢ agree) and repels transversally (any bias grows), which is
// why the stochastic system first fills up with undecided agents (Phase 1)
// and then amplifies its largest opinion (Phases 2-4).
//
// By Kurtz's density-dependence theorem, trajectories of the stochastic
// system started at density s stay within O(1/√n) of the fluid trajectory
// over any fixed horizon; the F7-fluid-limit experiment measures exactly
// this convergence.
package fluid

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/conf"
)

// State holds opinion and undecided densities. The densities must be
// non-negative and sum to 1.
type State struct {
	// A holds the opinion densities a₁..a_k.
	A []float64
	// U is the undecided density.
	U float64
}

// FromConfig converts an aggregate configuration to densities.
func FromConfig(c *conf.Config) (State, error) {
	if err := c.Validate(); err != nil {
		return State{}, fmt.Errorf("fluid: invalid configuration: %w", err)
	}
	n := float64(c.N())
	s := State{A: make([]float64, c.K()), U: float64(c.Undecided) / n}
	for i, x := range c.Support {
		s.A[i] = float64(x) / n
	}
	return s, nil
}

// Clone returns a deep copy.
func (s State) Clone() State {
	return State{A: append([]float64(nil), s.A...), U: s.U}
}

// Mass returns Σaᵢ + υ (1 for a valid state, conserved by the flow).
func (s State) Mass() float64 {
	m := s.U
	for _, a := range s.A {
		m += a
	}
	return m
}

// Validate checks non-negativity and unit mass.
func (s State) Validate() error {
	if len(s.A) == 0 {
		return errors.New("fluid: state needs at least one opinion")
	}
	for i, a := range s.A {
		if a < -1e-12 || math.IsNaN(a) {
			return fmt.Errorf("fluid: density %d = %v", i, a)
		}
	}
	if s.U < -1e-12 || math.IsNaN(s.U) {
		return fmt.Errorf("fluid: undecided density = %v", s.U)
	}
	if m := s.Mass(); math.Abs(m-1) > 1e-9 {
		return fmt.Errorf("fluid: total mass = %v, want 1", m)
	}
	return nil
}

// Field writes the USD vector field at s into deriv (resized as needed)
// and returns it.
func Field(s State, deriv *State) {
	if len(deriv.A) != len(s.A) {
		deriv.A = make([]float64, len(s.A))
	}
	var r2 float64
	for _, a := range s.A {
		r2 += a * a
	}
	d := 1 - s.U
	for i, a := range s.A {
		deriv.A[i] = a * (2*s.U - 1 + a)
	}
	deriv.U = d*d - r2 - s.U*d
}

// Equilibrium returns the symmetric interior fixed point's undecided
// density (k−1)/(2k−1) — the fluid counterpart of the paper's u*.
func Equilibrium(k int) float64 {
	if k <= 0 {
		return 0
	}
	return float64(k-1) / float64(2*k-1)
}

// Integrator advances a fluid state with fixed-step RK4. The zero value is
// not usable; construct with NewIntegrator.
type Integrator struct {
	dt float64
	// scratch stages
	k1, k2, k3, k4, tmp State
}

// NewIntegrator returns an integrator with the given time step in parallel
// time units. dt must be positive; 1e-2 is ample for the USD field.
func NewIntegrator(dt float64) (*Integrator, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("fluid: invalid step %v", dt)
	}
	return &Integrator{dt: dt}, nil
}

// Step advances s by one RK4 step in place.
func (in *Integrator) Step(s *State) {
	Field(*s, &in.k1)
	in.axpy(s, &in.k1, in.dt/2)
	Field(in.tmp, &in.k2)
	in.axpy(s, &in.k2, in.dt/2)
	Field(in.tmp, &in.k3)
	in.axpy(s, &in.k3, in.dt)
	Field(in.tmp, &in.k4)
	h := in.dt / 6
	for i := range s.A {
		s.A[i] += h * (in.k1.A[i] + 2*in.k2.A[i] + 2*in.k3.A[i] + in.k4.A[i])
		if s.A[i] < 0 {
			s.A[i] = 0
		}
	}
	s.U += h * (in.k1.U + 2*in.k2.U + 2*in.k3.U + in.k4.U)
	if s.U < 0 {
		s.U = 0
	}
}

// axpy sets tmp = s + c·k.
func (in *Integrator) axpy(s *State, k *State, c float64) {
	if len(in.tmp.A) != len(s.A) {
		in.tmp.A = make([]float64, len(s.A))
	}
	for i := range s.A {
		in.tmp.A[i] = s.A[i] + c*k.A[i]
	}
	in.tmp.U = s.U + c*k.U
}

// Solve integrates from s0 until time horizon, invoking each (if non-nil)
// after every step with the current time and state, and returns the final
// state.
func (in *Integrator) Solve(s0 State, horizon float64, each func(tau float64, s State)) (State, error) {
	if err := s0.Validate(); err != nil {
		return State{}, err
	}
	if horizon < 0 || math.IsNaN(horizon) {
		return State{}, fmt.Errorf("fluid: invalid horizon %v", horizon)
	}
	s := s0.Clone()
	steps := int(math.Ceil(horizon / in.dt))
	for i := 0; i < steps; i++ {
		in.Step(&s)
		if each != nil {
			each(float64(i+1)*in.dt, s)
		}
	}
	return s, nil
}
