// Package potential implements the analytic quantities the paper's proof
// tracks: the unstable undecided equilibrium u* = n(k−1)/(2k−1), the
// significance threshold α√(n log n) below the maximum support, the
// undecided-count band of Lemmas 3-4, the exact one-step transition
// probabilities of Observations 6 and 8, and the monochromatic distance of
// Becchetti et al. used in the Appendix D comparison.
//
// All logarithms follow the paper's convention: bounds stated with "log"
// use the natural logarithm ln, matching the constants in Lemmas 3-4
// (e.g. 8√(n ln n)).
package potential

import (
	"math"

	"repro/internal/conf"
)

// EquilibriumUndecided returns u* = n(k−1)/(2k−1), the unstable equilibrium
// for the number of undecided agents (paper, discussion before Lemma 3).
func EquilibriumUndecided(n int64, k int) float64 {
	if k <= 0 {
		return 0
	}
	return float64(n) * float64(k-1) / float64(2*k-1)
}

// SignificanceThreshold returns α·√(n ln n), the additive margin below the
// maximum at which an opinion stops being significant.
func SignificanceThreshold(n int64, alpha float64) float64 {
	if n <= 1 {
		return 0
	}
	return alpha * math.Sqrt(float64(n)*math.Log(float64(n)))
}

// UndecidedLowerBound returns the Lemma 4 floor that holds w.h.p. for all
// t ∈ [T₁, n³]: u(t) ≥ n/2 − xmax(t)/2 − 8√(n ln n).
func UndecidedLowerBound(n, xmax int64) float64 {
	return float64(n)/2 - float64(xmax)/2 - 8*math.Sqrt(float64(n)*math.Log(float64(n)))
}

// UndecidedUpperBound returns the Lemma 3 ceiling that holds w.h.p. for all
// t ∈ [0, n³]: u(t) ≤ n/2 − √(n ln n)/(5c), where c is the constant in the
// assumption k ≤ c·√n/log²n.
func UndecidedUpperBound(n int64, c float64) float64 {
	if c <= 0 {
		c = 1
	}
	return float64(n)/2 - math.Sqrt(float64(n)*math.Log(float64(n)))/(5*c)
}

// MonochromaticDistance returns md(x) = Σᵢ (xᵢ/xmax)², the measure of
// configuration uniformity from Becchetti et al. used in Appendix D.
// It lies in [1, k] for any configuration with at least one decided agent,
// and is 0 for an all-undecided configuration.
func MonochromaticDistance(support []int64) float64 {
	var xmax int64
	for _, x := range support {
		if x > xmax {
			xmax = x
		}
	}
	if xmax == 0 {
		return 0
	}
	var md float64
	for _, x := range support {
		r := float64(x) / float64(xmax)
		md += r * r
	}
	return md
}

// Probs bundles the exact one-interaction transition probabilities for the
// number of undecided agents (Observation 6).
type Probs struct {
	// Down is p₋ = u(n−u)/n², the probability that an undecided responder
	// adopts an opinion (u decreases by one).
	Down float64
	// Up is p₊ = ((n−u)² − r₂)/n², the probability that a decided responder
	// meets a differently-decided initiator and becomes undecided.
	Up float64
}

// Productive returns p₋ + p₊, the probability that an interaction changes
// the configuration at all.
func (p Probs) Productive() float64 { return p.Down + p.Up }

// UndecidedProbs returns the Observation 6 probabilities for configuration c.
func UndecidedProbs(c *conf.Config) Probs {
	n := float64(c.N())
	u := float64(c.Undecided)
	d := n - u
	r2 := c.SumSquares().Float64()
	return Probs{
		Down: u * d / (n * n),
		Up:   (d*d - r2) / (n * n),
	}
}

// OpinionProbs returns the Observation 8 probabilities for opinion i in c:
// up = u·xᵢ/n² (an undecided responder adopts i) and down =
// xᵢ(n−u−xᵢ)/n² (an i-responder meets a differently-decided initiator).
func OpinionProbs(c *conf.Config, i int) (up, down float64) {
	n := float64(c.N())
	u := float64(c.Undecided)
	xi := float64(c.Support[i])
	return u * xi / (n * n), xi * (n - u - xi) / (n * n)
}
