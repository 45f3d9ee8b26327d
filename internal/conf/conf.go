// Package conf defines opinion configurations for the undecided state
// dynamics and generators for the initial workloads used throughout the
// paper's analysis: unbiased (uniform) configurations, configurations with a
// prescribed additive or multiplicative bias, and skewed (Zipf-like)
// support vectors.
//
// A configuration is the aggregate state of a population: the support of
// each of the k opinions plus the number of undecided agents. Opinions are
// indexed 0..k-1 in code; the paper's "Opinion 1" (the initial plurality) is
// index 0 by convention in all generators.
package conf

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/u128"
)

// MaxN is the largest population size the simulators support: 10¹¹.
//
// The old cap was ⌊√MaxInt64⌋ = 3037000499, forced by the n² ordered-pair
// interaction clock fitting int64. With the clock, the productive weight W,
// and the Fenwick square sums all carried as u128.U128 that constraint is
// gone — n² = 10²² ≈ 2⁷⁴ fits 128 bits with ~54 bits of headroom, enough
// that even the n²·ln n-scale worst-case consensus times stay far from
// saturation. The remaining binding constraints are:
//
//   - Per-opinion supports and their pairwise sums must stay exact in the
//     float64 probability layer: the multinomial window split and the
//     Fenwick Add factorization use quantities up to 2n, and 2·10¹¹ ≈ 2³⁸
//     is far below the 2⁵³ float64 integer limit.
//   - conf.Validate's wrap-proof running-sum argument needs 2·MaxN to fit
//     int64; 2·10¹¹ ≪ 2⁶³.
//   - Practicality: consensus at n = 10¹¹ takes Θ(n log n) productive
//     interactions, which the batched kernel compresses to minutes of
//     wall-clock, while n = 10¹² would additionally push per-run memory for
//     k = Θ(n) regimes past commodity RAM. 10¹¹ is the round decade that
//     keeps every layer exact with margin.
const MaxN = int64(100_000_000_000)

// Config is an aggregate opinion configuration. The zero value is invalid;
// use a generator or FromSupport.
type Config struct {
	// Support holds the number of agents per opinion, indexed 0..k-1.
	Support []int64
	// Undecided is the number of agents in the undecided state.
	Undecided int64
	// Stubborn, when non-nil, holds the per-opinion stubborn agent counts
	// of the stubborn-agent USD variant (arXiv:2406.07335): bᵢ of the xᵢ
	// supporters of opinion i never leave it. It must have exactly one
	// entry per opinion with 0 <= Stubborn[i] <= Support[i]; nil means no
	// stubborn agents. Only the stubborn dynamics reads it — the classic
	// and unconstrained dynamics reject configurations that carry it.
	Stubborn []int64
}

// Validation errors returned by Config.Validate and the generators.
var (
	ErrNoOpinions   = errors.New("conf: configuration needs at least one opinion")
	ErrNegative     = errors.New("conf: negative agent count")
	ErrTooLarge     = fmt.Errorf("conf: population exceeds MaxN = %d", MaxN)
	ErrEmpty        = errors.New("conf: population is empty")
	ErrBadBias      = errors.New("conf: bias parameter out of range")
	ErrBadUndecided = errors.New("conf: undecided count out of range")
	ErrBadStubborn  = errors.New("conf: stubborn counts out of range")
)

// FromSupport builds a configuration from a support vector and an undecided
// count. The slice is copied (values at boundaries are owned by the Config).
func FromSupport(support []int64, undecided int64) (*Config, error) {
	c := &Config{
		Support:   append([]int64(nil), support...),
		Undecided: undecided,
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate reports whether the configuration is well-formed: at least one
// opinion, no negative counts, a positive population no larger than MaxN.
func (c *Config) Validate() error {
	if len(c.Support) == 0 {
		return ErrNoOpinions
	}
	if c.Undecided < 0 {
		return fmt.Errorf("%w: undecided = %d", ErrNegative, c.Undecided)
	}
	// Reject each addend before accumulating: any single count above MaxN
	// is already invalid, and with every addend and the running sum capped
	// at MaxN the sum never exceeds 2·MaxN, so it cannot wrap int64 and
	// sneak a negative population past the checks.
	var n int64
	for i, x := range c.Support {
		if x < 0 {
			return fmt.Errorf("%w: opinion %d has support %d", ErrNegative, i, x)
		}
		if x > MaxN {
			return ErrTooLarge
		}
		n += x
		if n > MaxN {
			return ErrTooLarge
		}
	}
	if c.Undecided > MaxN {
		return ErrTooLarge
	}
	n += c.Undecided
	if n > MaxN {
		return ErrTooLarge
	}
	if n == 0 {
		return ErrEmpty
	}
	if c.Stubborn != nil {
		if len(c.Stubborn) != len(c.Support) {
			return fmt.Errorf("%w: %d stubborn counts for %d opinions",
				ErrBadStubborn, len(c.Stubborn), len(c.Support))
		}
		for i, b := range c.Stubborn {
			// Support[i] <= MaxN was established above, so the comparison
			// cannot be confused by wrapped values.
			if b < 0 || b > c.Support[i] {
				return fmt.Errorf("%w: opinion %d has stubborn count %d with support %d",
					ErrBadStubborn, i, b, c.Support[i])
			}
		}
	}
	return nil
}

// N returns the total population size, Σ support + undecided.
func (c *Config) N() int64 {
	n := c.Undecided
	for _, x := range c.Support {
		n += x
	}
	return n
}

// K returns the number of opinions (decided states).
func (c *Config) K() int { return len(c.Support) }

// Clone returns a deep copy.
func (c *Config) Clone() *Config {
	cl := &Config{
		Support:   append([]int64(nil), c.Support...),
		Undecided: c.Undecided,
	}
	if c.Stubborn != nil {
		cl.Stubborn = append([]int64(nil), c.Stubborn...)
	}
	return cl
}

// StubbornSum returns the total number of stubborn agents, Σ Stubborn[i]
// (0 when no stubborn counts are set).
func (c *Config) StubbornSum() int64 {
	var s int64
	for _, b := range c.Stubborn {
		s += b
	}
	return s
}

// Max returns the index and support of the largest opinion (the paper's
// xmax). Ties resolve to the smallest index.
func (c *Config) Max() (opinion int, support int64) {
	for i, x := range c.Support {
		if x > support {
			opinion, support = i, x
		}
	}
	return opinion, support
}

// TopTwo returns the supports of the largest and second-largest opinions.
// With k = 1 the second value is 0.
func (c *Config) TopTwo() (first, second int64) {
	for _, x := range c.Support {
		switch {
		case x > first:
			first, second = x, first
		case x > second:
			second = x
		}
	}
	return first, second
}

// AdditiveBias returns x_max − x_secondmax, the margin of the current
// plurality opinion over its closest rival.
func (c *Config) AdditiveBias() int64 {
	first, second := c.TopTwo()
	return first - second
}

// MultiplicativeBias returns x_max / x_secondmax. It returns +Inf when the
// second-largest support is zero.
func (c *Config) MultiplicativeBias() float64 {
	first, second := c.TopTwo()
	if second == 0 {
		return math.Inf(1)
	}
	return float64(first) / float64(second)
}

// SumSquares returns r₂ = Σ xᵢ², the quantity the paper tracks in
// Observations 6-7. At MaxN = 10¹¹ the sum reaches n² ≈ 2⁷⁴, so it is a
// u128.U128; the per-term products are exact 64×64 multiplies.
func (c *Config) SumSquares() u128.U128 {
	var s u128.U128
	for _, x := range c.Support {
		s = s.Add(u128.Mul64(uint64(x), uint64(x)))
	}
	return s
}

// Decided returns the number of decided agents, n − u.
func (c *Config) Decided() int64 {
	var s int64
	for _, x := range c.Support {
		s += x
	}
	return s
}

// IsConsensus reports whether every agent supports a single opinion.
func (c *Config) IsConsensus() bool {
	if c.Undecided != 0 {
		return false
	}
	_, xmax := c.Max()
	return xmax == c.N()
}

// String renders a compact human-readable form, truncating long vectors.
func (c *Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d k=%d u=%d x=[", c.N(), c.K(), c.Undecided)
	for i, x := range c.Support {
		if i > 0 {
			b.WriteByte(' ')
		}
		if i >= 8 {
			fmt.Fprintf(&b, "... (%d more)", len(c.Support)-i)
			break
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte(']')
	return b.String()
}

// checkShape validates the common generator arguments.
func checkShape(n int64, k int, undecided int64) error {
	if k <= 0 {
		return ErrNoOpinions
	}
	if n <= 0 {
		return ErrEmpty
	}
	if n > MaxN {
		return ErrTooLarge
	}
	if undecided < 0 || undecided > n {
		return fmt.Errorf("%w: undecided = %d with n = %d", ErrBadUndecided, undecided, n)
	}
	if int64(k) > n-undecided {
		return fmt.Errorf("%w: k = %d opinions but only %d decided agents", ErrBadBias, k, n-undecided)
	}
	return nil
}

// Uniform returns the unbiased configuration: n − undecided decided agents
// split as evenly as possible across k opinions (lower indices receive the
// remainder, so Opinion 0 is a weak plurality when k does not divide).
func Uniform(n int64, k int, undecided int64) (*Config, error) {
	if err := checkShape(n, k, undecided); err != nil {
		return nil, err
	}
	decided := n - undecided
	base := decided / int64(k)
	rem := decided % int64(k)
	support := make([]int64, k)
	for i := range support {
		support[i] = base
		if int64(i) < rem {
			support[i]++
		}
	}
	return &Config{Support: support, Undecided: undecided}, nil
}

// WithAdditiveBias returns a configuration in which Opinion 0 leads every
// other opinion by at least the given additive bias, with the remaining
// decided agents split evenly across opinions 1..k-1.
func WithAdditiveBias(n int64, k int, bias, undecided int64) (*Config, error) {
	if err := checkShape(n, k, undecided); err != nil {
		return nil, err
	}
	if bias < 0 {
		return nil, fmt.Errorf("%w: additive bias = %d", ErrBadBias, bias)
	}
	decided := n - undecided
	if k == 1 {
		return &Config{Support: []int64{decided}, Undecided: undecided}, nil
	}
	// Opinion 0 gets floor((decided - bias)/k) + bias; require enough mass.
	rest := decided - bias
	if rest < int64(k-1) {
		return nil, fmt.Errorf("%w: bias %d leaves %d agents for %d trailing opinions",
			ErrBadBias, bias, rest, k-1)
	}
	// Choose trailing supports as equal as possible; leader takes the rest.
	per := rest / int64(k)
	support := make([]int64, k)
	var used int64
	for i := 1; i < k; i++ {
		support[i] = per
		used += per
	}
	support[0] = decided - used
	if support[0]-support[1] < bias {
		return nil, fmt.Errorf("%w: could not realize additive bias %d", ErrBadBias, bias)
	}
	return &Config{Support: support, Undecided: undecided}, nil
}

// WithMultiplicativeBias returns a configuration in which Opinion 0 has at
// least ratio times the support of every other opinion, with the trailing
// opinions equal. ratio must be > 1.
func WithMultiplicativeBias(n int64, k int, ratio float64, undecided int64) (*Config, error) {
	if err := checkShape(n, k, undecided); err != nil {
		return nil, err
	}
	if ratio <= 1 || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
		return nil, fmt.Errorf("%w: multiplicative ratio = %v", ErrBadBias, ratio)
	}
	decided := n - undecided
	if k == 1 {
		return &Config{Support: []int64{decided}, Undecided: undecided}, nil
	}
	// Solve ratio*t + (k-1)*t <= decided for the trailing support t.
	t := int64(float64(decided) / (ratio + float64(k-1)))
	for t > 0 && float64(decided-int64(float64(t)*float64(k-1))) < ratio*float64(t) {
		t--
	}
	if t < 1 {
		return nil, fmt.Errorf("%w: ratio %v infeasible for n=%d k=%d", ErrBadBias, ratio, n, k)
	}
	support := make([]int64, k)
	var used int64
	for i := 1; i < k; i++ {
		support[i] = t
		used += t
	}
	support[0] = decided - used
	if float64(support[0]) < ratio*float64(t) {
		return nil, fmt.Errorf("%w: could not realize multiplicative bias %v", ErrBadBias, ratio)
	}
	return &Config{Support: support, Undecided: undecided}, nil
}

// Zipf returns a configuration whose supports follow a Zipf law with
// exponent s: support of opinion i proportional to 1/(i+1)^s. Remainder
// agents are assigned to the largest opinions first, so the support vector
// is non-increasing. s must be non-negative (s = 0 reduces to Uniform).
func Zipf(n int64, k int, s float64, undecided int64) (*Config, error) {
	if err := checkShape(n, k, undecided); err != nil {
		return nil, err
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("%w: zipf exponent = %v", ErrBadBias, s)
	}
	decided := n - undecided
	weights := make([]float64, k)
	var wsum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -s)
		wsum += weights[i]
	}
	support := make([]int64, k)
	var assigned int64
	for i := range support {
		support[i] = int64(float64(decided) * weights[i] / wsum)
		assigned += support[i]
	}
	for i := 0; assigned < decided; i = (i + 1) % k {
		support[i]++
		assigned++
	}
	return &Config{Support: support, Undecided: undecided}, nil
}

// TwoBlock returns a configuration in which Opinion 0 holds share of the
// decided agents (0 < share < 1) and the rest are split evenly among the
// other k−1 opinions.
func TwoBlock(n int64, k int, share float64, undecided int64) (*Config, error) {
	if err := checkShape(n, k, undecided); err != nil {
		return nil, err
	}
	if share <= 0 || share >= 1 || math.IsNaN(share) {
		return nil, fmt.Errorf("%w: share = %v", ErrBadBias, share)
	}
	if k == 1 {
		return Uniform(n, k, undecided)
	}
	decided := n - undecided
	leader := int64(share * float64(decided))
	if leader < 1 || decided-leader < int64(k-1) {
		return nil, fmt.Errorf("%w: share %v infeasible for n=%d k=%d", ErrBadBias, share, n, k)
	}
	rest := decided - leader
	per := rest / int64(k-1)
	rem := rest % int64(k-1)
	support := make([]int64, k)
	support[0] = leader
	for i := 1; i < k; i++ {
		support[i] = per
		if int64(i-1) < rem {
			support[i]++
		}
	}
	return &Config{Support: support, Undecided: undecided}, nil
}
