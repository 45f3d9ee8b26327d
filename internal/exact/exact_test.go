package exact

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/rng"
)

func mustConfig(t *testing.T, support []int64, u int64) *conf.Config {
	t.Helper()
	c, err := conf.FromSupport(support, u)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(10, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(10, MaxOpinions+1); err == nil {
		t.Fatal("k too large accepted")
	}
	if _, err := New(0, 2); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := New(4000, 4); !errors.Is(err, ErrTooLarge) {
		t.Fatal("oversized state space accepted")
	}
}

func TestStateEnumeration(t *testing.T) {
	// C(n+k, k) states.
	cases := []struct {
		n    int64
		k    int
		want int
	}{
		{4, 1, 5},   // C(5,1)
		{4, 2, 15},  // C(6,2)
		{10, 2, 66}, // C(12,2)
		{5, 3, 56},  // C(8,3)
	}
	for _, tc := range cases {
		c, err := New(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if c.States() != tc.want {
			t.Fatalf("n=%d k=%d: %d states, want %d", tc.n, tc.k, c.States(), tc.want)
		}
		if c.N() != tc.n || c.K() != tc.k {
			t.Fatalf("chain shape wrong")
		}
	}
}

// parts unpacks state id into (x₁..x_k, u).
func (c *Chain) parts(id int) []int64 {
	parts := make([]int64, c.k+1)
	key := c.keys[id]
	for i := c.k; i >= 0; i-- {
		parts[i] = int64(key & (1<<bits - 1))
		key >>= bits
	}
	return parts
}

// absorbing reports whether a state is consensus (some xᵢ = n) or
// all-undecided (u = n), read from its parts.
func (c *Chain) absorbing(parts []int64) bool {
	return slices.Contains(parts, c.n)
}

func TestTransitionProbabilitiesSumToOne(t *testing.T) {
	c, err := New(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(c.keys) {
		t.Fatal("state keys not in ascending order")
	}
	for id := range c.keys {
		s := c.parts(id)
		total := c.total[id]
		if total < -1e-15 || total > 1+1e-12 {
			t.Fatalf("state %v: productive probability %v out of [0,1]", s, total)
		}
		var check float64
		for e := c.start[id]; e < c.start[id+1]; e++ {
			if c.p[e] <= 0 {
				t.Fatalf("state %v: non-positive edge probability", s)
			}
			// Every edge moves one agent between an opinion and u.
			next := c.parts(int(c.to[e]))
			var moved int64
			for i := range s {
				moved += abs(next[i] - s[i])
			}
			if moved != 2 || abs(next[c.k]-s[c.k]) != 1 {
				t.Fatalf("state %v: edge to %v is not an adopt or undecide move", s, next)
			}
			check += c.p[e]
		}
		if math.Abs(check-total) > 1e-12 {
			t.Fatalf("state %v: edges sum %v != total %v", s, check, total)
		}
		if c.absorbing(s) != (total == 0) {
			t.Fatalf("state %v: absorbing %v but productive probability %v", s, c.absorbing(s), total)
		}
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// k=1 closed form: with a single opinion, only "adopt" transitions happen;
// from (x, u) the chain is a pure death process on u with rate
// u·(n−u)/n², so E[T] = Σ_{j=1..u} n²/(j·(n−j)).
func TestExpectedTimeClosedFormK1(t *testing.T) {
	n := int64(20)
	c, err := New(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int64{1, 5, 10, 19} {
		cfg := mustConfig(t, []int64{n - u}, u)
		got, err := c.ExpectedTimeFrom(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for j := int64(1); j <= u; j++ {
			want += float64(n*n) / float64(j*(n-j))
		}
		if math.Abs(got-want) > 1e-6*want {
			t.Fatalf("u=%d: expected time %v, closed form %v", u, got, want)
		}
	}
}

func TestExpectedTimeAbsorbingIsZero(t *testing.T) {
	c, err := New(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.ExpectedConsensusTimes()
	if err != nil {
		t.Fatal(err)
	}
	for id := range c.keys {
		s := c.parts(id)
		if c.absorbing(s) && h[id] != 0 {
			t.Fatalf("absorbing state %v has expected time %v", s, h[id])
		}
		if !c.absorbing(s) && h[id] <= 0 {
			t.Fatalf("transient state %v has expected time %v", s, h[id])
		}
	}
}

func TestWinProbabilitySymmetry(t *testing.T) {
	// From a perfectly symmetric 2-opinion state, each opinion wins with
	// probability 1/2.
	n := int64(16)
	c, err := New(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustConfig(t, []int64{7, 7}, 2)
	w0, err := c.WinProbabilityFrom(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := c.WinProbabilityFrom(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w0-0.5) > 1e-9 || math.Abs(w1-0.5) > 1e-9 {
		t.Fatalf("symmetric win probs = (%v, %v), want (0.5, 0.5)", w0, w1)
	}
}

func TestWinProbabilitiesSumToOne(t *testing.T) {
	n := int64(12)
	c, err := New(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	var ws [][]float64
	for i := 0; i < 3; i++ {
		w, err := c.WinProbabilities(i)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	for id := range c.keys {
		s := c.parts(id)
		if s[3] == n { // all-undecided: nobody wins
			continue
		}
		sum := ws[0][id] + ws[1][id] + ws[2][id]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("state %v: win probabilities sum to %v", s, sum)
		}
	}
}

func TestWinProbabilityMonotoneInSupport(t *testing.T) {
	// More initial support cannot hurt: w0 is monotone along
	// (x0, x1) -> (x0+1, x1-1).
	n := int64(14)
	c, err := New(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.WinProbabilities(0)
	if err != nil {
		t.Fatal(err)
	}
	u := int64(2)
	var prev float64 = -1
	for x0 := int64(0); x0 <= n-u; x0++ {
		cfg := mustConfig(t, []int64{x0, n - u - x0}, u)
		id, err := c.StateID(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if w[id] < prev-1e-9 {
			t.Fatalf("win prob not monotone at x0=%d: %v < %v", x0, w[id], prev)
		}
		prev = w[id]
	}
	// Extremes.
	lo, err := c.WinProbabilityFrom(mustConfig(t, []int64{0, n - u}, u), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 {
		t.Fatalf("win prob with zero support = %v", lo)
	}
	hi, err := c.WinProbabilityFrom(mustConfig(t, []int64{n - u, 0}, u), 0)
	if err != nil {
		t.Fatal(err)
	}
	if hi != 1 {
		t.Fatalf("win prob against zero support = %v", hi)
	}
}

func TestStateIDErrors(t *testing.T) {
	c, err := New(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StateID(mustConfig(t, []int64{5, 5, 0}, 0)); err == nil {
		t.Fatal("k mismatch accepted")
	}
	if _, err := c.StateID(mustConfig(t, []int64{5, 4}, 0)); err == nil {
		t.Fatal("n mismatch accepted")
	}
	if _, err := c.WinProbabilities(5); err == nil {
		t.Fatal("out-of-range opinion accepted")
	}
}

// The exact chain is the ground truth the simulator must match: compare
// the simulated mean consensus time and win frequency against the solved
// values on a small asymmetric instance.
func TestSimulatorMatchesExactChain(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-vs-exact comparison skipped in -short mode")
	}
	n := int64(24)
	cfg := mustConfig(t, []int64{10, 6, 4}, 4)
	chain, err := New(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantTime, err := chain.ExpectedTimeFrom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantWin, err := chain.WinProbabilityFrom(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	const trials = 30000
	var sumT, sumT2 float64
	wins := 0
	src := rng.New(2024)
	for i := 0; i < trials; i++ {
		s, err := core.New(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(core.NoBudget)
		if res.Outcome != core.OutcomeConsensus {
			t.Fatalf("trial %d: %v", i, res.Outcome)
		}
		ft := res.Interactions.Float64()
		sumT += ft
		sumT2 += ft * ft
		if res.Winner == 0 {
			wins++
		}
	}
	meanT := sumT / trials
	sdT := math.Sqrt(sumT2/trials - meanT*meanT)
	seT := sdT / math.Sqrt(trials)
	if math.Abs(meanT-wantTime) > 5*seT {
		t.Fatalf("simulated mean time %.3f vs exact %.3f (se %.3f)", meanT, wantTime, seT)
	}
	winRate := float64(wins) / trials
	seW := math.Sqrt(wantWin * (1 - wantWin) / trials)
	if math.Abs(winRate-wantWin) > 5*seW {
		t.Fatalf("simulated win rate %.4f vs exact %.4f (se %.4f)", winRate, wantWin, seW)
	}
}

func TestAllUndecidedAbsorbingState(t *testing.T) {
	n := int64(8)
	c, err := New(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustConfig(t, []int64{0, 0}, n)
	h, err := c.ExpectedTimeFrom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h != 0 {
		t.Fatalf("all-undecided expected time %v, want 0 (absorbing)", h)
	}
	w, err := c.WinProbabilityFrom(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0 {
		t.Fatalf("all-undecided win prob %v, want 0", w)
	}
}

// ExpectedConsensusTimes allocates its result vector and nothing else:
// the transition rows are built once, in New.
func TestExpectedTimesAllocatesOnlyResult(t *testing.T) {
	c, err := New(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.ExpectedConsensusTimes(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("ExpectedConsensusTimes made %v allocations per run, want 1", allocs)
	}
}

// TestMatchesDenseReference checks the solver against a direct solve: for
// every chain with n <= 10 and k <= 3 it enumerates the compositions
// itself, derives the transition matrix by applying the USD rule to every
// ordered (responder, initiator) type pair, and solves the absorbing
// systems for h and w₀ by Gaussian elimination.
func TestMatchesDenseReference(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for n := int64(1); n <= 10; n++ {
			c, err := New(n, k)
			if err != nil {
				t.Fatal(err)
			}
			h, err := c.ExpectedConsensusTimes()
			if err != nil {
				t.Fatal(err)
			}
			w, err := c.WinProbabilities(0)
			if err != nil {
				t.Fatal(err)
			}
			states := compositions(n, k+1)
			if len(states) != c.States() {
				t.Fatalf("n=%d k=%d: %d compositions, chain has %d states", n, k, len(states), c.States())
			}
			wantH, wantW := denseReference(states, n, k)
			for i, s := range states {
				cfg := mustConfig(t, s[:k], s[k])
				id, err := c.StateID(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !closeRel(h[id], wantH[i]) || !closeRel(w[id], wantW[i]) {
					t.Fatalf("n=%d k=%d state %v: (h, w0) = (%v, %v), dense reference (%v, %v)",
						n, k, s, h[id], w[id], wantH[i], wantW[i])
				}
			}
		}
	}
}

func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// compositions lists every composition of n into the given number of
// non-negative parts.
func compositions(n int64, parts int) [][]int64 {
	if parts == 1 {
		return [][]int64{{n}}
	}
	var out [][]int64
	for v := int64(0); v <= n; v++ {
		for _, rest := range compositions(n-v, parts-1) {
			out = append(out, append([]int64{v}, rest...))
		}
	}
	return out
}

// denseReference solves (I − P)·h = 1 and (I − P)·w₀ = 0 over the transient
// states of the USD chain on the given states (x₁..x_k, u), with h = 0 and
// w₀ = [consensus on opinion 0] on the absorbing ones.
func denseReference(states [][]int64, n int64, k int) (h, w []float64) {
	index := make(map[string]int, len(states))
	for i, s := range states {
		index[fmt.Sprint(s)] = i
	}
	m := len(states)
	a := make([][]float64, m)
	rhs := make([][2]float64, m)
	nn := float64(n * n)
	for i, s := range states {
		a[i] = make([]float64, m)
		if slices.Contains(s, n) { // consensus or all-undecided
			a[i][i] = 1
			if s[0] == n {
				rhs[i][1] = 1
			}
			continue
		}
		rhs[i][0] = 1
		a[i][i] = 1
		// Agent types 0..k-1 are opinions, type k is undecided.
		for r := 0; r <= k; r++ {
			for in := 0; in <= k; in++ {
				p := float64(s[r]*s[in]) / nn
				if p == 0 {
					continue
				}
				next := slices.Clone(s)
				switch {
				case r < k && in < k && r != in:
					next[r]--
					next[k]++
				case r == k && in < k:
					next[k]--
					next[in]++
				}
				a[i][index[fmt.Sprint(next)]] -= p
			}
		}
	}
	x := gaussSolve(a, rhs)
	h = make([]float64, m)
	w = make([]float64, m)
	for i := range x {
		h[i], w[i] = x[i][0], x[i][1]
	}
	return h, w
}

// gaussSolve solves a·x = rhs for two right-hand sides by Gaussian
// elimination with partial pivoting; a and rhs are overwritten.
func gaussSolve(a [][]float64, rhs [][2]float64) [][2]float64 {
	m := len(a)
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		rhs[col], rhs[piv] = rhs[piv], rhs[col]
		for r := col + 1; r < m; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for j := col; j < m; j++ {
				a[r][j] -= f * a[col][j]
			}
			rhs[r][0] -= f * rhs[col][0]
			rhs[r][1] -= f * rhs[col][1]
		}
	}
	x := make([][2]float64, m)
	for r := m - 1; r >= 0; r-- {
		for b := 0; b < 2; b++ {
			sum := rhs[r][b]
			for j := r + 1; j < m; j++ {
				sum -= a[r][j] * x[j][b]
			}
			x[r][b] = sum / a[r][r]
		}
	}
	return x
}

// BenchmarkExpectedTimes times the expected-time solve at the chain sizes
// the exact validation needs.
func BenchmarkExpectedTimes(b *testing.B) {
	for _, tc := range []struct {
		n int64
		k int
	}{{40, 2}, {200, 2}, {60, 3}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", tc.n, tc.k), func(b *testing.B) {
			c, err := New(tc.n, tc.k)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ExpectedConsensusTimes(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
