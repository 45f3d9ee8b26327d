package potential

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/conf"
)

func mustConfig(t *testing.T, support []int64, u int64) *conf.Config {
	t.Helper()
	c, err := conf.FromSupport(support, u)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEquilibriumUndecided(t *testing.T) {
	// k=2: u* = n/3; k→∞: u* → n/2.
	if got := EquilibriumUndecided(300, 2); math.Abs(got-100) > 1e-9 {
		t.Fatalf("u*(k=2) = %v, want 100", got)
	}
	if got := EquilibriumUndecided(1000, 1000); got <= 499 || got >= 500 {
		t.Fatalf("u*(large k) = %v, want just below n/2", got)
	}
	if got := EquilibriumUndecided(100, 0); got != 0 {
		t.Fatalf("u*(k=0) = %v", got)
	}
	// Monotone in k.
	prev := -1.0
	for k := 1; k < 50; k++ {
		cur := EquilibriumUndecided(10000, k)
		if cur < prev {
			t.Fatalf("u* not monotone at k=%d", k)
		}
		prev = cur
	}
}

func TestSignificanceThreshold(t *testing.T) {
	n := int64(10000)
	want := math.Sqrt(float64(n) * math.Log(float64(n)))
	if got := SignificanceThreshold(n, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("threshold = %v, want %v", got, want)
	}
	if got := SignificanceThreshold(n, 2); math.Abs(got-2*want) > 1e-9 {
		t.Fatalf("threshold scaling in alpha broken")
	}
	if got := SignificanceThreshold(1, 1); got != 0 {
		t.Fatalf("threshold(n=1) = %v, want 0", got)
	}
}

func TestBounds(t *testing.T) {
	n := int64(1 << 16)
	xmax := int64(1 << 14)
	lo := UndecidedLowerBound(n, xmax)
	hi := UndecidedUpperBound(n, 1)
	if lo >= hi {
		t.Fatalf("bounds inverted: lo=%v hi=%v", lo, hi)
	}
	wantLo := float64(n)/2 - float64(xmax)/2 - 8*math.Sqrt(float64(n)*math.Log(float64(n)))
	if math.Abs(lo-wantLo) > 1e-9 {
		t.Fatalf("lower bound = %v, want %v", lo, wantLo)
	}
	if hiBad := UndecidedUpperBound(n, 0); hiBad >= float64(n)/2 {
		t.Fatalf("upper bound with c<=0 fallback = %v", hiBad)
	}
}

func TestMonochromaticDistance(t *testing.T) {
	// Consensus-like: md = 1.
	if got := MonochromaticDistance([]int64{100, 0, 0}); got != 1 {
		t.Fatalf("md(consensus) = %v", got)
	}
	// Perfectly uniform over k opinions: md = k.
	if got := MonochromaticDistance([]int64{10, 10, 10, 10}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("md(uniform 4) = %v, want 4", got)
	}
	// All undecided.
	if got := MonochromaticDistance([]int64{0, 0}); got != 0 {
		t.Fatalf("md(all-undecided) = %v, want 0", got)
	}
}

func TestMonochromaticDistanceRange(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		xs := make([]int64, len(raw))
		any := false
		for i, v := range raw {
			xs[i] = int64(v % 1000)
			if xs[i] > 0 {
				any = true
			}
		}
		if !any {
			return true
		}
		md := MonochromaticDistance(xs)
		return md >= 1-1e-12 && md <= float64(len(xs))+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// bruteProbs enumerates all n² ordered (responder, initiator) pairs of a
// configuration and counts those that change the undecided count.
func bruteProbs(c *conf.Config) Probs {
	n := c.N()
	// Enumerate by state class rather than individual agents.
	var down, up int64
	for _, xi := range c.Support {
		down += c.Undecided * xi // undecided responder meets opinion-i initiator
		up += xi * (c.Decided() - xi)
	}
	return Probs{
		Down: float64(down) / float64(n*n),
		Up:   float64(up) / float64(n*n),
	}
}

func TestUndecidedProbsMatchBruteForce(t *testing.T) {
	cases := []*conf.Config{
		mustConfig(t, []int64{3, 2, 1}, 4),
		mustConfig(t, []int64{10, 0, 0}, 0),
		mustConfig(t, []int64{1, 1, 1, 1}, 0),
		mustConfig(t, []int64{5, 5}, 90),
	}
	for _, c := range cases {
		got := UndecidedProbs(c)
		want := bruteProbs(c)
		if math.Abs(got.Down-want.Down) > 1e-12 || math.Abs(got.Up-want.Up) > 1e-12 {
			t.Fatalf("config %v: probs %+v, brute force %+v", c, got, want)
		}
	}
}

func TestUndecidedProbsProperty(t *testing.T) {
	check := func(raw []uint8, uRaw uint8) bool {
		if len(raw) == 0 || len(raw) > 10 {
			return true
		}
		xs := make([]int64, len(raw))
		var total int64
		for i, v := range raw {
			xs[i] = int64(v % 20)
			total += xs[i]
		}
		u := int64(uRaw % 20)
		if total+u == 0 {
			return true
		}
		c, err := conf.FromSupport(xs, u)
		if err != nil {
			return true
		}
		got := UndecidedProbs(c)
		want := bruteProbs(c)
		return math.Abs(got.Down-want.Down) < 1e-12 &&
			math.Abs(got.Up-want.Up) < 1e-12 &&
			got.Productive() <= 1+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOpinionProbs(t *testing.T) {
	c := mustConfig(t, []int64{6, 3}, 1) // n = 10
	up, down := OpinionProbs(c, 0)
	if math.Abs(up-6.0/100) > 1e-12 {
		t.Fatalf("up = %v, want 0.06", up)
	}
	// x0 meets differently-decided (3 agents): 6*3/100.
	if math.Abs(down-18.0/100) > 1e-12 {
		t.Fatalf("down = %v, want 0.18", down)
	}
}

func TestGapProbs(t *testing.T) {
	c := mustConfig(t, []int64{6, 3}, 1)
	// Observation 9: the gap x0 − x1 grows when 0 gains or 1 loses.
	up0, down0 := OpinionProbs(c, 0)
	up1, down1 := OpinionProbs(c, 1)
	up, down := up0+down1, down0+up1
	// up = u*x0/n² + x1*(n-u-x1)/n² = 6/100 + 18/100
	if math.Abs(up-24.0/100) > 1e-12 {
		t.Fatalf("gap up = %v", up)
	}
	// down = x0*(n-u-x0)/n² + u*x1/n² = 18/100 + 3/100
	if math.Abs(down-21.0/100) > 1e-12 {
		t.Fatalf("gap down = %v", down)
	}
}

func TestConditionalUpObservation7(t *testing.T) {
	// Observation 7: if u >= u* + ε·n then conditional up-probability is at
	// most 1/2 − ε/2.
	n := int64(10000)
	k := 4
	eps := 0.05
	uStar := EquilibriumUndecided(n, k)
	u := int64(uStar + eps*float64(n) + 1)
	c, err := conf.Uniform(n, k, u)
	if err != nil {
		t.Fatal(err)
	}
	p := UndecidedProbs(c)
	if got := p.Up / p.Productive(); got > 0.5-eps/2+1e-9 {
		t.Fatalf("conditional up-probability %v exceeds Observation 7 bound %v", got, 0.5-eps/2)
	}
}

func TestConditionalUpAbsorbing(t *testing.T) {
	// Consensus: no productive interactions.
	c := mustConfig(t, []int64{10}, 0)
	if got := UndecidedProbs(c).Productive(); got != 0 {
		t.Fatalf("productive probability at consensus = %v", got)
	}
}

// z returns the phase-1 potential Z(t) = n − 2u − xmax (α = 1); phase 1
// ends as soon as Z(t) ≤ 0 (Lemma 1).
func z(n, u, xmax int64) int64 { return n - 2*u - xmax }

// driftZ returns the exact expected one-step decrease E[Z(t) − Z(t+1)] of
// the phase-1 potential, conditioning on which opinion gains or loses an
// agent (the displayed computation in the proof of Lemma 1): the closed
// form the brute-force and Lemma 1 tests below check. Unlike the
// paper's display, ties in the maximum are handled exactly: losing an agent
// from a tied maximum does not change xmax, so the exact drift is at least
// the paper's lower bound Z(t)/(2n).
func driftZ(c *conf.Config) float64 {
	n := float64(c.N())
	u := float64(c.Undecided)
	_, xmaxInt := c.Max()
	maxCount := 0
	for _, xi := range c.Support {
		if xi == xmaxInt {
			maxCount++
		}
	}
	var drift float64
	for _, xi := range c.Support {
		x := float64(xi)
		// u decreases by one (an undecided responder adopts opinion i):
		// Z increases by 2, minus 1 more if xmax also grows.
		gain := 2.0
		if xi == xmaxInt {
			gain = 1.0
		}
		drift -= gain * x * u / (n * n)
		// u increases by one (an i-responder becomes undecided):
		// Z decreases by 2, unless xmax shrinks too, which requires i to
		// be the unique maximum.
		loss := 2.0
		if xi == xmaxInt && maxCount == 1 {
			loss = 1.0
		}
		drift += loss * x * (n - u - x) / (n * n)
	}
	return drift
}

// bruteDriftZ computes E[Z(t) − Z(t+1)] by full enumeration of all n²
// ordered pairs on a small configuration.
func bruteDriftZ(c *conf.Config) float64 {
	n := c.N()
	_, xmax := c.Max()
	z0 := z(n, c.Undecided, xmax)
	var sum float64
	// Build the agent-level state vector.
	var states []int
	for i, x := range c.Support {
		for j := int64(0); j < x; j++ {
			states = append(states, i+1)
		}
	}
	for j := int64(0); j < c.Undecided; j++ {
		states = append(states, 0)
	}
	for _, resp := range states {
		for _, init := range states {
			d := c.Clone()
			switch {
			case resp != 0 && init != 0 && resp != init:
				d.Support[resp-1]--
				d.Undecided++
			case resp == 0 && init != 0:
				d.Undecided--
				d.Support[init-1]++
			}
			_, xm := d.Max()
			z1 := z(n, d.Undecided, xm)
			sum += float64(z0 - z1)
		}
	}
	return sum / float64(n*n)
}

func TestDriftZMatchesBruteForce(t *testing.T) {
	cases := []*conf.Config{
		mustConfig(t, []int64{3, 2, 1}, 2),
		mustConfig(t, []int64{4, 4}, 2), // tied maximum
		mustConfig(t, []int64{5, 1, 1}, 0),
		mustConfig(t, []int64{2, 2, 2}, 3), // all tied
	}
	for _, c := range cases {
		got := driftZ(c)
		want := bruteDriftZ(c)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("config %v: DriftZ = %v, brute force %v", c, got, want)
		}
	}
}

func TestDriftZLowerBoundLemma1(t *testing.T) {
	// Lemma 1: for Z(t) >= 0 and u < n/2 the drift is at least Z(t)/(2n).
	configs := []*conf.Config{
		mustConfig(t, []int64{40, 30, 20}, 10),
		mustConfig(t, []int64{50, 50}, 0),
		mustConfig(t, []int64{30, 30, 30}, 9),
	}
	for _, c := range configs {
		n := c.N()
		_, xmax := c.Max()
		zt := z(n, c.Undecided, xmax)
		if zt < 0 || c.Undecided >= n/2 {
			t.Fatalf("test case out of Lemma 1 preconditions: %v", c)
		}
		if got := driftZ(c); got < float64(zt)/(2*float64(n))-1e-12 {
			t.Fatalf("config %v: drift %v below Lemma 1 bound %v", c, got, float64(zt)/(2*float64(n)))
		}
	}
}
