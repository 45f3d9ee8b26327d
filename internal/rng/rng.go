// Package rng provides deterministic, seedable pseudo-random number
// generation and the sampling distributions used by the simulators.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded through SplitMix64,
// which is the standard recipe for filling xoshiro state from a single 64-bit
// seed. All randomness in this repository flows through explicit *Source
// values so that every simulation, test, and experiment is reproducible from
// its seed. There are no global generators (per the style guides: no mutable
// globals, no init()).
package rng

import (
	"math"
	"math/bits"
)

// golden is the SplitMix64 increment (2^64 / phi, rounded to odd).
const golden = 0x9E3779B97F4A7C15

// SplitMix64 advances the SplitMix64 state in place and returns the next
// output. It is exposed because seed-derivation schemes elsewhere in the
// repository (for example per-trial stream seeds) reuse it.
func SplitMix64(state *uint64) uint64 {
	*state += golden
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Derive deterministically maps (seed, index) to a stream seed. Distinct
// indices yield statistically independent streams, so parallel trials can be
// seeded in any order while remaining reproducible.
func Derive(seed, index uint64) uint64 {
	s := seed ^ (golden * (index + 1))
	return SplitMix64(&s)
}

// bufLen is the block size of the buffered generator: the most outputs one
// refill produces. One refill keeps the whole xoshiro state in registers
// for its whole block and leaves Uint64's per-draw fast path small enough
// to inline at every call site, which is what removes the per-draw call
// overhead from simulation hot loops.
const bufLen = 128

// firstBlock is the length of the first block after a Reseed. Blocks then
// double up to bufLen, so a trial that draws only a few values — a
// one-interaction trial draws about three — pays for eight outputs, not
// bufLen, while a long run still reaches full blocks after four refills.
// Producing every reseed's first block at full length cost about 12% of
// the worker CPU on a fleet of one-interaction trials.
const firstBlock = 8

// Source is a xoshiro256** generator with a buffered output block: raw
// 64-bit outputs are produced a block at a time and served from an
// in-struct buffer, so the common Uint64 path is a bounds-checked load.
// A block of b outputs fills the tail buf[bufLen-b:], so the buffer is
// exhausted exactly when pos reaches bufLen, whatever the block length.
// Buffering is invisible in the output stream — the value sequence is
// exactly the unbuffered generator's. A Source is not safe for concurrent
// use; create one per goroutine (see Derive).
type Source struct {
	pos int
	// blk is the length of the last block refill produced; 0 after a
	// Reseed (and in a struct literal), which makes the next block
	// firstBlock long.
	blk int
	buf [bufLen]uint64
	s   [4]uint64
}

// New returns a Source seeded from the given 64-bit seed via SplitMix64.
// Every seed, including zero, yields a valid non-degenerate state.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source in place to the exact state New(seed) would
// produce, without allocating. Trial engines that reuse one Source per
// worker reseed it with a per-trial derived seed, so results are identical
// to fresh per-trial New calls. Any buffered outputs of the previous seed
// are discarded, and the block length starts over at firstBlock, so the
// outputs a reseed discards unread are at most the rest of one block.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	r.pos, r.blk = bufLen, 0
}

// Uint64 returns the next 64 uniformly distributed bits. The fast path is a
// buffered load small enough to inline; refill regenerates a block from the
// xoshiro state once the buffer is spent.
func (r *Source) Uint64() uint64 {
	if r.pos < bufLen {
		v := r.buf[r.pos]
		r.pos++
		return v
	}
	return r.refill()
}

// refill produces the next block — twice the last one, from firstBlock up
// to bufLen, xoshiro256** steps with the state held in registers — into the
// tail of the buffer and returns the block's first value.
func (r *Source) refill() uint64 {
	r.blk = min(max(2*r.blk, firstBlock), bufLen)
	start := bufLen - r.blk
	blk := r.buf[start:]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range blk {
		blk[i] = bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	r.pos = start + 1
	return blk[0]
}

// Uint64n returns a uniform value in [0, n). It uses Lemire's multiply-shift
// rejection method, which is unbiased. n must be positive.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Int63n returns a uniform value in [0, n). n must be positive.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// maxGeometric caps geometric samples so that downstream interaction-clock
// arithmetic cannot overflow int64 even after repeated jumps.
const maxGeometric = int64(1) << 56

// Geometric returns the number of independent Bernoulli(p) trials up to and
// including the first success; the support is {1, 2, ...}. It requires
// p in (0, 1]; values are capped at 2^56 to keep clock arithmetic safe.
func (r *Source) Geometric(p float64) int64 {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		panic("rng: Geometric called with p <= 0")
	}
	return r.geometricInv(1 / math.Log1p(-p))
}

// geometricInv is Geometric by inversion with the reciprocal log already
// computed: G = floor(log(1-U) · invLogQ) + 1 with invLogQ = 1/log(1-p).
// Batch samplers that draw many geometrics at a fixed p hoist the reciprocal
// out of the loop, halving the transcendental count per draw.
func (r *Source) geometricInv(invLogQ float64) int64 {
	u := r.Float64()
	g := math.Floor(math.Log1p(-u)*invLogQ) + 1
	if g >= float64(maxGeometric) || math.IsNaN(g) {
		return maxGeometric
	}
	if g < 1 {
		return 1
	}
	return int64(g)
}

// Normal returns a standard normal variate via the Marsaglia polar method.
func (r *Source) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// btrsThreshold is the smallest n·min(p,1−p) for which Binomial uses the
// transformed-rejection sampler; below it sequential CDF inversion is both
// correct and faster.
const btrsThreshold = 10

// binvDirectLimit is the largest n for which Binomial sums Bernoulli draws
// directly: below it the loop of buffered uniform draws undercuts even the
// single transcendental that the inversion setup pays.
const binvDirectLimit = 16

// Binomial returns a Binomial(n, p) variate by exact methods: direct
// Bernoulli summation for tiny n, Hörmann's BTRS transformed-rejection
// sampler for n·min(p,1−p) >= 10, and sequential CDF inversion (the classic
// BINV recurrence) for everything below the BTRS threshold. All paths sample
// the exact distribution; the expected cost is O(n) draws for the direct
// path, O(1) for BTRS, and O(n·min(p,1−p)+1) multiplies for inversion, so
// the cost is bounded in every regime.
func (r *Source) Binomial(n int64, p float64) int64 {
	switch {
	case n < 0:
		panic("rng: Binomial called with n < 0")
	case n == 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	case p > 0.5:
		return n - r.Binomial(n, 1-p)
	case n <= binvDirectLimit:
		var successes int64
		for i := int64(0); i < n; i++ {
			if r.Float64() < p {
				successes++
			}
		}
		return successes
	case float64(n)*p >= btrsThreshold:
		return r.binomialBTRS(n, p)
	default:
		return r.binomialBINV(n, p)
	}
}

// binomialBINV samples Binomial(n, p) exactly for 0 < p <= 0.5 and
// n·p < btrsThreshold by sequential CDF inversion (the BINV algorithm of
// Kachitvichyanukul & Schmeiser): one uniform is walked down the pmf via the
// ratio recurrence P(k+1) = P(k)·(n−k)·s/(k+1) with s = p/q. The expected
// iteration count is n·p + 1 < 11 in this regime, and with p <= 0.5 and
// n·p < 10 the starting mass q^n >= e^−15, so the recurrence cannot
// underflow near the mode. The far tail can still leak to zero mass in
// floating point; a walk that runs past it restarts with a fresh uniform,
// conditioning away a < 1e−12 tail — far below the sampler's rounding noise.
func (r *Source) binomialBINV(n int64, p float64) int64 {
	q := 1 - p
	s := p / q
	a := float64(n+1) * s
	f0 := math.Exp(float64(n) * math.Log1p(-p)) // q^n = P(X = 0)
	f := f0
	u := r.Float64()
	var k int64
	for {
		if u <= f {
			return k
		}
		u -= f
		f *= a/float64(k+1) - s
		k++
		if k > n || f <= 0 {
			k = 0
			f = f0
			u = r.Float64()
		}
	}
}

// stirlingTailValues[k] = log(k!) − Stirling's approximation of log(k!), for
// the small arguments where the asymptotic series is least accurate.
var stirlingTailValues = [...]float64{
	0.0810614667953272, 0.0413406959554092, 0.0276779256849983,
	0.02079067210376509, 0.0166446911898211, 0.0138761288230707,
	0.0118967099458917, 0.0104112652619720, 0.00925546218271273,
	0.00833056343336287,
}

// stirlingTail returns log(k!) − [log(√(2π)) + (k+½)log(k+1) − (k+1)], the
// correction term of the Stirling series used in the BTRS acceptance test.
func stirlingTail(k float64) float64 {
	if k <= 9 {
		return stirlingTailValues[int(k)]
	}
	kp1 := k + 1
	kp1sq := kp1 * kp1
	return (1.0/12 - (1.0/360-1.0/1260/kp1sq)/kp1sq) / kp1
}

// binomialBTRS samples Binomial(n, p) exactly for 0 < p <= 0.5 and
// n·p >= btrsThreshold using the BTRS transformed-rejection algorithm of
// Hörmann ("The generation of binomial random variates", JSCS 1993): a
// candidate is produced by an affine transformation of a uniform pair that
// closely matches the binomial shape, a cheap squeeze accepts ~86% of
// candidates immediately, and the rest are resolved by an exact
// Stirling-corrected log-density ratio. The expected number of uniform
// pairs per variate is O(1), independent of n and p.
func (r *Source) binomialBTRS(n int64, p float64) int64 {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	alpha := (2.83 + 5.1/b) * spq
	lratio := p / q
	m := math.Floor((nf + 1) * p)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || k > nf {
			continue
		}
		// Exact acceptance test in log space against the binomial pmf,
		// with log(k!) terms expanded via the Stirling correction.
		v = math.Log(v * alpha / (a/(us*us) + b))
		bound := (m+0.5)*math.Log((m+1)/(lratio*(nf-m+1))) +
			(nf+1)*math.Log((nf-m+1)/(nf-k+1)) +
			(k+0.5)*math.Log(lratio*(nf-k+1)/(k+1)) +
			stirlingTail(m) + stirlingTail(nf-m) -
			stirlingTail(k) - stirlingTail(nf-k)
		if v <= bound {
			return int64(k)
		}
	}
}

// nbExactLimit is the largest success count for which NegativeBinomial sums
// geometric variates exactly.
const nbExactLimit = 256

// nbInvLimit is the largest expected failure count μ = m(1−p)/p for which
// NegativeBinomial uses sequential CDF inversion over the failure count.
// The walk costs O(μ) multiplies (no transcendentals beyond its setup), so
// it beats the summed-geometric path's m logarithms through the whole
// admitted range; the limit exists because the starting mass
// p^m = e^{−m·ln(1/p)} >= e^{−μ} (since ln(1/p) <= (1−p)/p) approaches the
// subnormal floor beyond μ ~ 700. 512 leaves a two-decade margin.
const nbInvLimit = 512

// NegativeBinomial returns the number of independent Bernoulli(p) trials up
// to and including the m-th success (the sum of m Geometric(p) variates),
// for m >= 0 and p in (0, 1]. For m <= nbExactLimit the sample is exact:
// sequential CDF inversion over the failure count when its mean m(1−p)/p is
// at most nbInvLimit (one uniform and one transcendental instead of m of
// each — the hot case for tau-leaping spans, where p is the per-interaction
// productive probability and is close to 1 exactly when windows are large),
// and a sum of m geometric variates otherwise. Above nbExactLimit the
// sample is drawn from the normal approximation with the exact mean m/p and
// variance m(1−p)/p², whose relative error is O(1/√m). Results are clamped
// to [m, MaxInt64] so interaction-clock arithmetic cannot overflow.
func (r *Source) NegativeBinomial(m int64, p float64) int64 {
	switch {
	case m < 0:
		panic("rng: NegativeBinomial called with m < 0")
	case m == 0:
		return 0
	case p <= 0:
		panic("rng: NegativeBinomial called with p <= 0")
	case p >= 1:
		return m
	case m <= nbExactLimit:
		if float64(m)*(1-p)/p <= nbInvLimit {
			return r.negativeBinomialInv(m, p)
		}
		// Each Geometric is capped at 2^56, but nbExactLimit of them can
		// still sum past MaxInt64 for extreme p, so accumulate saturating —
		// the documented clamp — instead of wrapping negative. The
		// reciprocal log of the shared inversion formula is hoisted out of
		// the loop.
		invLogQ := 1 / math.Log1p(-p)
		var total int64
		for i := int64(0); i < m; i++ {
			total = satAddInt64(total, r.geometricInv(invLogQ))
		}
		return total
	default:
		mf := float64(m)
		mean := mf / p
		std := math.Sqrt(mf*(1-p)) / p
		t := math.Round(mean + std*r.Normal())
		if t < mf {
			return m
		}
		// This path only runs for m > nbExactLimit, where 2^56·m already
		// exceeds MaxInt64 — so the effective clamp is MaxInt64 itself,
		// saturating rather than wrapping negative.
		if t >= float64(math.MaxInt64) || math.IsNaN(t) {
			return math.MaxInt64
		}
		return int64(t)
	}
}

// negativeBinomialInv samples NegativeBinomial(m, p) exactly for
// m(1−p)/p <= nbInvLimit by sequential CDF inversion over the failure count
// F (the trial count is m + F): one uniform is walked down the pmf
// P(F=f) = C(m+f−1, f)·p^m·q^f via the ratio recurrence
// P(f+1) = P(f)·q·(m+f)/(f+1). The expected iteration count is the mean
// failure count plus one, and p^m >= e^{−nbInvLimit} holds throughout the
// admitted regime, so the starting mass cannot underflow. There is no
// artificial iteration cap — heavy geometric-like tails would turn one into
// a visible truncation — only an exactness-preserving guard: when the pmf
// walk underflows to zero mass (the uniform landed in the < 1e−15 rounding
// gap past the representable tail), the walk restarts with a fresh uniform.
func (r *Source) negativeBinomialInv(m int64, p float64) int64 {
	q := 1 - p
	mf := float64(m)
	f0 := math.Exp(mf * math.Log(p)) // p^m = P(F = 0)
	f := f0
	u := r.Float64()
	var fail int64
	for {
		if u <= f {
			return satAddInt64(m, fail)
		}
		u -= f
		f *= q * (mf + float64(fail)) / float64(fail+1)
		fail++
		if f <= 0 {
			fail = 0
			f = f0
			u = r.Float64()
		}
	}
}

// satAddInt64 returns a+b clamped to MaxInt64 for non-negative a and b.
func satAddInt64(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// Multinomial samples category counts (c₀, …, c_{k−1}) distributed
// Multinomial(m; w/Σw) by conditional binomial chaining: cᵢ is
// Binomial(m − Σ_{j<i} cⱼ, wᵢ/Σ_{j>=i} wⱼ), which is the exact conditional
// law of category i given the earlier categories. With the O(1) BTRS path
// in Binomial the expected cost is O(k), independent of m.
//
// Weights must be non-negative and finite; zero-weight categories receive a
// zero count. If m > 0 the weights must not all be zero. The counts are
// written into dst when it has capacity for len(weights) values (allocating
// otherwise) and the filled slice is returned; m = 0 or an empty weight
// vector yields all-zero counts.
func (r *Source) Multinomial(m int64, weights []float64, dst []int64) []int64 {
	if m < 0 {
		panic("rng: Multinomial called with m < 0")
	}
	k := len(weights)
	if cap(dst) < k {
		dst = make([]int64, k)
	}
	dst = dst[:k]
	for i := range dst {
		dst[i] = 0
	}
	if m == 0 || k == 0 {
		return dst
	}
	var wsum float64
	last := -1
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("rng: Multinomial called with negative or non-finite weight")
		}
		if w > 0 {
			last = i
		}
		wsum += w
	}
	if last < 0 {
		panic("rng: Multinomial called with all-zero weights and m > 0")
	}
	wrem := wsum
	rem := m
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if i == last {
			// The final positive-weight category takes every remaining
			// trial, so floating-point drift in wrem cannot leak counts
			// into zero-weight categories.
			dst[i] = rem
			break
		}
		c := r.Binomial(rem, w/wrem)
		dst[i] = c
		rem -= c
		if rem == 0 {
			break
		}
		wrem -= w
	}
	return dst
}
