// Package fenwick implements Fenwick (binary indexed) trees specialized for
// the configuration-level USD simulator.
//
// Two variants are provided:
//
//   - Tree: a classic int64 Fenwick tree with O(log n) point updates, prefix
//     sums, and a top-down descent that samples an index with probability
//     proportional to its value.
//   - Dual: a Fenwick tree that simultaneously maintains prefix sums of the
//     values xᵢ and of their squares xᵢ². Its weighted descent samples an
//     index with probability proportional to wᵢ = D·xᵢ − xᵢ², which is
//     exactly the probability that a decided responder of opinion i meets a
//     decided initiator of a different opinion when D = Σxⱼ agents are
//     decided (paper Observation 6.2).
//
// Both descents are exact (no rejection); the caller supplies a uniform
// random threshold in [0, Total).
//
// Dual's square sums are u128.U128: with populations up to conf.MaxN = 10¹¹
// both Σxᵢ² and the weighted total D·Σxᵢ − Σxᵢ² reach n² ≈ 10²² ≈ 2⁷⁴, past
// int64. The value sums Σxᵢ stay int64 — they are bounded by n. All u128
// arithmetic in the tree is exact: node sums are bounded by n² ≪ 2¹²⁸ and
// every subtraction removes a quantity its minuend provably contains.
package fenwick

import "repro/internal/u128"

// Tree is a Fenwick tree over n int64 values, all initially zero.
// The zero value is not usable; construct with New or FromSlice.
type Tree struct {
	n    int
	bit  []int64 // 1-based internal array
	vals []int64 // current values, for O(1) Get
	log  uint    // highest power of two <= n
}

// New returns a tree of n zero values. n must be positive.
func New(n int) *Tree {
	if n <= 0 {
		panic("fenwick: New called with n <= 0")
	}
	return &Tree{
		n:    n,
		bit:  make([]int64, n+1),
		vals: make([]int64, n),
		log:  highBit(n),
	}
}

// FromSlice returns a tree initialized with a copy of xs in O(n).
func FromSlice(xs []int64) *Tree {
	t := New(len(xs))
	copy(t.vals, xs)
	for i, v := range xs {
		t.bit[i+1] += v
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= t.n {
			t.bit[parent] += t.bit[i+1]
		}
	}
	return t
}

func highBit(n int) uint {
	var l uint
	for 1<<(l+1) <= n {
		l++
	}
	return l
}

// Len returns the number of slots.
func (t *Tree) Len() int { return t.n }

// Get returns the value at index i.
func (t *Tree) Get(i int) int64 { return t.vals[i] }

// Add adds delta to the value at index i.
func (t *Tree) Add(i int, delta int64) {
	t.vals[i] += delta
	for j := i + 1; j <= t.n; j += j & -j {
		t.bit[j] += delta
	}
}

// Prefix returns the sum of values at indices [0, i]. Prefix(-1) is 0.
func (t *Tree) Prefix(i int) int64 {
	var s int64
	for j := i + 1; j > 0; j -= j & -j {
		s += t.bit[j]
	}
	return s
}

// Total returns the sum of all values.
func (t *Tree) Total() int64 { return t.Prefix(t.n - 1) }

// Find returns the smallest index i such that Prefix(i) > r, assuming all
// values are non-negative. It requires 0 <= r < Total(); sampling r uniformly
// from [0, Total) selects index i with probability vals[i]/Total.
func (t *Tree) Find(r int64) int {
	if r < 0 {
		panic("fenwick: Find called with negative threshold")
	}
	pos := 0 // 1-based position of the last block kept to the left
	for step := 1 << t.log; step > 0; step >>= 1 {
		next := pos + step
		if next <= t.n && t.bit[next] <= r {
			pos = next
			r -= t.bit[next]
		}
	}
	if pos >= t.n {
		panic("fenwick: Find threshold >= Total")
	}
	return pos // pos is 0-based index of the answer
}

// SetAll replaces every value with xs in O(n), the bulk counterpart of n
// point Adds (see Dual.SetAll). xs must have exactly Len() values.
func (t *Tree) SetAll(xs []int64) {
	if len(xs) != t.n {
		panic("fenwick: Tree.SetAll called with wrong length")
	}
	copy(t.vals, xs)
	for i := range t.bit {
		t.bit[i] = 0
	}
	for i, v := range xs {
		t.bit[i+1] += v
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= t.n {
			t.bit[parent] += t.bit[i+1]
		}
	}
}

// Dual maintains values xᵢ >= 0 together with prefix sums of xᵢ and xᵢ².
// The zero value is not usable; construct with NewDual or DualFromSlice.
//
// A Dual can optionally carry per-index stubborn floors bᵢ (SetStubborn),
// for the stubborn-agent USD variant: alongside Σxᵢ and Σxᵢ² it then also
// maintains Σbᵢ (static) and Σbᵢxᵢ (updated with every Add/SetAll), which is
// exactly what the variant's weighted descent over
// wᵢ = (xᵢ−bᵢ)·(D−xᵢ) needs (see FindWeightedStubborn).
//
// The whole-array totals are kept current by every mutation, so Sum,
// SumSquares and the weighted totals are O(1). SetAll and SetStubborn only
// mark the prefix trees stale, and an Add on a stale tree touches only the
// values and the totals. The first descent (FindSupport, FindWeighted,
// FindWeightedStubborn) on a stale tree answers with one linear pass over
// the values and leaves the trees stale; only a second descent before the
// next bulk set rebuilds them, once, in O(n). Bulk sets that no descent
// reads in between — the windowed simulation kernels' steady state — cost
// one O(n) copy each, and a bulk set followed by a single descent — a
// window and then one exact step, or a trial reset and a one-interaction
// trial — costs that copy plus at most one O(n) pass. Because a descent may
// rebuild, a Dual is not safe for concurrent use, not even by readers
// alone.
type Dual struct {
	n    int
	sx   []int64     // Fenwick over xᵢ (bounded by n, int64 suffices)
	sx2  []u128.U128 // Fenwick over xᵢ² (reaches n² ≈ 2⁷⁴ at MaxN)
	vals []int64
	log  uint

	sum   int64     // Σxᵢ
	sum2  u128.U128 // Σxᵢ²
	sumBX u128.U128 // Σbᵢxᵢ, zero without floors
	// stale marks sx, sx2 and sbx as out of date with vals; see rebuild.
	stale bool
	// scanned marks a stale tree whose one linear-pass descent is spent:
	// the next descent rebuilds (see scanOnce).
	scanned bool

	// Stubborn floors, nil unless SetStubborn installed them.
	sb    []int64     // Fenwick over bᵢ (static after SetStubborn)
	sbx   []u128.U128 // Fenwick over bᵢ·xᵢ (reaches n² at MaxN)
	bvals []int64     // current floors, for O(1) access
	bsum  int64       // Σbᵢ
}

// NewDual returns a dual tree of n zero values. n must be positive.
func NewDual(n int) *Dual {
	if n <= 0 {
		panic("fenwick: NewDual called with n <= 0")
	}
	return &Dual{
		n:    n,
		sx:   make([]int64, n+1),
		sx2:  make([]u128.U128, n+1),
		vals: make([]int64, n),
		log:  highBit(n),
	}
}

// DualFromSlice returns a dual tree initialized with a copy of xs in O(n),
// its prefix trees built. All values must be non-negative.
func DualFromSlice(xs []int64) *Dual {
	d := NewDual(len(xs))
	d.SetAll(xs)
	d.rebuild()
	return d
}

// Len returns the number of slots.
func (d *Dual) Len() int { return d.n }

// Get returns the value at index i.
func (d *Dual) Get(i int) int64 { return d.vals[i] }

// Add adds delta to the value at index i, keeping the totals and (unless
// they are stale) the prefix trees in sync. The resulting value must remain
// non-negative.
func (d *Dual) Add(i int, delta int64) {
	old := d.vals[i]
	nv := old + delta
	if nv < 0 {
		panic("fenwick: Dual.Add would make value negative")
	}
	d.vals[i] = nv
	d.sum += delta
	fresh := !d.stale // a stale tree's nodes wait for the next rebuild
	// The square delta nv² − old² = delta·(nv+old) factors into a 64×64
	// product (|delta| <= n and nv+old <= 2n both fit uint64 for any
	// admissible population), applied by sign. The subtraction is exact:
	// the total and every node covering index i hold at least
	// old² >= |nv²−old²| when delta is negative.
	if delta >= 0 {
		d2 := u128.Mul64(uint64(delta), uint64(nv+old))
		d.sum2 = d.sum2.Add(d2)
		for j := i + 1; fresh && j <= d.n; j += j & -j {
			d.sx[j] += delta
			d.sx2[j] = d.sx2[j].Add(d2)
		}
	} else {
		d2 := u128.Mul64(uint64(-delta), uint64(nv+old))
		d.sum2 = d.sum2.Sub(d2)
		for j := i + 1; fresh && j <= d.n; j += j & -j {
			d.sx[j] += delta
			d.sx2[j] = d.sx2[j].Sub(d2)
		}
	}
	if d.bvals != nil {
		// Δ(bᵢ·xᵢ) = bᵢ·delta: one more 64×64 product per touched node,
		// exact for |delta| <= n and bᵢ <= n. Subtractions are exact: the
		// total and nodes covering i hold at least bᵢ·old >= bᵢ·|delta|
		// when delta < 0 (old >= -delta, or nv would be negative).
		if b := d.bvals[i]; b != 0 {
			if delta >= 0 {
				db := u128.Mul64(uint64(b), uint64(delta))
				d.sumBX = d.sumBX.Add(db)
				for j := i + 1; fresh && j <= d.n; j += j & -j {
					d.sbx[j] = d.sbx[j].Add(db)
				}
			} else {
				db := u128.Mul64(uint64(b), uint64(-delta))
				d.sumBX = d.sumBX.Sub(db)
				for j := i + 1; fresh && j <= d.n; j += j & -j {
					d.sbx[j] = d.sbx[j].Sub(db)
				}
			}
		}
	}
}

// Sum returns Σ xᵢ over all indices.
func (d *Dual) Sum() int64 { return d.sum }

// SumSquares returns Σ xᵢ² over all indices.
func (d *Dual) SumSquares() u128.U128 { return d.sum2 }

// TotalWeighted returns Σᵢ (D·xᵢ − xᵢ²) = D·Σxᵢ − Σxᵢ². With D = Σxᵢ this is
// the number of ordered pairs of decided agents holding different opinions.
// The subtraction is exact: Σxᵢ² <= D·Σxᵢ whenever every xᵢ <= D.
func (d *Dual) TotalWeighted(dTotal int64) u128.U128 {
	return u128.Mul64(uint64(dTotal), uint64(d.sum)).Sub(d.sum2)
}

// FindWeighted returns the smallest index i such that the prefix sum of
// weights wⱼ = D·xⱼ − xⱼ² over j <= i exceeds r. It requires every xⱼ <= D
// (so all weights are non-negative) and 0 <= r < TotalWeighted(D). Sampling
// r uniformly selects index i with probability wᵢ/Σw, the exact distribution
// of the responder in a "decided meets differently-decided" interaction.
func (d *Dual) FindWeighted(dTotal int64, r u128.U128) int {
	if d.scanOnce() {
		// wᵢ = D·xᵢ − xᵢ² = xᵢ·(D−xᵢ), one 64×64 product for xᵢ <= D.
		for i, v := range d.vals {
			w := u128.Mul64(uint64(v), uint64(dTotal-v))
			if r.Less(w) {
				return i
			}
			r = r.Sub(w)
		}
		panic("fenwick: FindWeighted threshold >= TotalWeighted")
	}
	pos := 0
	for step := 1 << d.log; step > 0; step >>= 1 {
		next := pos + step
		if next <= d.n {
			w := u128.Mul64(uint64(dTotal), uint64(d.sx[next])).Sub(d.sx2[next])
			if w.Leq(r) {
				pos = next
				r = r.Sub(w)
			}
		}
	}
	if pos >= d.n {
		panic("fenwick: FindWeighted threshold >= TotalWeighted")
	}
	return pos
}

// FindSupport returns the smallest index i such that the prefix sum of the
// values xⱼ over j <= i exceeds r. It requires 0 <= r < Sum(); sampling r
// uniformly selects index i with probability xᵢ/Σx — the law of the opinion
// adopted by an undecided responder.
func (d *Dual) FindSupport(r int64) int {
	if r < 0 {
		panic("fenwick: FindSupport called with negative threshold")
	}
	if d.scanOnce() {
		for i, v := range d.vals {
			if r < v {
				return i
			}
			r -= v
		}
		panic("fenwick: FindSupport threshold >= Sum")
	}
	pos := 0
	for step := 1 << d.log; step > 0; step >>= 1 {
		next := pos + step
		if next <= d.n && d.sx[next] <= r {
			pos = next
			r -= d.sx[next]
		}
	}
	if pos >= d.n {
		panic("fenwick: FindSupport threshold >= Sum")
	}
	return pos
}

// SetAll replaces every value with xs, the bulk counterpart of n point
// Adds: it copies the values and recomputes the totals in O(n) and leaves
// the prefix trees stale (see Dual: the next descent scans the values, a
// second one rebuilds the trees). The batched simulation kernel applies a
// whole window of per-opinion deltas with one SetAll; consecutive windows
// pay no tree rebuild at all, and a window followed by a single exact step
// pays one linear pass. xs must have exactly Len() non-negative values.
func (d *Dual) SetAll(xs []int64) {
	if len(xs) != d.n {
		panic("fenwick: SetAll called with wrong length")
	}
	// Validate before mutating so a contract panic leaves the tree intact.
	var sum int64
	var sum2 u128.U128
	for _, v := range xs {
		if v < 0 {
			panic("fenwick: SetAll called with negative value")
		}
		sum += v
		sum2 = sum2.Add(u128.Mul64(uint64(v), uint64(v)))
	}
	copy(d.vals, xs)
	d.sum, d.sum2 = sum, sum2
	d.sumBX = d.floorWeightedSum()
	d.stale, d.scanned = true, false
}

// scanOnce reports whether a descent should answer with a linear pass over
// the values: true for the first descent on a stale tree. The second one
// rebuilds the trees, and it and every later descent until the next bulk
// set walk them. A pass returns the first index whose running weight
// exceeds the threshold, the index the rebuilt tree's descent returns, so
// which way a descent goes never shows in its answer.
func (d *Dual) scanOnce() bool {
	if !d.stale {
		return false
	}
	if !d.scanned {
		d.scanned = true
		return true
	}
	d.rebuild()
	return false
}

// rebuild brings the prefix trees (sx, sx2 and, with floors, sbx) up to
// date with the values in O(n) and clears the stale mark.
func (d *Dual) rebuild() {
	clear(d.sx)
	clear(d.sx2)
	for i, v := range d.vals {
		d.sx[i+1] += v
		d.sx2[i+1] = d.sx2[i+1].Add(u128.Mul64(uint64(v), uint64(v)))
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= d.n {
			d.sx[parent] += d.sx[i+1]
			d.sx2[parent] = d.sx2[parent].Add(d.sx2[i+1])
		}
	}
	if d.bvals != nil {
		clear(d.sbx)
		for i, v := range d.vals {
			d.sbx[i+1] = d.sbx[i+1].Add(u128.Mul64(uint64(d.bvals[i]), uint64(v)))
			if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= d.n {
				d.sbx[parent] = d.sbx[parent].Add(d.sbx[i+1])
			}
		}
	}
	d.stale = false
}

// floorWeightedSum returns Σbᵢxᵢ over the current values, 0 without floors.
func (d *Dual) floorWeightedSum() u128.U128 {
	var s u128.U128
	for i, b := range d.bvals {
		s = s.Add(u128.Mul64(uint64(b), uint64(d.vals[i])))
	}
	return s
}

// SetStubborn installs per-index stubborn floors bᵢ (a copy of b), builds
// the static Σbᵢ tree and marks the prefix trees stale, as SetAll does;
// passing nil clears the floors and drops the extra maintenance from Add
// and SetAll. Floors must be non-negative; the stubborn descent's weight
// contract additionally needs xᵢ >= bᵢ, which the caller (the stubborn
// dynamics, whose transition law never removes a stubborn agent)
// maintains. Buffers are reused across calls when the length matches, so
// arena-style Reset cycles stay allocation-free.
func (d *Dual) SetStubborn(b []int64) {
	if b == nil {
		d.sb, d.sbx, d.bvals, d.bsum, d.sumBX = nil, nil, nil, 0, u128.U128{}
		return
	}
	if len(b) != d.n {
		panic("fenwick: SetStubborn called with wrong length")
	}
	for _, v := range b {
		if v < 0 {
			panic("fenwick: SetStubborn called with negative floor")
		}
	}
	if cap(d.bvals) < d.n {
		d.bvals = make([]int64, d.n)
		d.sb = make([]int64, d.n+1)
		d.sbx = make([]u128.U128, d.n+1)
	}
	d.bvals = d.bvals[:d.n]
	d.sb = d.sb[:d.n+1]
	d.sbx = d.sbx[:d.n+1]
	copy(d.bvals, b)
	d.bsum = 0
	clear(d.sb)
	for i, v := range b {
		d.bsum += v
		d.sb[i+1] += v
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= d.n {
			d.sb[parent] += d.sb[i+1]
		}
	}
	d.sumBX = d.floorWeightedSum()
	d.stale, d.scanned = true, false
}

// Floors returns the installed stubborn floors without copying, or nil when
// none are installed. The slice is the tree's own store: callers must treat
// it as read-only. The windowed simulation kernels read it once per window.
func (d *Dual) Floors() []int64 { return d.bvals }

// StubbornSum returns Σbᵢ over all indices (0 when no floors are installed).
func (d *Dual) StubbornSum() int64 { return d.bsum }

// TotalWeightedStubborn returns Σᵢ (xᵢ−bᵢ)·(D−xᵢ) =
// D·(Σxᵢ−Σbᵢ) − Σxᵢ² + Σbᵢxᵢ, the stubborn variant's count of ordered
// "decided responder may undecide" pairs. It requires installed floors with
// every bᵢ <= xᵢ <= D; the subtraction is then exact because the total is a
// sum of non-negative terms.
func (d *Dual) TotalWeightedStubborn(dTotal int64) u128.U128 {
	pos := u128.Mul64(uint64(dTotal), uint64(d.sum-d.bsum)).Add(d.sumBX)
	return pos.Sub(d.sum2)
}

// FindWeightedStubborn returns the smallest index i such that the prefix sum
// of weights wⱼ = (xⱼ−bⱼ)·(D−xⱼ) over j <= i exceeds r. It requires
// installed floors, bⱼ <= xⱼ <= D for every j (all weights non-negative),
// and 0 <= r < TotalWeightedStubborn(D). Each node weight is evaluated as
// (D·sx + sbx) − (sx2 + D·sb); both sides are exact u128 sums and the
// subtraction is exact because every node's weight is a sum of non-negative
// per-index weights.
func (d *Dual) FindWeightedStubborn(dTotal int64, r u128.U128) int {
	if d.scanOnce() {
		// wᵢ = (xᵢ−bᵢ)·(D−xᵢ), one 64×64 product for bᵢ <= xᵢ <= D.
		for i, v := range d.vals {
			w := u128.Mul64(uint64(v-d.bvals[i]), uint64(dTotal-v))
			if r.Less(w) {
				return i
			}
			r = r.Sub(w)
		}
		panic("fenwick: FindWeightedStubborn threshold >= TotalWeightedStubborn")
	}
	pos := 0
	for step := 1 << d.log; step > 0; step >>= 1 {
		next := pos + step
		if next <= d.n {
			pos128 := u128.Mul64(uint64(dTotal), uint64(d.sx[next])).Add(d.sbx[next])
			neg128 := d.sx2[next].Add(u128.Mul64(uint64(dTotal), uint64(d.sb[next])))
			w := pos128.Sub(neg128)
			if w.Leq(r) {
				pos = next
				r = r.Sub(w)
			}
		}
	}
	if pos >= d.n {
		panic("fenwick: FindWeightedStubborn threshold >= TotalWeightedStubborn")
	}
	return pos
}

// Values appends a copy of the current values to dst and returns it.
func (d *Dual) Values(dst []int64) []int64 {
	return append(dst, d.vals...)
}

// View returns the tree's live value slice without copying. The slice is
// the tree's own backing store: it stays valid (and visible through later
// reads) across Add and SetAll, and callers must treat it as read-only —
// writing through it would desynchronize the totals and the prefix trees.
// The batched simulation kernels read the pre-window supports through it
// once per window instead of copying k values.
func (d *Dual) View() []int64 {
	return d.vals
}
