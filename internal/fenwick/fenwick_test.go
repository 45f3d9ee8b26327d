package fenwick

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/u128"
)

func naivePrefix(xs []int64, i int) int64 {
	var s int64
	for j := 0; j <= i; j++ {
		s += xs[j]
	}
	return s
}

func naiveFind(xs []int64, r int64) int {
	var s int64
	for i, v := range xs {
		s += v
		if s > r {
			return i
		}
	}
	return -1
}

func TestTreeBasics(t *testing.T) {
	tr := New(5)
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	tr.Add(0, 3)
	tr.Add(2, 7)
	tr.Add(4, 1)
	if got := tr.Total(); got != 11 {
		t.Fatalf("Total = %d, want 11", got)
	}
	wantPrefix := []int64{3, 3, 10, 10, 11}
	for i, w := range wantPrefix {
		if got := tr.Prefix(i); got != w {
			t.Fatalf("Prefix(%d) = %d, want %d", i, got, w)
		}
	}
	if got := tr.Prefix(-1); got != 0 {
		t.Fatalf("Prefix(-1) = %d, want 0", got)
	}
	if got := tr.Get(2); got != 7 {
		t.Fatalf("Get(2) = %d, want 7", got)
	}
	tr.Add(2, -7)
	if got := tr.Total(); got != 4 {
		t.Fatalf("Total after removal = %d, want 4", got)
	}
}

func TestFromSliceMatchesIncremental(t *testing.T) {
	xs := []int64{5, 0, 3, 9, 1, 0, 2, 8, 4}
	a := FromSlice(xs)
	b := New(len(xs))
	for i, v := range xs {
		b.Add(i, v)
	}
	for i := range xs {
		if a.Prefix(i) != b.Prefix(i) {
			t.Fatalf("Prefix(%d): FromSlice %d != incremental %d", i, a.Prefix(i), b.Prefix(i))
		}
	}
}

func TestTreePropertyVsNaive(t *testing.T) {
	check := func(raw []uint16, ops []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		xs := make([]int64, len(raw))
		for i, v := range raw {
			xs[i] = int64(v % 100)
		}
		tr := FromSlice(xs)
		// Apply random point updates.
		for _, op := range ops {
			i := int(op) % len(xs)
			delta := int64(op%7) - 3
			if xs[i]+delta < 0 {
				delta = -xs[i]
			}
			xs[i] += delta
			tr.Add(i, delta)
		}
		for i := range xs {
			if tr.Prefix(i) != naivePrefix(xs, i) {
				return false
			}
			if tr.Get(i) != xs[i] {
				return false
			}
		}
		total := tr.Total()
		if total == 0 {
			return true
		}
		// Every threshold maps to the same index as a linear scan.
		for r := int64(0); r < total; r += max64(1, total/17) {
			if tr.Find(r) != naiveFind(xs, r) {
				return false
			}
		}
		return tr.Find(total-1) == naiveFind(xs, total-1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeFindBoundaries(t *testing.T) {
	tr := FromSlice([]int64{0, 5, 0, 3, 0})
	cases := []struct {
		r    int64
		want int
	}{
		{0, 1}, {4, 1}, {5, 3}, {7, 3},
	}
	for _, tc := range cases {
		if got := tr.Find(tc.r); got != tc.want {
			t.Fatalf("Find(%d) = %d, want %d", tc.r, got, tc.want)
		}
	}
}

func TestTreeFindPanicsOutOfRange(t *testing.T) {
	tr := FromSlice([]int64{1, 2, 3})
	for _, r := range []int64{-1, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Find(%d) did not panic", r)
				}
			}()
			tr.Find(r)
		}()
	}
}

func TestTreeSamplingDistribution(t *testing.T) {
	// Find with a uniform threshold must sample index i w.p. v_i/total.
	xs := []int64{1, 0, 2, 3, 0, 4}
	tr := FromSlice(xs)
	src := rng.New(99)
	const trials = 100000
	counts := make([]int64, len(xs))
	total := tr.Total()
	for i := 0; i < trials; i++ {
		counts[tr.Find(src.Int63n(total))]++
	}
	for i, v := range xs {
		want := float64(trials) * float64(v) / float64(total)
		got := float64(counts[i])
		if v == 0 && counts[i] != 0 {
			t.Fatalf("index %d has zero weight but %d samples", i, counts[i])
		}
		if v > 0 && abs(got-want) > 5*sqrtf(want) {
			t.Fatalf("index %d sampled %v times, want ~%v", i, got, want)
		}
	}
}

func TestDualBasics(t *testing.T) {
	d := NewDual(4)
	d.Add(0, 3) // x = [3,0,0,0]
	d.Add(2, 5) // x = [3,0,5,0]
	if got := d.Sum(); got != 8 {
		t.Fatalf("Sum = %d, want 8", got)
	}
	if got := d.SumSquares(); got != u128.From64(34) {
		t.Fatalf("SumSquares = %v, want 34", got)
	}
	// D = 8: weights are x_i*(8-x_i): [15, 0, 15, 0], total 30.
	if got := d.TotalWeighted(8); got != u128.From64(30) {
		t.Fatalf("TotalWeighted(8) = %v, want 30", got)
	}
	d.Add(2, -5)
	if got := d.SumSquares(); got != u128.From64(9) {
		t.Fatalf("SumSquares after removal = %v, want 9", got)
	}
}

func TestDualFromSliceMatchesIncremental(t *testing.T) {
	xs := []int64{2, 0, 7, 1, 1, 0, 9}
	a := DualFromSlice(xs)
	b := NewDual(len(xs))
	for i, v := range xs {
		b.Add(i, v)
	}
	if a.Sum() != b.Sum() || a.SumSquares() != b.SumSquares() {
		t.Fatalf("FromSlice (%d,%v) != incremental (%d,%v)",
			a.Sum(), a.SumSquares(), b.Sum(), b.SumSquares())
	}
	total := a.TotalWeighted(a.Sum())
	for r := int64(0); u128.From64(r).Less(total); r++ {
		if a.FindWeighted(a.Sum(), u128.From64(r)) != b.FindWeighted(b.Sum(), u128.From64(r)) {
			t.Fatalf("FindWeighted diverges at r=%d", r)
		}
	}
}

func TestDualSetAllMatchesFromSlice(t *testing.T) {
	d := DualFromSlice([]int64{2, 0, 7, 1, 1, 0, 9})
	xs := []int64{5, 3, 0, 0, 11, 2, 4}
	d.SetAll(xs)
	ref := DualFromSlice(xs)
	if d.Sum() != ref.Sum() || d.SumSquares() != ref.SumSquares() {
		t.Fatalf("SetAll (%d,%v) != fresh (%d,%v)",
			d.Sum(), d.SumSquares(), ref.Sum(), ref.SumSquares())
	}
	for i := range xs {
		if d.Get(i) != xs[i] {
			t.Fatalf("Get(%d) = %d, want %d", i, d.Get(i), xs[i])
		}
	}
	for r := int64(0); r < d.Sum(); r++ {
		if d.FindSupport(r) != ref.FindSupport(r) {
			t.Fatalf("FindSupport diverges at r=%d", r)
		}
	}
	dTotal := d.Sum()
	wTotal := d.TotalWeighted(dTotal)
	for r := int64(0); u128.From64(r).Less(wTotal); r++ {
		if d.FindWeighted(dTotal, u128.From64(r)) != ref.FindWeighted(dTotal, u128.From64(r)) {
			t.Fatalf("FindWeighted diverges at r=%d", r)
		}
	}
	// Point updates after a bulk rebuild stay consistent.
	d.Add(2, 6)
	ref.Add(2, 6)
	if d.Sum() != ref.Sum() || d.SumSquares() != ref.SumSquares() {
		t.Fatal("Add after SetAll diverged from reference")
	}
}

func TestDualSetAllPanics(t *testing.T) {
	d := DualFromSlice([]int64{1, 2, 3})
	for name, xs := range map[string][]int64{
		"wrong length": {1, 2},
		"negative":     {1, -2, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetAll %s did not panic", name)
				}
			}()
			d.SetAll(xs)
		}()
	}
}

func naiveFindWeighted(xs []int64, dTotal, r int64) int {
	var s int64
	for i, v := range xs {
		s += v*dTotal - v*v
		if s > r {
			return i
		}
	}
	return -1
}

func TestDualFindWeightedPropertyVsNaive(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 48 {
			raw = raw[:48]
		}
		xs := make([]int64, len(raw))
		for i, v := range raw {
			xs[i] = int64(v % 50)
		}
		d := DualFromSlice(xs)
		dTotal := d.Sum() // weights x_i(D - x_i) with D = sum: all valid
		wTotal := d.TotalWeighted(dTotal)
		if wTotal.IsZero() {
			return true
		}
		total := int64(wTotal.Lo) // bounded by 48·50·2400 ≪ 2⁶³
		step := max64(1, total/23)
		for r := int64(0); r < total; r += step {
			if d.FindWeighted(dTotal, u128.From64(r)) != naiveFindWeighted(xs, dTotal, r) {
				return false
			}
		}
		return d.FindWeighted(dTotal, u128.From64(total-1)) == naiveFindWeighted(xs, dTotal, total-1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDualSamplingDistribution(t *testing.T) {
	// FindWeighted with a uniform threshold must sample index i with
	// probability x_i(D-x_i)/sum, the Observation 6.2 responder law.
	xs := []int64{10, 0, 5, 25, 60}
	d := DualFromSlice(xs)
	dTotal := d.Sum()
	total := int64(d.TotalWeighted(dTotal).Lo)
	src := rng.New(123)
	const trials = 200000
	counts := make([]int64, len(xs))
	for i := 0; i < trials; i++ {
		counts[d.FindWeighted(dTotal, u128.From64(src.Int63n(total)))]++
	}
	for i, v := range xs {
		w := v * (dTotal - v)
		want := float64(trials) * float64(w) / float64(total)
		got := float64(counts[i])
		if w == 0 && counts[i] != 0 {
			t.Fatalf("index %d has zero weight but %d samples", i, counts[i])
		}
		if w > 0 && abs(got-want) > 5*sqrtf(want) {
			t.Fatalf("index %d sampled %v times, want ~%v", i, got, want)
		}
	}
}

// TestDualMaxNScale exercises the 128-bit square-sum path with supports at
// the 10¹¹ population scale, where Σxᵢ² and the weighted total overflow
// int64, checking every query and descent against math/big.
func TestDualMaxNScale(t *testing.T) {
	const maxN = int64(100_000_000_000)
	xs := []int64{maxN / 2, 0, maxN / 3, maxN / 7, maxN/2 - maxN/3 - maxN/7}
	d := DualFromSlice(xs)
	dTotal := d.Sum()
	if dTotal != maxN {
		t.Fatalf("Sum = %d, want %d", dTotal, maxN)
	}
	big64 := func(v int64) *big.Int { return big.NewInt(v) }
	u2big := func(x u128.U128) *big.Int {
		b := new(big.Int).SetUint64(x.Hi)
		b.Lsh(b, 64)
		return b.Or(b, new(big.Int).SetUint64(x.Lo))
	}
	wantSq, wantTotal := new(big.Int), new(big.Int)
	weights := make([]*big.Int, len(xs))
	for i, v := range xs {
		sq := new(big.Int).Mul(big64(v), big64(v))
		wantSq.Add(wantSq, sq)
		w := new(big.Int).Mul(big64(dTotal), big64(v))
		w.Sub(w, sq)
		weights[i] = w
		wantTotal.Add(wantTotal, w)
	}
	if got := u2big(d.SumSquares()); got.Cmp(wantSq) != 0 {
		t.Fatalf("SumSquares = %v, want %v", got, wantSq)
	}
	if got := u2big(d.TotalWeighted(dTotal)); got.Cmp(wantTotal) != 0 {
		t.Fatalf("TotalWeighted = %v, want %v", got, wantTotal)
	}
	if wantSq.BitLen() <= 63 {
		t.Fatalf("test is not exercising the >int64 regime (Σx² has %d bits)", wantSq.BitLen())
	}
	// Each slot's cumulative weight band must descend to exactly that slot,
	// at both band edges.
	cum := new(big.Int)
	for i, w := range weights {
		if w.Sign() > 0 {
			lo := new(big.Int).Set(cum)
			hi := new(big.Int).Add(cum, w)
			hi.Sub(hi, big.NewInt(1))
			for _, r := range []*big.Int{lo, hi} {
				rq, rr := new(big.Int).QuoRem(r, new(big.Int).Lsh(big.NewInt(1), 64), new(big.Int))
				ru := u128.U128{Hi: rq.Uint64(), Lo: rr.Uint64()}
				if got := d.FindWeighted(dTotal, ru); got != i {
					t.Fatalf("FindWeighted(r=%v) = %d, want %d", r, got, i)
				}
			}
		}
		cum.Add(cum, w)
	}
	// A point update at this scale keeps the square sums exact.
	d.Add(0, -maxN/4)
	wantSq.Sub(wantSq, new(big.Int).Mul(big64(maxN/2), big64(maxN/2)))
	nv := maxN/2 - maxN/4
	wantSq.Add(wantSq, new(big.Int).Mul(big64(nv), big64(nv)))
	if got := u2big(d.SumSquares()); got.Cmp(wantSq) != 0 {
		t.Fatalf("SumSquares after Add = %v, want %v", got, wantSq)
	}
}

// TestDualDeferredRebuildMaxNScale pins that a descent after SetAll — which
// leaves the prefix trees stale — selects exactly what a tree built eagerly
// by DualFromSlice selects on the same values, at supports whose Σx² and
// weighted totals are past int64, with and without stubborn floors and
// after a point Add on the stale tree.
func TestDualDeferredRebuildMaxNScale(t *testing.T) {
	const maxN = int64(100_000_000_000)
	xs := []int64{maxN / 2, 0, maxN / 3, maxN / 7, maxN/2 - maxN/3 - maxN/7}
	floors := []int64{maxN / 5, 0, 7, maxN / 11, 0}
	src := rng.New(3)
	for _, b := range [][]int64{nil, floors} {
		d := DualFromSlice([]int64{1, maxN / 4, 2, 3, maxN / 4})
		ref := DualFromSlice(xs)
		d.SetStubborn(b)
		ref.SetStubborn(b)
		d.SetAll(xs)
		d.Add(1, maxN/9) // lands on the stale trees
		ref.Add(1, maxN/9)
		dTotal := ref.Sum()
		if d.Sum() != dTotal || d.SumSquares() != ref.SumSquares() {
			t.Fatalf("floors %v: totals (%d, %v) != eager (%d, %v)", b, d.Sum(), d.SumSquares(), dTotal, ref.SumSquares())
		}
		if ref.SumSquares().Hi == 0 && ref.SumSquares().Lo>>63 == 0 {
			t.Fatal("test is not exercising the >int64 regime")
		}
		// Band edges of every slot, plus random thresholds.
		total := ref.TotalWeighted(dTotal)
		thresholds := []u128.U128{{}, total.Sub(u128.From64(1))}
		var cum u128.U128
		for _, v := range ref.View() {
			cum = cum.Add(u128.Mul64(uint64(dTotal), uint64(v)).Sub(u128.Mul64(uint64(v), uint64(v))))
			if !cum.IsZero() && cum.Less(total) {
				thresholds = append(thresholds, cum.Sub(u128.From64(1)), cum)
			}
		}
		for range 64 {
			thresholds = append(thresholds, src.Uint128n(total))
		}
		for _, r := range thresholds {
			if got, want := d.FindWeighted(dTotal, r), ref.FindWeighted(dTotal, r); got != want {
				t.Fatalf("floors %v: FindWeighted(%v) = %d, eager %d", b, r, got, want)
			}
		}
		for range 64 {
			r := src.Int63n(dTotal)
			if got, want := d.FindSupport(r), ref.FindSupport(r); got != want {
				t.Fatalf("floors %v: FindSupport(%d) = %d, eager %d", b, r, got, want)
			}
		}
		if b == nil {
			continue
		}
		ws := ref.TotalWeightedStubborn(dTotal)
		if got := d.TotalWeightedStubborn(dTotal); got != ws {
			t.Fatalf("TotalWeightedStubborn = %v, eager %v", got, ws)
		}
		for range 64 {
			r := src.Uint128n(ws)
			if got, want := d.FindWeightedStubborn(dTotal, r), ref.FindWeightedStubborn(dTotal, r); got != want {
				t.Fatalf("FindWeightedStubborn(%v) = %d, eager %d", r, got, want)
			}
		}
	}
}

func TestDualAddNegativePanics(t *testing.T) {
	d := NewDual(2)
	d.Add(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Add below zero did not panic")
		}
	}()
	d.Add(0, -2)
}

func TestDualValuesCopies(t *testing.T) {
	d := DualFromSlice([]int64{1, 2, 3})
	vals := d.Values(nil)
	vals[0] = 99
	if d.Get(0) != 1 {
		t.Fatal("Values must return a copy, not an alias")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0) },
		func() { NewDual(-1) },
		func() { DualFromSlice([]int64{-1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("constructor with invalid input did not panic")
				}
			}()
			fn()
		}()
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func sqrtf(x float64) float64 {
	// Newton iterations suffice for test tolerances.
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 40; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

func BenchmarkTreeAddFind(b *testing.B) {
	tr := New(64)
	for i := 0; i < 64; i++ {
		tr.Add(i, int64(i+1))
	}
	src := rng.New(1)
	total := tr.Total()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := tr.Find(src.Int63n(total))
		tr.Add(j, 1)
		tr.Add(j, -1)
	}
}

func BenchmarkDualFindWeighted(b *testing.B) {
	xs := make([]int64, 64)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	d := DualFromSlice(xs)
	dTotal := d.Sum()
	total := int64(d.TotalWeighted(dTotal).Lo)
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.FindWeighted(dTotal, u128.From64(src.Int63n(total)))
	}
}

// BenchmarkDualSetAll times one bulk set of 32 values (the small-n fleet's
// opinion count), alone and followed by one descent, which answers by a
// linear pass over the values — the per-window cost of the windowed kernels
// when the next window follows directly, and when an exact step follows.
func BenchmarkDualSetAll(b *testing.B) {
	xs := make([]int64, 32)
	for i := range xs {
		xs[i] = int64(31 * (i + 1))
	}
	d := DualFromSlice(xs)
	b.Run("set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.SetAll(xs)
		}
	})
	b.Run("set+descend", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.SetAll(xs)
			sinkIndex = d.FindSupport(int64(i) % d.Sum())
		}
	})
}

// BenchmarkDualSetAllDescent times a bulk set followed by one weighted
// descent (the linear pass) and by two (the pass, then the rebuild and a
// tree descent) at k = 32 and 128, at uniform thresholds: the cost a trial
// reset or a window pays for the exact steps that follow it.
func BenchmarkDualSetAllDescent(b *testing.B) {
	for _, k := range []int{32, 128} {
		xs := make([]int64, k)
		for i := range xs {
			xs[i] = int64(31 * (i + 1))
		}
		d := DualFromSlice(xs)
		dTotal := d.Sum()
		total := d.TotalWeighted(dTotal)
		src := rng.New(1)
		rs := make([]u128.U128, 1024)
		for i := range rs {
			rs[i] = src.Uint128n(total)
		}
		for _, descents := range []int{1, 2} {
			b.Run(fmt.Sprintf("k=%d/descents=%d", k, descents), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.SetAll(xs)
					for j := range descents {
						sinkIndex = d.FindWeighted(dTotal, rs[(i+j)%len(rs)])
					}
				}
			})
		}
	}
}

// TestDualAllocFree pins a Dual's reset cycle at zero allocations: a bulk
// set, the linear-pass descent, an Add on the stale tree and the descent
// that rebuilds the trees.
func TestDualAllocFree(t *testing.T) {
	xs := []int64{5, 0, 9, 2, 7, 1, 3, 8}
	d := NewDual(len(xs))
	d.SetStubborn([]int64{1, 0, 2, 0, 0, 1, 0, 0})
	cycle := func() {
		d.SetAll(xs)
		dTotal := d.Sum()
		sinkIndex = d.FindWeighted(dTotal, u128.From64(17))
		d.Add(2, 1)
		d.Add(1, 1)
		dTotal = d.Sum()
		sinkIndex = d.FindWeightedStubborn(dTotal, u128.From64(23))
		sinkIndex = d.FindSupport(11)
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("SetAll, descents and Add allocate %.1f objects per cycle, want 0", avg)
	}
}

// sinkIndex keeps benchmarked descents from being optimized away.
var sinkIndex int

func TestDualView(t *testing.T) {
	d := DualFromSlice([]int64{3, 1, 4, 1, 5})
	v := d.View()
	if len(v) != 5 {
		t.Fatalf("View length %d, want 5", len(v))
	}
	for i, want := range []int64{3, 1, 4, 1, 5} {
		if v[i] != want {
			t.Fatalf("View[%d] = %d, want %d", i, v[i], want)
		}
	}
	// The view is live: point updates and bulk rebuilds show through it
	// without re-acquiring.
	d.Add(2, 7)
	if v[2] != 11 {
		t.Fatalf("View[2] after Add = %d, want 11", v[2])
	}
	d.SetAll([]int64{9, 8, 7, 6, 5})
	if v[0] != 9 || v[4] != 5 {
		t.Fatalf("View after SetAll = %v", v)
	}
}
