package fenwick

import (
	"testing"

	"repro/internal/u128"
)

// FuzzDual drives a Dual tree through an arbitrary interleaving of SetAll,
// Add, SetStubborn and descents decoded from the fuzz input, mirroring every
// step against a plain-slice model. The O(1) totals — Sum, SumSquares,
// TotalWeighted and, with floors installed, TotalWeightedStubborn — are
// checked after every operation; the descents (FindSupport, FindWeighted,
// FindWeightedStubborn) only at explicit query operations, so point Adds
// also land on trees a SetAll or SetStubborn left stale. A query checks
// many descents in a row, so on a stale tree its first one answers by a
// linear pass and the next rebuilds the trees to the model's values; the
// single-descent operation issues exactly one descent at a fuzzed
// threshold, which on a tree left stale by the operation before it takes
// the linear pass (and, issued twice in a row, the rebuild).
func FuzzDual(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{0x10, 0xFF, 0x00, 0x7F, 0x20, 0x05, 0x80, 0x01})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xFE, 0x01, 0xFD, 0x02, 0xFC, 0x03, 0xFB, 0x04, 0xFA})
	// n = 4: SetAll, floors, Add on the stale tree, query, SetAll, Add,
	// query, floors cleared, query.
	f.Add([]byte{0x03, 0x00, 9, 3, 7, 2, 200, 1, 40, 3, 0x02, 0x01, 128, 64, 255,
		0x01, 0x02, 0x90, 0x03, 0x00, 5, 1, 6, 2, 7, 3, 8, 1, 0x01, 0x01, 0x20,
		0x03, 0x02, 0x00, 0x03})
	// n = 2: SetAll, query (trees fresh), floors installed on the fresh
	// trees, query.
	f.Add([]byte{0x01, 0x00, 48, 1, 48, 1, 0x03, 0x02, 0x01, 48, 0, 0x03})
	// n = 5: SetAll, single FindWeighted (a pass), single FindSupport (the
	// rebuild), Add, single FindWeighted (the fresh tree), floors, single
	// stubborn descent (a pass), Add on the stale tree, single FindSupport
	// (the rebuild), SetAll, Add, single stubborn descent (a pass), query.
	f.Add([]byte{0x04, 0x00, 30, 1, 7, 3, 0, 0, 90, 2, 11, 1,
		0x05, 0x01, 0x00, 0x00, 0x05, 0x00, 0x02, 0x01,
		0x01, 0x02, 0x90, 0x05, 0x01, 0x00, 0x02,
		0x02, 0x03, 100, 50, 0, 200, 10, 0x05, 0x02, 0x00, 0x01,
		0x01, 0x00, 0xB0, 0x05, 0x00, 0x03, 0x00,
		0x00, 5, 1, 6, 3, 7, 2, 8, 1, 9, 3, 0x01, 0x04, 0x70, 0x05, 0x02, 0x01, 0x00,
		0x03})
	// n = 6, slot 0 empty: after each bulk set one pass, at the first
	// threshold of the second band or the last threshold of the last band:
	// SetAll, FindSupport; SetAll, FindWeighted twice (a pass, then the
	// rebuild); SetAll, FindWeighted; floors, stubborn; SetAll, stubborn.
	f.Add([]byte{0x05, 0x00, 0, 0, 5, 1, 9, 2, 0, 0, 4, 3, 7, 1,
		0x05, 0x00, 0x01, 0x00,
		0x00, 0, 0, 5, 1, 9, 2, 0, 0, 4, 3, 7, 1, 0x05, 0x01, 0x01, 0x00, 0x05, 0x01, 0x02, 0x00,
		0x00, 0, 0, 5, 1, 9, 2, 0, 0, 4, 3, 7, 1, 0x05, 0x01, 0x03, 0x01,
		0x02, 0x01, 0, 128, 255, 0, 64, 200, 0x05, 0x02, 0x01, 0x00,
		0x00, 0, 0, 5, 1, 9, 2, 0, 0, 4, 3, 7, 1, 0x05, 0x02, 0x03, 0x01,
		0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := int(next())%12 + 1
		d := NewDual(n)
		model := make([]int64, n)
		var floors []int64 // nil while no floors are installed

		floor := func(i int) int64 {
			if floors == nil {
				return 0
			}
			return floors[i]
		}

		// totals compares the O(1) surface against the naive model; it
		// never descends, so it leaves a stale tree stale. Values are
		// bounded (≤ ~2¹⁰ per slot), so no int64 concern anywhere here.
		totals := func() (sum int64) {
			var sum2, bx int64
			for i, v := range model {
				if got := d.Get(i); got != v {
					t.Fatalf("Get(%d) = %d, model %d (model %v)", i, got, v, model)
				}
				sum += v
				sum2 += v * v
				bx += floor(i) * v
			}
			if got := d.Sum(); got != sum {
				t.Fatalf("Sum = %d, model %d (model %v)", got, sum, model)
			}
			if got := d.SumSquares(); got != u128.From64(sum2) {
				t.Fatalf("SumSquares = %v, model %d (model %v)", got, sum2, model)
			}
			if got, want := d.TotalWeighted(sum), u128.From64(sum*sum-sum2); got != want {
				t.Fatalf("TotalWeighted(%d) = %v, want %v (model %v)", sum, got, want, model)
			}
			if floors != nil {
				var bsum int64
				for _, b := range floors {
					bsum += b
				}
				if got, want := d.TotalWeightedStubborn(sum), u128.From64(sum*(sum-bsum)-sum2+bx); got != want {
					t.Fatalf("TotalWeightedStubborn(%d) = %v, want %v (model %v, floors %v)", sum, got, want, model, floors)
				}
			}
			if vals := d.Values(nil); len(vals) != n {
				t.Fatalf("Values returned %d slots, want %d", len(vals), n)
			}
			return sum
		}

		// descend checks every descent at both edges of each slot's
		// cumulative band: a threshold inside the band must return exactly
		// that slot.
		descend := func() {
			sum := totals()
			bands := func(name string, weight func(i int, v int64) int64, find func(r int64) int) {
				var cum int64
				for i, v := range model {
					w := weight(i, v)
					if w > 0 {
						for _, r := range []int64{cum, cum + w - 1} {
							if got := find(r); got != i {
								t.Fatalf("%s(%d) = %d, want %d (model %v, floors %v)", name, r, got, i, model, floors)
							}
						}
					}
					cum += w
				}
			}
			bands("FindSupport", func(_ int, v int64) int64 { return v }, d.FindSupport)
			// With D = Sum every xᵢ ≤ D, so all weights are non-negative.
			bands("FindWeighted", func(_ int, v int64) int64 { return sum*v - v*v },
				func(r int64) int { return d.FindWeighted(sum, u128.From64(r)) })
			if floors != nil {
				bands("FindWeightedStubborn", func(i int, v int64) int64 { return (v - floors[i]) * (sum - v) },
					func(r int64) int { return d.FindWeightedStubborn(sum, u128.From64(r)) })
			}
		}

		// single issues one descent, chosen and aimed by the next three
		// bytes: a kind, a slot among those of positive weight, and the
		// first, last or middle threshold of that slot's cumulative band,
		// where the descent must return exactly that slot. Without floors
		// a stubborn pick descends FindWeighted.
		single := func() {
			sum := totals()
			kind, pick, edge := next()%3, int(next()), next()%3
			if kind == 2 && floors == nil {
				kind = 1
			}
			weight := func(i int, v int64) int64 {
				switch kind {
				case 0:
					return v
				case 1:
					return sum*v - v*v
				}
				return (v - floors[i]) * (sum - v)
			}
			var starts []int64 // band start of each slot of positive weight
			var slots []int
			var cum int64
			for i, v := range model {
				if w := weight(i, v); w > 0 {
					starts, slots = append(starts, cum), append(slots, i)
					cum += w
				}
			}
			if len(slots) == 0 {
				return
			}
			j := pick % len(slots)
			want := slots[j]
			r := starts[j] + []int64{0, weight(want, model[want]) - 1, weight(want, model[want]) / 2}[edge]
			var got int
			switch kind {
			case 0:
				got = d.FindSupport(r)
			case 1:
				got = d.FindWeighted(sum, u128.From64(r))
			default:
				got = d.FindWeightedStubborn(sum, u128.From64(r))
			}
			if got != want {
				t.Fatalf("single descent %d at %d = %d, want %d (model %v, floors %v)", kind, r, got, want, model, floors)
			}
		}

		descend()
		for len(data) > 0 {
			switch next() % 6 {
			case 0: // SetAll from the next n byte pairs, kept on the floors
				xs := make([]int64, n)
				for i := range xs {
					xs[i] = floor(i) + int64(next())*int64(next()%4)
				}
				d.SetAll(xs)
				copy(model, xs)
			case 1: // point Add, clamped to keep the slot on its floor
				i := int(next()) % n
				delta := int64(next()) - 128
				if model[i]+delta < floor(i) {
					delta = floor(i) - model[i]
				}
				d.Add(i, delta)
				model[i] += delta
			case 2: // install floors as fractions of the supports, or clear
				if c := next(); c%4 == 0 {
					floors = nil
					d.SetStubborn(nil)
				} else {
					floors = make([]int64, n)
					for i, v := range model {
						floors[i] = v * int64(next()) / 255
					}
					d.SetStubborn(floors)
				}
			case 3:
				descend()
			case 4: // a totals-only pass: the tree stays as it is
			case 5:
				single()
			}
			totals()
		}
		descend()
	})
}
