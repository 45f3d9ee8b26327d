package core

import (
	"testing"

	"repro/internal/conf"
	"repro/internal/rng"
)

// categoricalWidthsAgree draws one m-event categorical window at cfg's
// state through the 64-bit sampler and through the 128-bit one, each on a
// fresh simulator seeded with seed, and fails unless both select identical
// per-category counts and leave their sources at the same stream position.
// cfg must hold fewer than narrowN agents.
func categoricalWidthsAgree(t testing.TB, cfg *conf.Config, dyn Dynamics, seed uint64, m int64) {
	t.Helper()
	sims := [2]*Simulator{}
	for i := range sims {
		s, err := New(cfg, rng.New(seed), WithKernel(KernelAuto(0)), WithDynamics(dyn))
		if err != nil {
			t.Fatal(err)
		}
		s.ensureBatchScratch(s.tree.Len())
		sims[i] = s
	}
	narrow, wide := sims[0], sims[1]
	if narrow.n >= narrowN {
		t.Fatalf("n = %d is not below narrowN", narrow.n)
	}
	w := narrow.productiveWeight()
	if w.IsZero() {
		return // absorbing: no window to draw
	}
	k, d := narrow.tree.Len(), narrow.n-narrow.u
	narrow.sampleCategorical64(narrow.tree.View(), narrow.windowFloors(), w.Lo, m, d)
	wide.sampleCategorical128(wide.tree.View(), wide.windowFloors(), w, m, d)
	for j, c := range narrow.batchCounts {
		if c != wide.batchCounts[j] {
			t.Fatalf("%s n=%d k=%d m=%d seed=%d: category %d drew %d (64-bit) vs %d (128-bit)", dyn.Name(), narrow.n, k, m, seed, j, c, wide.batchCounts[j])
		}
	}
	if narrow.src.Uint64() != wide.src.Uint64() {
		t.Fatalf("%s n=%d k=%d m=%d seed=%d: the widths consumed different raw outputs", dyn.Name(), narrow.n, k, m, seed)
	}
}

// FuzzCategoricalWidths checks that the 64-bit and 128-bit categorical
// samplers draw identical windows on arbitrary states below narrowN. The
// inputs give the seed, the opinion count (1 + k%64), the window size
// (1 + m%2048), one support byte per opinion times a multiplier
// (1 + scale%2¹⁶), the undecided count, and stubborn floors as fractions
// floors[j]/255 of each support — classic dynamics when floors is empty.
func FuzzCategoricalWidths(f *testing.F) {
	f.Add(uint64(1), uint8(32), uint16(12), uint32(0), uint32(250), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{})
	f.Add(uint64(2), uint8(4), uint16(200), uint32(9), uint32(7), []byte{9, 200, 3, 40}, []byte{85, 0, 255, 1})
	f.Add(uint64(3), uint8(33), uint16(527), uint32(65535), uint32(1<<31), []byte{255, 128, 64, 32, 16, 8, 4, 2, 1}, []byte{})
	f.Add(uint64(4), uint8(2), uint16(1), uint32(65535), uint32(4_000_000_000), []byte{255, 255}, []byte{200})
	f.Fuzz(func(t *testing.T, seed uint64, k uint8, m uint16, scale, u uint32, supports, floors []byte) {
		kk := 1 + int(k%64)
		mult := 1 + int64(scale%(1<<16))
		support := make([]int64, kk)
		for j := range support {
			if j < len(supports) {
				support[j] = int64(supports[j]) * mult
			}
		}
		cfg, err := conf.FromSupport(support, int64(u))
		if err != nil || cfg.N() >= narrowN {
			t.Skip()
		}
		dyn := Classic
		if len(floors) > 0 {
			dyn = StubbornAgents
			cfg.Stubborn = make([]int64, kk)
			for j, x := range support {
				cfg.Stubborn[j] = x * int64(floors[j%len(floors)]) / 255
			}
		}
		categoricalWidthsAgree(t, cfg, dyn, seed, 1+int64(m%2048))
	})
}
