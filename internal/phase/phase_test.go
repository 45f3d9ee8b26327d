package phase

import (
	"math"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/u128"
)

// fakeView is a hand-rolled View for unit tests.
type fakeView struct {
	n  int64
	u  int64
	xs []int64
	t  int64
}

func (f *fakeView) N() int64                     { return f.n }
func (f *fakeView) K() int                       { return len(f.xs) }
func (f *fakeView) Undecided() int64             { return f.u }
func (f *fakeView) Supports(dst []int64) []int64 { return append(dst, f.xs...) }
func (f *fakeView) Interactions() u128.U128      { return u128.From64(f.t) }

func TestNewTimes(t *testing.T) {
	tm := NewTimes()
	for p := 1; p <= Count; p++ {
		if tm.Reached(p) {
			t.Fatalf("fresh Times reports phase %d reached", p)
		}
		if _, ok := tm.Duration(p); ok {
			t.Fatalf("fresh Times reports a duration for phase %d", p)
		}
	}
	if tm.LeaderAtT2 != -1 {
		t.Fatal("fresh LeaderAtT2 != -1")
	}
	if tm.Reached(0) || tm.Reached(6) {
		t.Fatal("out-of-range phases must not be reached")
	}
}

func TestPhasesDetectedInOrder(t *testing.T) {
	// n=1000, k=2. Walk a synthetic trajectory through all five phases.
	tr := NewTracker()
	v := &fakeView{n: 1000, xs: []int64{400, 400}, u: 200, t: 0}

	// Phase 1 not yet: 2u = 400 < n - xmax = 600.
	tr.Observe(v)
	if tr.Times().Reached(1) {
		t.Fatal("phase 1 detected too early")
	}

	// End phase 1: u = 300 => 600 >= 1000-400, while the gap 400-350=50
	// stays below the phase-2 threshold sqrt(1000 ln 1000) ~ 83.1.
	v.u, v.xs, v.t = 300, []int64{400, 350}, 10
	tr.Observe(v)
	if !tr.Times().Reached(1) || tr.Times().End[0] != u128.From64(10) {
		t.Fatalf("phase 1 not detected: %+v", tr.Times())
	}
	if tr.Times().Reached(2) {
		t.Fatal("phase 2 detected too early")
	}

	// End phase 2: gap 430-300=130 >= 83.1.
	v.xs, v.t = []int64{430, 300}, 20
	tr.Observe(v)
	if !tr.Times().Reached(2) || tr.Times().End[1] != u128.From64(20) {
		t.Fatalf("phase 2 not detected: %+v", tr.Times())
	}
	if tr.Times().LeaderAtT2 != 0 {
		t.Fatalf("LeaderAtT2 = %d, want 0", tr.Times().LeaderAtT2)
	}

	// End phase 3: 500 >= 2*250.
	v.xs, v.t = []int64{500, 250}, 30
	v.u = 250
	tr.Observe(v)
	if !tr.Times().Reached(3) || tr.Times().End[2] != u128.From64(30) {
		t.Fatalf("phase 3 not detected: %+v", tr.Times())
	}

	// End phase 4: 3*700 >= 2*1000.
	v.xs, v.u, v.t = []int64{700, 100}, 200, 40
	tr.Observe(v)
	if !tr.Times().Reached(4) || tr.Times().End[3] != u128.From64(40) {
		t.Fatalf("phase 4 not detected: %+v", tr.Times())
	}

	// End phase 5: consensus.
	v.xs, v.u, v.t = []int64{1000, 0}, 0, 50
	tr.Observe(v)
	if !tr.Times().Reached(5) || tr.Times().End[4] != u128.From64(50) {
		t.Fatalf("phase 5 not detected: %+v", tr.Times())
	}
	if !tr.Done() {
		t.Fatal("tracker not done after all phases")
	}

	// Durations.
	want := []int64{10, 10, 10, 10, 10}
	for p := 1; p <= Count; p++ {
		if got, ok := tr.Times().Duration(p); !ok || got != u128.From64(want[p-1]) {
			t.Fatalf("duration(%d) = %v (ok=%v), want %d", p, got, ok, want[p-1])
		}
	}
}

func TestMultiplePhasesEndAtOnce(t *testing.T) {
	// A configuration that is already consensus satisfies every condition
	// at once.
	tr := NewTracker()
	v := &fakeView{n: 100, xs: []int64{100, 0}, u: 0, t: 7}
	tr.Observe(v)
	for p := 1; p <= Count; p++ {
		if !tr.Times().Reached(p) || tr.Times().End[p-1] != u128.From64(7) {
			t.Fatalf("phase %d not ended at t=7: %+v", p, tr.Times())
		}
	}
}

func TestPhaseOrderEnforced(t *testing.T) {
	// A huge-bias configuration that satisfies phases 2-4 but NOT phase 1
	// (too few undecided agents) must not record phase 2.
	tr := NewTracker()
	v := &fakeView{n: 1000, xs: []int64{700, 10}, u: 290, t: 3}
	// Phase 1 condition: 2u=580 >= n-xmax=300 -> true. Use fewer undecided.
	v.u = 100
	v.xs = []int64{700, 200}
	// 2u=200 >= 1000-700=300? No.
	tr.Observe(v)
	if tr.Times().Reached(1) || tr.Times().Reached(2) {
		t.Fatalf("phases detected despite phase-1 condition failing: %+v", tr.Times())
	}
}

func TestWithAlpha(t *testing.T) {
	n := int64(1000)
	gap := int64(100) // between alpha=1 (83.1) and alpha=2 (166.2) thresholds
	mk := func(alpha float64) *Tracker {
		tr := NewTracker()
		tr.alpha = alpha
		return tr
	}
	// Phase 1 holds: 2u = 600 >= 1000 - 450 = 550. Top-two gap is exactly
	// `gap`, between the alpha=1 and alpha=2 thresholds.
	v := &fakeView{n: n, xs: []int64{350 + gap, 350}, u: 300, t: 5}
	thr1 := math.Sqrt(float64(n) * math.Log(float64(n)))
	if float64(gap) <= thr1 {
		t.Fatalf("test setup: gap %d must exceed alpha=1 threshold %.1f", gap, thr1)
	}
	loose := mk(1)
	loose.Observe(v)
	if !loose.Times().Reached(2) {
		t.Fatal("alpha=1 tracker should end phase 2")
	}
	strict := mk(2)
	strict.Observe(v)
	if strict.Times().Reached(2) {
		t.Fatal("alpha=2 tracker should not end phase 2")
	}
}

func TestCheckIntervalSkipsObservations(t *testing.T) {
	tr := NewTracker(WithCheckInterval(10))
	v := &fakeView{n: 100, xs: []int64{50, 20}, u: 30, t: 1}
	// Condition for phase 1 holds (2*30=60 >= 100-50): first observation
	// is always checked.
	tr.Observe(v)
	if !tr.Times().Reached(1) {
		t.Fatal("first observation must be checked")
	}
	// Phase 2 threshold: sqrt(100 ln 100) ~ 21.5; gap is 30 -> would end
	// phase 2 if checked. Preserve state but advance within the interval:
	tr2 := NewTracker(WithCheckInterval(10))
	small := &fakeView{n: 100, xs: []int64{40, 40}, u: 15, t: 1}
	tr2.Observe(small) // checked, nothing ends (2*15=30 < 60)
	big := &fakeView{n: 100, xs: []int64{52, 20}, u: 28, t: 2}
	for i := 0; i < 5; i++ {
		tr2.Observe(big) // within interval: skipped
	}
	if tr2.Times().Reached(1) {
		t.Fatal("observations within the interval must be skipped")
	}
	for i := 0; i < 10; i++ {
		big.t++
		tr2.Observe(big)
	}
	if !tr2.Times().Reached(1) {
		t.Fatal("interval boundary observation must be checked")
	}
}

func TestTrackerAgainstRealRun(t *testing.T) {
	// Integration: on a real USD run the phase times must be
	// non-decreasing, all phases must complete, and T5 must equal the
	// consensus time.
	c, err := conf.Uniform(2000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(c, rng.New(1234))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker()
	tr.Observe(s)
	res := s.RunObserved(core.NoBudget, func(sim *core.Simulator, _ core.Event) {
		tr.Observe(sim)
	})
	if res.Outcome != core.OutcomeConsensus {
		t.Fatalf("outcome %v", res.Outcome)
	}
	times := tr.Times()
	var prev u128.U128
	for p := 1; p <= Count; p++ {
		if !times.Reached(p) {
			t.Fatalf("phase %d never ended: %+v", p, times)
		}
		if times.End[p-1].Less(prev) {
			t.Fatalf("phase times decreasing: %+v", times)
		}
		prev = times.End[p-1]
	}
	if times.End[4] != res.Interactions {
		t.Fatalf("T5 = %v but consensus at %v", times.End[4], res.Interactions)
	}
	if times.LeaderAtT2 != res.Winner {
		t.Fatalf("leader at T2 = %d but winner = %d (paper: winner fixed after T2)",
			times.LeaderAtT2, res.Winner)
	}
}

func TestObserveAfterDoneIsNoop(t *testing.T) {
	tr := NewTracker()
	v := &fakeView{n: 10, xs: []int64{10, 0}, u: 0, t: 1}
	tr.Observe(v)
	if !tr.Done() {
		t.Fatal("not done after consensus observation")
	}
	before := tr.Times()
	v.t = 99
	tr.Observe(v)
	if tr.Times() != before {
		t.Fatal("Observe after done mutated times")
	}
}

func TestDefaultCheckInterval(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{1, 1},
		{63, 1},
		{64, 2},
		{6400, 101},
		{1 << 20, 256}, // capped
		{1 << 40, 256}, // cap holds for huge n
	}
	for _, tc := range cases {
		if got := DefaultCheckInterval(tc.n); got != tc.want {
			t.Errorf("DefaultCheckInterval(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestCheckIntervalFor(t *testing.T) {
	if got := CheckIntervalFor(1<<20, core.KernelBatched(0)); got != 1 {
		t.Fatalf("batched interval = %d, want 1", got)
	}
	if got, want := CheckIntervalFor(1<<20, core.KernelExact), DefaultCheckInterval(1<<20); got != want {
		t.Fatalf("exact interval = %d, want %d", got, want)
	}
}

func TestTrackerReset(t *testing.T) {
	v := &fakeView{n: 100, u: 60, xs: []int64{30, 10}, t: 0}
	tr := NewTracker(WithCheckInterval(3))
	fresh := NewTracker(WithCheckInterval(3))
	tr.alpha, fresh.alpha = 2, 2

	// Dirty the tracker: walk it to full consensus so every phase ends.
	tr.ObserveNow(v)
	v.xs = []int64{100, 0}
	v.u = 0
	v.t = 500
	tr.ObserveNow(v)
	if !tr.Done() {
		t.Fatalf("setup: tracker not done: %+v", tr.Times())
	}

	tr.Reset()
	if tr.Done() || tr.Times() != NewTimes() {
		t.Fatalf("Reset left state behind: %+v", tr.Times())
	}
	// A Reset tracker must behave exactly like a fresh one with the same
	// options, including interval skipping driven by the observation count:
	// the phase-1 condition holds from the start, so both must stamp End[0]
	// at the first *checked* observation.
	v2 := &fakeView{n: 100, u: 60, xs: []int64{30, 10}}
	for i := 0; i < 10; i++ {
		v2.t = int64(i + 1)
		tr.Observe(v2)
		fresh.Observe(v2)
		if tr.Times() != fresh.Times() {
			t.Fatalf("observation %d: reset %+v != fresh %+v", i, tr.Times(), fresh.Times())
		}
	}
	if !tr.Times().Reached(1) {
		t.Fatal("phase 1 never detected after Reset")
	}
}
