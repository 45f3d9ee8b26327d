package trace

import (
	"repro/internal/core"
	"repro/internal/u128"
)

// BoundedRecorder records a trajectory in bounded memory: it keeps at most
// MaxPoints points and, when full, halves the stored points and doubles its
// clock stride. Unlike Recorder it needs no a-priori knowledge of the run
// length — exactly the situation of a consensus run, whose final clock is
// random — while guaranteeing both the memory bound and a final resolution
// within 2× of the best achievable for that bound.
type BoundedRecorder struct {
	// Series receives the recorded points.
	Series *Series
	max    int
	every  u128.U128 // current minimum clock distance between points
	last   u128.U128
	primed bool
}

// minBoundedPoints keeps compaction meaningful; tighter caps are clamped.
const minBoundedPoints = 8

// NewBoundedRecorder returns a recorder writing to a fresh series with the
// given name, keeping at most maxPoints points (clamped to at least 8).
func NewBoundedRecorder(name string, maxPoints int) *BoundedRecorder {
	if maxPoints < minBoundedPoints {
		maxPoints = minBoundedPoints
	}
	return &BoundedRecorder{Series: &Series{Name: name}, max: maxPoints, every: u128.U128{Lo: 1}}
}

// Observe offers a point at interaction clock t. It is recorded if it is
// the first point or at least the current stride after the previous one;
// when the buffer is full, every other stored point is dropped and the
// stride doubles.
func (r *BoundedRecorder) Observe(t u128.U128, y float64) {
	if r.primed && t.Sub(r.last).Less(r.every) {
		return
	}
	if r.Series.Len() >= r.max {
		r.compact()
		// The survivor spacing is now >= the doubled stride, but the last
		// stored point may still be too close to t; re-check.
		if t.Sub(r.last).Less(r.every) {
			return
		}
	}
	r.Series.Add(t.Float64(), y)
	r.last = t
	r.primed = true
}

// Final forces the last point of a run to be recorded (it may exceed the
// cap by one point).
func (r *BoundedRecorder) Final(t u128.U128, y float64) {
	if r.primed && r.last == t {
		return
	}
	r.Series.Add(t.Float64(), y)
	r.last = t
	r.primed = true
}

// Reset clears the recorded points and rewinds the stride, keeping the
// allocated capacity, so trial engines can reuse one recorder per worker.
func (r *BoundedRecorder) Reset() {
	r.Series.X = r.Series.X[:0]
	r.Series.Y = r.Series.Y[:0]
	r.every = u128.U128{Lo: 1}
	r.last = u128.U128{}
	r.primed = false
}

// compact drops every other stored point and doubles the stride. Stored
// points are at least `every` apart, so survivors are at least 2·every
// apart — consistent with the doubled stride.
func (r *BoundedRecorder) compact() {
	s := r.Series
	keep := 0
	for i := 0; i < len(s.X); i += 2 {
		s.X[keep] = s.X[i]
		s.Y[keep] = s.Y[i]
		keep++
	}
	s.X = s.X[:keep]
	s.Y = s.Y[:keep]
	r.every = r.every.Add(r.every)
	if keep > 0 {
		// X stores the float64-rounded clock; the stride check only needs
		// spacing, so the rounded value is a faithful enough last-clock.
		r.last = u128.FromFloat64(s.X[keep-1])
	}
}

// Probe extracts one plotted quantity from the live simulator.
type Probe func(s *core.Simulator) float64

// Sampler records downsampled trajectories of simulator quantities during a
// run. It implements core.Watcher, so it plugs directly into
// Simulator.RunWatched, alone or inside an Observer that also feeds other
// watchers: each
// applied event — a single interaction under the exact kernel, a whole
// window of them under a batched kernel — offers one observation per probe.
// Under the batched kernel this is the window-granularity recording path
// that makes n >= 10⁸ trajectory runs affordable: the number of
// observations scales with windows, not interactions, and the bounded
// recorders cap memory regardless of run length.
type Sampler struct {
	probes []Probe
	recs   []*BoundedRecorder
}

// NewSampler returns an empty sampler; add quantities with Track.
func NewSampler() *Sampler { return &Sampler{} }

// Track adds a recorded quantity with the given series name and point
// budget, returning the sampler for chaining.
func (sa *Sampler) Track(name string, maxPoints int, probe Probe) *Sampler {
	sa.probes = append(sa.probes, probe)
	sa.recs = append(sa.recs, NewBoundedRecorder(name, maxPoints))
	return sa
}

// Watch implements core.Watcher; the event is ignored — probes inspect the
// simulator state after the event was applied.
func (sa *Sampler) Watch(s *core.Simulator, _ core.Event) {
	t := s.Interactions()
	for i, probe := range sa.probes {
		sa.recs[i].Observe(t, probe(s))
	}
}

// Final records the terminal state of a run, which stride skipping could
// otherwise miss.
func (sa *Sampler) Final(s *core.Simulator) {
	t := s.Interactions()
	for i, probe := range sa.probes {
		sa.recs[i].Final(t, probe(s))
	}
}

// Reset clears all recorded trajectories, keeping the probes and allocated
// capacity, for reuse across trials.
func (sa *Sampler) Reset() {
	for _, r := range sa.recs {
		r.Reset()
	}
}

// Series returns the recorded trajectories, one per tracked quantity.
func (sa *Sampler) Series() []*Series {
	out := make([]*Series, len(sa.recs))
	for i, r := range sa.recs {
		out[i] = r.Series
	}
	return out
}
