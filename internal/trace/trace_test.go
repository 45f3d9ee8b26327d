package trace

import (
	"strings"
	"testing"

	"repro/internal/u128"
)

func TestSeriesAdd(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.Add(3, 4)
	if s.Len() != 2 || s.X[1] != 3 || s.Y[1] != 4 {
		t.Fatalf("series = %+v", s)
	}
}

func TestRecorderInterval(t *testing.T) {
	r := NewRecorder("u", 10)
	r.Observe(u128.From64(0), 1)  // first: recorded
	r.Observe(u128.From64(5), 2)  // too close: dropped
	r.Observe(u128.From64(10), 3) // recorded
	r.Observe(u128.From64(19), 4) // dropped
	r.Observe(u128.From64(25), 5) // recorded
	if r.Series.Len() != 3 {
		t.Fatalf("recorded %d points, want 3: %+v", r.Series.Len(), r.Series)
	}
	if r.Series.X[2] != 25 || r.Series.Y[2] != 5 {
		t.Fatalf("last point = (%v, %v)", r.Series.X[2], r.Series.Y[2])
	}
}

func TestRecorderFinal(t *testing.T) {
	r := NewRecorder("u", 100)
	r.Observe(u128.From64(0), 1)
	r.Observe(u128.From64(50), 2) // dropped
	r.Final(u128.From64(50), 2)   // forced
	if r.Series.Len() != 2 {
		t.Fatalf("recorded %d points, want 2", r.Series.Len())
	}
	// Final at the already-recorded clock must not duplicate.
	r.Final(u128.From64(50), 2)
	if r.Series.Len() != 2 {
		t.Fatal("Final duplicated a point")
	}
}

func TestRecorderEveryClamped(t *testing.T) {
	r := NewRecorder("u", -5)
	if r.Every != u128.From64(1) {
		t.Fatalf("Every = %v, want 1", r.Every)
	}
	r.Observe(u128.From64(1), 1)
	r.Observe(u128.From64(2), 2)
	if r.Series.Len() != 2 {
		t.Fatal("every=1 must record all points")
	}
}

func TestRenderASCII(t *testing.T) {
	s := &Series{Name: "line"}
	for i := 0; i < 20; i++ {
		s.Add(float64(i), float64(i*i))
	}
	out, err := RenderASCII(40, 10, s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("plot has no points:\n%s", out)
	}
	if !strings.Contains(out, "line") {
		t.Fatalf("plot missing legend:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 12 {
		t.Fatalf("plot has %d lines, want >= 12", len(lines))
	}
}

func TestRenderASCIIMultipleSeries(t *testing.T) {
	a := &Series{Name: "a", X: []float64{0, 1}, Y: []float64{0, 1}}
	b := &Series{Name: "b", X: []float64{0, 1}, Y: []float64{1, 0}}
	out, err := RenderASCII(30, 8, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("expected two symbols:\n%s", out)
	}
}

func TestRenderASCIIErrors(t *testing.T) {
	s := &Series{Name: "s", X: []float64{1}, Y: []float64{1}}
	if _, err := RenderASCII(4, 2, s); err == nil {
		t.Fatal("tiny plot accepted")
	}
	if _, err := RenderASCII(30, 8); err == nil {
		t.Fatal("no series accepted")
	}
	empty := &Series{Name: "e"}
	if _, err := RenderASCII(30, 8, empty); err == nil {
		t.Fatal("empty series accepted")
	}
	bad := &Series{Name: "bad", X: []float64{1}, Y: nil}
	if _, err := RenderASCII(30, 8, bad); err == nil {
		t.Fatal("mismatched series accepted")
	}
}

func TestRenderASCIIConstantSeries(t *testing.T) {
	// Degenerate ranges must not divide by zero.
	s := &Series{Name: "const", X: []float64{5, 5}, Y: []float64{3, 3}}
	if _, err := RenderASCII(20, 5, s); err != nil {
		t.Fatal(err)
	}
}

func TestDownsample(t *testing.T) {
	s := &Series{Name: "big"}
	for i := 0; i < 1000; i++ {
		s.Add(float64(i), float64(2*i))
	}
	d := Downsample(s, 100)
	if d.Len() > 101 {
		t.Fatalf("downsampled to %d points, want <= 101", d.Len())
	}
	if d.X[0] != 0 {
		t.Fatal("first point lost")
	}
	if d.X[d.Len()-1] != 999 {
		t.Fatal("last point lost")
	}
	// Small series passes through as a copy.
	small := &Series{Name: "s", X: []float64{1}, Y: []float64{2}}
	cp := Downsample(small, 10)
	cp.X[0] = 99
	if small.X[0] != 1 {
		t.Fatal("Downsample aliases input")
	}
}
