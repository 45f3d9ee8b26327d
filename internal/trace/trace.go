// Package trace records trajectories of simulation quantities and renders
// them as ASCII plots — the repository's "figure" output format.
package trace

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/u128"
)

// Series is a named sequence of (x, y) points.
type Series struct {
	// Name labels the series in plots and CSV headers.
	Name string
	// X and Y are the coordinates; they must have equal length.
	X, Y []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Recorder samples a trajectory at a fixed interaction-clock interval: the
// caller invokes Observe after every event, and the recorder keeps one
// point per Every interactions (plus the first and the ability to flush the
// last).
type Recorder struct {
	// Every is the minimum clock distance between recorded points.
	Every u128.U128
	// Series receives the recorded points.
	Series *Series
	last   u128.U128
	primed bool
}

// NewRecorder returns a recorder writing to a fresh series with the given
// name, keeping one point per every interactions (every < 1 records all).
func NewRecorder(name string, every int64) *Recorder {
	if every < 1 {
		every = 1
	}
	return &Recorder{Every: u128.From64(every), Series: &Series{Name: name}}
}

// Observe offers a point at interaction clock t; it is recorded if it is
// the first point or at least Every interactions after the previous one.
// The clock is monotone, so t − last never saturates below zero.
func (r *Recorder) Observe(t u128.U128, y float64) {
	if r.primed && t.Sub(r.last).Less(r.Every) {
		return
	}
	r.Series.Add(t.Float64(), y)
	r.last = t
	r.primed = true
}

// Final forces the last point of a run to be recorded.
func (r *Recorder) Final(t u128.U128, y float64) {
	if r.primed && r.last == t {
		return
	}
	r.Series.Add(t.Float64(), y)
	r.last = t
	r.primed = true
}

// plot symbols assigned to series in order.
var plotSymbols = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// RenderASCII renders the series as a width×height ASCII scatter plot with
// a shared coordinate frame, axis labels, and a legend.
func RenderASCII(width, height int, series ...*Series) (string, error) {
	if width < 16 || height < 4 {
		return "", errors.New("trace: plot must be at least 16x4")
	}
	if len(series) == 0 {
		return "", errors.New("trace: no series")
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("trace: series %q has mismatched lengths", s.Name)
		}
		for i := range s.X {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
			points++
		}
	}
	if points == 0 {
		return "", errors.New("trace: no points")
	}
	if minX == maxX {
		maxX = minX + 1
	}
	if minY == maxY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		sym := plotSymbols[si%len(plotSymbols)]
		for i := range s.X {
			col := int(float64(width-1) * (s.X[i] - minX) / (maxX - minX))
			row := height - 1 - int(float64(height-1)*(s.Y[i]-minY)/(maxY-minY))
			grid[row][col] = sym
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%12.4g ┤", maxY)
	b.Write(grid[0])
	b.WriteByte('\n')
	for i := 1; i < height-1; i++ {
		b.WriteString(strings.Repeat(" ", 13))
		b.WriteByte('|')
		b.Write(grid[i])
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%12.4g ┤", minY)
	b.Write(grid[height-1])
	b.WriteByte('\n')
	b.WriteString(strings.Repeat(" ", 14))
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%14s%-12.4g%s%12.4g\n", "", minX,
		strings.Repeat(" ", maxInt(0, width-24)), maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "%14s%c = %s\n", "", plotSymbols[si%len(plotSymbols)], s.Name)
	}
	return b.String(), nil
}

// Downsample returns a copy of the series with at most maxPoints points,
// keeping every ceil(len/maxPoints)-th point plus the final one.
func Downsample(s *Series, maxPoints int) *Series {
	if maxPoints <= 0 || s.Len() <= maxPoints {
		return &Series{Name: s.Name, X: append([]float64(nil), s.X...), Y: append([]float64(nil), s.Y...)}
	}
	stride := (s.Len() + maxPoints - 1) / maxPoints
	out := &Series{Name: s.Name}
	for i := 0; i < s.Len(); i += stride {
		out.Add(s.X[i], s.Y[i])
	}
	if last := s.Len() - 1; last%stride != 0 {
		out.Add(s.X[last], s.Y[last])
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
