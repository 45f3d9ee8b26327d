package pop

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestNewWeightedSchedulerValidation(t *testing.T) {
	src := rng.New(1)
	if _, err := NewWeightedScheduler(nil, src); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewWeightedScheduler([]int64{1, 2}, nil); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := NewWeightedScheduler([]int64{1, 0}, src); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := NewWeightedScheduler([]int64{1, -3}, src); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestWeightedSchedulerLaw(t *testing.T) {
	weights := []int64{1, 2, 3, 4}
	s, err := NewWeightedScheduler(weights, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 100000
	counts := make([]int64, len(weights))
	for i := 0; i < trials; i++ {
		a, b := s.Pair(len(weights))
		counts[a]++
		counts[b]++
	}
	total := int64(0)
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := float64(2*trials) * float64(w) / float64(total)
		got := float64(counts[i])
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Fatalf("agent %d drawn %v times, want ~%v", i, got, want)
		}
	}
}

func TestWeightedSchedulerUniformMatchesUniform(t *testing.T) {
	// With equal weights, the pair law is the uniform law: every ordered
	// pair equally likely, self-interactions included.
	weights := []int64{7, 7, 7}
	s, err := NewWeightedScheduler(weights, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 90000
	counts := make([][]int64, 3)
	for i := range counts {
		counts[i] = make([]int64, 3)
	}
	for i := 0; i < trials; i++ {
		a, b := s.Pair(3)
		counts[a][b]++
	}
	want := float64(trials) / 9
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(float64(counts[i][j])-want) > 6*math.Sqrt(want) {
				t.Fatalf("pair (%d,%d): %d, want ~%.0f", i, j, counts[i][j], want)
			}
		}
	}
}

func TestWeightedSchedulerWrongNPanics(t *testing.T) {
	s, err := NewWeightedScheduler([]int64{1, 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched n did not panic")
		}
	}()
	s.Pair(3)
}

func TestZipfWeights(t *testing.T) {
	w, err := ZipfWeights(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 100 {
		t.Fatalf("got %d weights", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatalf("weights not non-increasing at %d: %v > %v", i, w[i], w[i-1])
		}
		if w[i] < 1 {
			t.Fatalf("weight %d below 1", i)
		}
	}
	if w[0] != 100 {
		t.Fatalf("head weight = %d, want n = 100", w[0])
	}
	// s = 0 -> uniform.
	u, err := ZipfWeights(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range u {
		if v != 1 {
			t.Fatalf("uniform weight %d = %d", i, v)
		}
	}
	if _, err := ZipfWeights(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ZipfWeights(10, -1); err == nil {
		t.Fatal("negative exponent accepted")
	}
}

func TestUSDConvergesUnderWeightedScheduler(t *testing.T) {
	// The USD should still reach consensus under heterogeneous activation
	// rates; with a bias, the plurality should still usually win.
	c := mustConfig(t, []int64{300, 100, 100}, 0)
	weights, err := ZipfWeights(500, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		sched, err := NewWeightedScheduler(weights, rng.New(rng.Derive(77, uint64(i))))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(c, USD{Opinions: 3}, sched)
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run(50_000_000)
		if !res.Consensus {
			t.Fatalf("trial %d did not converge", i)
		}
		if res.Winner == 0 {
			wins++
		}
	}
	if wins < trials/2 {
		t.Fatalf("plurality won only %d/%d under weighted scheduling", wins, trials)
	}
}
