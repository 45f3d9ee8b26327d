package dist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// recordWriter records every Write a worker makes, with when it returned.
type recordWriter struct {
	writes [][]byte
	at     []time.Time
}

func (w *recordWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	w.at = append(w.at, time.Now())
	return len(p), nil
}

// serveWave runs Serve on a job, one wave command dealing indices 0 to
// n-1, and a halt, with runner as the trial runner. It returns the
// recorded writes and Serve's error.
func serveWave(t *testing.T, n int, runner TrialRunner) (*recordWriter, error) {
	t.Helper()
	spec := []byte(`{}`)
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	var in []byte
	for _, m := range []Msg{
		{Type: TypeJob, Shards: 1, Hash: HashSpec(spec), Spec: spec},
		{Type: TypeWave, Hi: n, Indices: indices},
		{Type: TypeHalt},
	} {
		var err error
		if in, err = appendMsg(in, &m); err != nil {
			t.Fatal(err)
		}
	}
	w := &recordWriter{}
	err := Serve(bytes.NewReader(in), w, 0, 1, func([]byte, uint64) (TrialRunner, error) { return runner, nil })
	return w, err
}

// decodeWrite decodes the protocol frames of one recorded write.
func decodeWrite(t *testing.T, p []byte) []Msg {
	t.Helper()
	dec := newMsgReader(bytes.NewReader(p))
	var ms []Msg
	for {
		m, err := dec.next()
		if err != nil {
			if err != io.EOF {
				t.Fatalf("decode write %q: %v", p, err)
			}
			return ms
		}
		ms = append(ms, m)
	}
}

// sleepRunner emits {} for each index after sleeping slow for the index
// at slowAt and fast for every other.
func sleepRunner(fast, slow time.Duration, slowAt int) TrialRunner {
	return func(indices []int, emit func(int, []byte)) error {
		for _, i := range indices {
			if i == slowAt {
				time.Sleep(slow)
			} else if fast > 0 {
				time.Sleep(fast)
			}
			emit(i, []byte(`{}`))
		}
		return nil
	}
}

// TestServeCoalescesWaveShare pins one Write per wave share: a wave of fast
// trials goes out as a single Write carrying every result frame in emit
// order and then the wavedone barrier. A scheduler stall of flushAfter
// legitimately splits the write, so the test allows two more attempts.
func TestServeCoalescesWaveShare(t *testing.T) {
	const n = 8
	for attempt := 0; attempt < 3; attempt++ {
		w, err := serveWave(t, n, sleepRunner(0, 0, -1))
		if err != nil {
			t.Fatal(err)
		}
		if len(w.writes) != 2 {
			continue // hello, then the wave share — unless split by a stall
		}
		if hello := decodeWrite(t, w.writes[0]); len(hello) != 1 || hello[0].Type != TypeHello {
			t.Fatalf("first write %q, want the hello alone", w.writes[0])
		}
		ms := decodeWrite(t, w.writes[1])
		if len(ms) != n+1 {
			t.Fatalf("wave share write carries %d lines, want %d results and the wavedone", len(ms), n)
		}
		var echoed []int
		for i, m := range ms[:n] {
			if m.Type != TypeResult || m.Trial != i {
				t.Fatalf("line %d is %+v, want the result of trial %d", i, m, i)
			}
			echoed = append(echoed, i)
		}
		if done := ms[n]; done.Type != TypeWaveDone || done.Hi != n || !reflect.DeepEqual(done.Indices, echoed) {
			t.Fatalf("last line %+v, want the wavedone of [0,%d) echoing %v", done, n, echoed)
		}
		return
	}
	t.Fatal("3 runs of a fast wave share never went out in one write")
}

// TestServeWritesEarlyPastFlushAfter pins the WorkerTimeout contract under
// coalescing: a busy worker speaks at least once per slowest trial plus
// flushAfter. The wave mixes 60 trials of 500µs with one of 30ms, so
// holding the share to its end would leave a gap of about 60ms.
func TestServeWritesEarlyPastFlushAfter(t *testing.T) {
	const (
		n    = 61
		slow = 30 * time.Millisecond
		// slack absorbs oversleeping and scheduling on a loaded machine.
		slack = 15 * time.Millisecond
	)
	w, err := serveWave(t, n, sleepRunner(500*time.Microsecond, slow, n/2))
	if err != nil {
		t.Fatal(err)
	}
	results := 0
	for i, p := range w.writes {
		for _, m := range decodeWrite(t, p) {
			if m.Type == TypeResult {
				results++
			}
		}
		if i == 0 {
			continue
		}
		if gap := w.at[i].Sub(w.at[i-1]); gap > slow+flushAfter+slack {
			t.Errorf("writes %d and %d are %v apart, want at most %v", i-1, i, gap, slow+flushAfter+slack)
		}
	}
	if results != n {
		t.Fatalf("%d result frames on the wire, want %d", results, n)
	}
}

// TestServeFlushesResultsBeforeError pins that a failing trial does not
// strand the results emitted before it: they reach the wire, in order,
// ahead of the error frame, so the coordinator can still fold them.
func TestServeFlushesResultsBeforeError(t *testing.T) {
	boom := errors.New("boom")
	w, err := serveWave(t, 4, func(indices []int, emit func(int, []byte)) error {
		for _, i := range indices[:3] {
			emit(i, []byte(`{}`))
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Serve returned %v, want %v", err, boom)
	}
	var got []string
	for _, p := range w.writes {
		for _, m := range decodeWrite(t, p) {
			switch m.Type {
			case TypeResult:
				got = append(got, fmt.Sprintf("result %d", m.Trial))
			case TypeError:
				if !strings.Contains(m.Err, "boom") {
					t.Fatalf("error frame %q does not carry the trial error", m.Err)
				}
				got = append(got, m.Type.String())
			default:
				got = append(got, m.Type.String())
			}
		}
	}
	want := []string{TypeHello.String(), "result 0", "result 1", "result 2", TypeError.String()}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire carried %v, want %v", got, want)
	}
}
