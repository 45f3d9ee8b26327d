package dist_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/dist"
	"repro/internal/experiment"
)

// frameResult is a typical untracked trial result: a fleet trial stopped
// by its interaction budget.
var frameResult = experiment.ShardResult{
	InteractionsLo: 1, Winner: -1, InitialLeader: 17, Outcome: "budget",
}

// repeatReader yields the same bytes forever, so a msgReader over it reads
// an endless stream of one protocol line.
type repeatReader struct {
	line []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}

// resultLine is frameResult's result frame for trial 123456.
func resultLine(t testing.TB) []byte {
	var buf bytes.Buffer
	if _, err := dist.WriteResultFrame(&buf, nil, 123456, frameResult.AppendJSON(nil)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResultFrameAllocFree pins the per-trial codec cost on both ends of
// the pipe: a worker encoding a ShardResult into its reused payload buffer
// and writing the frame from its reused frame buffer allocates nothing,
// and the coordinator decodes a result line with at most the one
// allocation ReadBytes makes for the line itself.
func TestResultFrameAllocFree(t *testing.T) {
	var payload, frame []byte
	var err error
	emit := func() {
		payload = frameResult.AppendJSON(payload[:0])
		frame, err = dist.WriteResultFrame(io.Discard, frame, 123456, payload)
	}
	emit() // grow the buffers once
	if avg := testing.AllocsPerRun(1000, emit); avg != 0 {
		t.Errorf("worker result emit allocates %v objects per trial, want 0", avg)
	}
	if err != nil {
		t.Fatal(err)
	}

	dec := dist.NewMsgReader(&repeatReader{line: resultLine(t)})
	var m dist.Msg
	next := func() { m, err = dec.Next() }
	next()
	if avg := testing.AllocsPerRun(1000, next); avg > 1 {
		t.Errorf("result line decode allocates %v objects, want at most 1", avg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != dist.TypeResult || m.Trial != 123456 || !bytes.Equal(m.Data, frameResult.AppendJSON(nil)) {
		t.Fatalf("decoded %+v, want trial 123456 carrying %s", m, frameResult.AppendJSON(nil))
	}
}

// BenchmarkResultFrameEncode times a worker's per-trial emit: encode the
// ShardResult, frame it and write the line.
func BenchmarkResultFrameEncode(b *testing.B) {
	var payload, frame []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload = frameResult.AppendJSON(payload[:0])
		var err error
		if frame, err = dist.WriteResultFrame(io.Discard, frame, i, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultFrameDecode times the coordinator's read of one result
// line off a buffered stream.
func BenchmarkResultFrameDecode(b *testing.B) {
	dec := dist.NewMsgReader(&repeatReader{line: resultLine(b)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
