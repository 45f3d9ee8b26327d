package dist_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiment"
)

// frameResult is a typical untracked trial result: a fleet trial stopped
// by its interaction budget.
var frameResult = experiment.ShardResult{
	InteractionsLo: 1, Winner: -1, InitialLeader: 17, Outcome: core.OutcomeBudget.String(),
}

// frameWave is a typical wave command of a 2-member fleet at the default
// wave size: one member's stride of the wave's indices.
var frameWave = dist.Msg{
	Type: dist.TypeWave, Lo: 123456, Hi: 123456 + dist.DefaultWave,
	Indices: []int{123456, 123458, 123460, 123462, 123464, 123466, 123468, 123470},
}

// repeatReader yields the same bytes forever, so a msgReader over it reads
// an endless stream of one protocol frame.
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

// resultFrame is frameResult's result frame for trial 123456.
func resultFrame(t testing.TB) []byte {
	var buf bytes.Buffer
	ww := dist.NewWaveWriter(&buf)
	if err := ww.EmitResult(123456, frameResult.AppendJSON(nil)); err != nil {
		t.Fatal(err)
	}
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waveFrame is frameWave's protocol frame.
func waveFrame(t testing.TB) []byte {
	var buf bytes.Buffer
	if _, err := dist.WriteFrame(&buf, nil, &frameWave); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResultFrameAllocFree pins the per-trial codec cost on both ends of
// the pipe: a worker encoding a ShardResult into its reused payload buffer
// and appending the frame to its reused wave buffer allocates nothing, and
// the coordinator's batched reads decode result frames with at most one
// allocation per frame.
func TestResultFrameAllocFree(t *testing.T) {
	var payload []byte
	var err error
	ww := dist.NewWaveWriter(io.Discard)
	emit := func() {
		payload = frameResult.AppendJSON(payload[:0])
		err = ww.EmitResult(123456, payload)
	}
	for i := 0; i < 5000; i++ {
		emit() // grow the buffers
	}
	if avg := testing.AllocsPerRun(1000, emit); avg != 0 {
		t.Errorf("worker result emit allocates %v objects per trial, want 0", avg)
	}
	if err != nil {
		t.Fatal(err)
	}

	// AllocsPerRun calls batch once more than it measures.
	const runs = 100
	dec := dist.NewMsgReader(&repeatReader{line: resultFrame(t)})
	var ms []dist.Msg
	frames := 0
	batch := func() {
		ms, err = dec.Batch()
		frames += len(ms)
	}
	perBatch := testing.AllocsPerRun(runs, batch)
	if err != nil {
		t.Fatal(err)
	}
	if perFrame := perBatch / (float64(frames) / (runs + 1)); perFrame > 1 {
		t.Errorf("batched result decode allocates %v objects per frame (%v per batch), want at most 1", perFrame, perBatch)
	}
	for _, m := range ms {
		if m.Type != dist.TypeResult || m.Trial != 123456 || !bytes.Equal(m.Data, frameResult.AppendJSON(nil)) {
			t.Fatalf("decoded %+v, want trial 123456 carrying %s", m, frameResult.AppendJSON(nil))
		}
	}
}

// BenchmarkResultFrameEncode times a worker's per-trial emit: encode the
// ShardResult and append its frame to the wave share's pending write.
func BenchmarkResultFrameEncode(b *testing.B) {
	var payload []byte
	ww := dist.NewWaveWriter(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload = frameResult.AppendJSON(payload[:0])
		if err := ww.EmitResult(i, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultFrameDecode times the coordinator's batched read of
// result frames off a buffered stream, per frame.
func BenchmarkResultFrameDecode(b *testing.B) {
	dec := dist.NewMsgReader(&repeatReader{line: resultFrame(b)})
	b.ReportAllocs()
	for n := 0; n < b.N; {
		ms, err := dec.Batch()
		if err != nil {
			b.Fatal(err)
		}
		n += len(ms)
	}
}

// BenchmarkResultPath times the coordinator's per-trial result path
// without the stream: check and parse one result frame and decode its
// payload into a ShardResult, as a sharded cell's sink does. An untracked
// payload decodes with 0 allocs/op.
func BenchmarkResultPath(b *testing.B) {
	frame := resultFrame(b)
	var m dist.Msg
	var r experiment.ShardResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := dist.DecodeFrame(frame, &m); err != nil {
			b.Fatal(err)
		}
		if err := r.UnmarshalJSON(m.Data); err != nil {
			b.Fatal(err)
		}
	}
	if !reflect.DeepEqual(r, frameResult) {
		b.Fatalf("decoded %+v, want %+v", r, frameResult)
	}
}

// BenchmarkWaveFrameEncode times the coordinator's encode and write of one
// wave command.
func BenchmarkWaveFrameEncode(b *testing.B) {
	var frame []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if frame, err = dist.WriteFrame(io.Discard, frame, &frameWave); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaveFrameDecode times a worker's read of one wave command off a
// buffered stream.
func BenchmarkWaveFrameDecode(b *testing.B) {
	dec := dist.NewMsgReader(&repeatReader{line: waveFrame(b)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunPipe times dist.Run end to end over in-process pipes: b.N
// trials on 2 members whose trials cost nothing but emitting a constant
// payload, so waves, frames and the event loop are the whole cost. ns/op
// and allocs/op are per trial.
func BenchmarkRunPipe(b *testing.B) {
	payload := frameResult.AppendJSON(nil)
	build := func([]byte, uint64) (dist.TrialRunner, error) {
		return func(indices []int, emit func(int, []byte)) error {
			for _, i := range indices {
				emit(i, payload)
			}
			return nil
		}, nil
	}
	opts := dist.Options{
		Shards: 2, MaxTrials: b.N, Spec: []byte(`{}`),
		Launcher: &dist.PipeLauncher{Build: build},
	}
	b.ReportAllocs()
	start := time.Now()
	res, err := dist.Run(opts, func(int, []byte) error { return nil }, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if res.Trials != b.N {
		b.Fatalf("folded %d trials, want %d", res.Trials, b.N)
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "trials/s")
}
