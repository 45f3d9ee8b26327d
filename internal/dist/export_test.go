package dist

import "io"

// Hooks for the external test package (dist_test), whose codec tests and
// benchmarks import internal/experiment — which imports dist — to drive the
// worker's and the coordinator's frame paths with real trial payloads.

// NewWaveWriter returns the coalescing writer a worker's wave shares go
// through.
func NewWaveWriter(w io.Writer) *waveWriter { return &waveWriter{w: w} }

// EmitResult is a worker's per-trial emit: one result frame appended to
// the pending write, which goes out once flushAfter has passed since the
// last write.
func (ww *waveWriter) EmitResult(trial int, data []byte) error {
	return ww.emit(&Msg{Type: TypeResult, Trial: trial, Data: data})
}

// Flush writes the pending frames.
func (ww *waveWriter) Flush() error { return ww.flush() }

// WriteFrame is writeFrame, the coordinator's per-command encode.
var WriteFrame = writeFrame

// NewMsgReader is newMsgReader, the decoder behind the coordinator's reader
// pump.
var NewMsgReader = newMsgReader

// DecodeFrame is decodeFrame, the coordinator's check and parse of one
// protocol frame.
var DecodeFrame = decodeFrame

// Next is next.
func (d *msgReader) Next() (Msg, error) { return d.next() }

// Batch is batch.
func (d *msgReader) Batch() ([]Msg, error) { return d.batch() }
