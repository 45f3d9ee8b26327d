package dist

import "io"

// Hooks for the external test package (dist_test), whose codec tests and
// benchmarks import internal/experiment — which imports dist — to drive the
// result-frame path with real trial payloads.

// WriteResultFrame is a worker's per-trial emit: one result frame built in
// buf and written to w, returning buf for reuse.
func WriteResultFrame(w io.Writer, buf []byte, trial int, data []byte) ([]byte, error) {
	return writeFrame(w, buf, Msg{Type: TypeResult, Trial: trial, Data: data})
}

// NewMsgReader is newMsgReader, the decoder behind the coordinator's reader
// pump.
var NewMsgReader = newMsgReader

// Next is next.
func (d *msgReader) Next() (Msg, error) { return d.next() }
