// Package dist distributes a Monte-Carlo trial budget across worker
// processes and folds the shards' results back into a single in-order
// stream, byte-identical to what the in-process trial engine
// (experiment.Stream / experiment.StreamAdaptive) would have produced.
//
// The design leans entirely on the engine's determinism contract: trial i
// draws its randomness from a stream derived from (seed, i) alone, so any
// process can compute any trial. The coordinator therefore deals every wave
// to the current members as explicit index lists — who computes an index is
// pure scheduling — and needs only to fold the returned payloads in global
// trial-index order. Order-sensitive floating-point aggregation then lands
// on exactly the same bits at every shard count, which is the property the
// shard-determinism CI job pins.
//
// The wire protocol is versioned JSONL over the worker's stdin/stdout: the
// coordinator sends a job header (spec, seed, shard identity, spec hash),
// the worker answers with a hello echoing the verified hash, and then
// explicit trial-index lists flow down and per-trial result payloads flow
// back, each wave closed by a wavedone barrier message. The wave barrier is
// the cross-process analogue of StreamAdaptive's dispatch window: after
// folding a wave the coordinator evaluates the stopping predicate, writes a
// checkpoint (caller aggregate state + next trial index + spec hash), and
// either dispatches the next wave or halts every worker. Interrupted runs
// resume from the checkpoint instead of restarting, and a resumed run's
// final aggregates are bit-identical to an uninterrupted one's.
package dist

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// ProtocolVersion is the version tag every protocol line carries. Workers
// and coordinators reject lines from any other version, so mixed-binary
// fleets — much easier to assemble by accident now that RemoteLauncher
// starts workers from per-host binaries — fail loudly instead of folding
// garbage. Version 4 made explicit index lists the only dispatch form: a
// version 3 coordinator's index-less wave would run nothing on a version 4
// worker and stall the run until the liveness deadline. Version 3 made the
// wavedone barrier echo the indices the worker computed, which the
// coordinator's frame-integrity check relies on to detect result frames
// lost in transit; version 2 switched the trial payloads and job specs to
// the 128-bit interaction clock's hi/lo word pairs (budget_hi/budget_lo,
// interactions_hi/interactions_lo); version 1 carried single int64 clock
// fields, which overflow past n = ⌊√MaxInt64⌋.
const ProtocolVersion = 4

// errProtocolVersion marks a cross-version protocol line: the failure is a
// build mismatch, deterministic across relaunches, so the coordinator
// aborts instead of spending relaunch budget reproducing it.
var errProtocolVersion = errors.New("protocol version mismatch")

// Message types sent by the coordinator.
const (
	// TypeJob opens the session: spec, seed, shard identity, spec hash.
	TypeJob = "job"
	// TypeWave dispatches the explicit global trial indices Indices, all
	// within the wave range [Lo, Hi).
	TypeWave = "wave"
	// TypeHalt asks the worker to exit cleanly.
	TypeHalt = "halt"
)

// Message types sent by the worker.
const (
	// TypeHello acknowledges the job header after verifying the spec hash.
	TypeHello = "hello"
	// TypeResult carries one trial's result payload.
	TypeResult = "result"
	// TypeWaveDone marks the wave barrier: every dispatched index has been
	// emitted.
	TypeWaveDone = "wavedone"
	// TypeError aborts the session with a worker-side error.
	TypeError = "error"
)

// Msg is one JSONL protocol line. Fields are populated according to Type;
// unused fields are omitted from the wire form.
type Msg struct {
	// V is the protocol version, always ProtocolVersion.
	V int `json:"v"`
	// Type is one of the Type* constants.
	Type string `json:"type"`
	// Shard and Shards identify the worker in job and hello messages.
	Shard int `json:"shard,omitempty"`
	// Shards is the total shard count.
	Shards int `json:"shards,omitempty"`
	// Seed is the trial-stream family seed (job messages).
	Seed uint64 `json:"seed,omitempty"`
	// Hash is the spec hash (job and hello messages).
	Hash string `json:"hash,omitempty"`
	// Spec is the opaque job specification (job messages).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Lo and Hi bound a wave's global index range (wave and wavedone).
	Lo int `json:"lo,omitempty"`
	// Hi is the wave range's exclusive upper bound.
	Hi int `json:"hi,omitempty"`
	// Indices, on a wave message, lists exactly the global indices the
	// worker runs. The coordinator deals every wave this way — first-time
	// dispatch, requeues to a relaunched incarnation, redistribution to
	// survivors alike — so membership changes never move work implicitly
	// and no trial's randomness stream changes (streams depend on the
	// global index alone). On a wavedone message Indices echoes the indices
	// the worker actually computed and emitted, the coordinator's
	// frame-integrity evidence: an echoed index the coordinator never
	// received a result for was lost in transit.
	Indices []int `json:"indices,omitempty"`
	// Trial is the global trial index of a result.
	Trial int `json:"trial"`
	// Data is the trial's result payload (result messages).
	Data json.RawMessage `json:"data,omitempty"`
	// Err describes a worker-side failure (error messages).
	Err string `json:"err,omitempty"`
}

// writeMsg emits one protocol line. The marshaled message and its newline
// go out in a single Write call, so concurrent pipes never interleave
// partial lines.
func writeMsg(w io.Writer, m Msg) error {
	m.V = ProtocolVersion
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: marshal %s message: %w", m.Type, err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("dist: write %s message: %w", m.Type, err)
	}
	return nil
}

// msgReader decodes protocol lines from a stream, with no fixed line-length
// limit (result payloads can be large).
type msgReader struct {
	r *bufio.Reader
}

// newMsgReader wraps a stream in a protocol decoder.
func newMsgReader(r io.Reader) *msgReader {
	return &msgReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// next reads and validates one protocol line. It returns io.EOF untouched
// at a clean end of stream.
func (d *msgReader) next() (Msg, error) {
	line, err := d.r.ReadBytes('\n')
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return Msg{}, io.EOF
		}
		return Msg{}, fmt.Errorf("dist: read protocol line: %w", err)
	}
	var m Msg
	if err := json.Unmarshal(line, &m); err != nil {
		return Msg{}, fmt.Errorf("dist: bad protocol line %.80q: %w", line, err)
	}
	if m.V != ProtocolVersion {
		return Msg{}, fmt.Errorf("dist: protocol version %d, want %d (%w; version 1 predates the 128-bit interaction clock, version 2 the wavedone integrity echo, version 3 explicit-only dealing — rebuild so coordinator and every worker host match)",
			m.V, ProtocolVersion, errProtocolVersion)
	}
	switch m.Type {
	case TypeJob, TypeWave, TypeHalt, TypeHello, TypeResult, TypeWaveDone, TypeError:
	default:
		// Reject unknown frames at the decoder: over a real transport a
		// right-version-wrong-type frame means stream corruption, not a
		// feature gap, and both endpoints' message loops would reject it
		// anyway.
		return Msg{}, fmt.Errorf("dist: unknown protocol message type %q", m.Type)
	}
	return m, nil
}

// HashSpec returns the hex SHA-256 of a job spec's wire bytes. Workers
// verify it against the job header before running anything, and checkpoints
// store it so a resume against a different configuration is rejected
// instead of silently folding incompatible trials.
func HashSpec(spec []byte) string {
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:])
}

// ShardArg formats a shard identity as the "i/of" form the cmds' hidden
// -shard-worker flag carries.
func ShardArg(shard, shards int) string {
	return fmt.Sprintf("%d/%d", shard, shards)
}

// ParseShardArg parses the "i/of" form produced by ShardArg, validating
// 0 <= i < of.
func ParseShardArg(s string) (shard, shards int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &shard, &shards); err != nil {
		return 0, 0, fmt.Errorf("dist: bad shard argument %q (want i/of): %w", s, err)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("dist: bad shard argument %q: want 0 <= i < of", s)
	}
	return shard, shards, nil
}
