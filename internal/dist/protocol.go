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
// back, each wave closed by a wavedone barrier message. The lines sent per
// trial and per wave are encoded and parsed by hand rather than by
// reflection, into the same bytes encoding/json writes: result frames
// carrying only a trial number and payload, and wave and wavedone frames
// carrying only lo, hi and indices. A result payload is checked on both
// ends by validJSON, a one-pass scanner accepting exactly what json.Valid
// accepts. Every other message (job, hello, halt,
// error) and any other spelling goes through encoding/json. A worker writes
// a wave share's frames in one write, and the coordinator hands every line
// already buffered to its event loop in one channel send. The wave barrier is
// the cross-process analogue of StreamAdaptive's dispatch window: after
// folding a wave the coordinator evaluates the stopping predicate, writes a
// checkpoint (caller aggregate state + next trial index + spec hash), and
// either dispatches the next wave or halts every worker. Interrupted runs
// resume from the checkpoint instead of restarting, and a resumed run's
// final aggregates are bit-identical to an uninterrupted one's.
package dist

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/jsonint"
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

// msgHead is the opening of every message up to its type name.
var msgHead = `{"v":` + strconv.Itoa(ProtocolVersion) + `,"type":"`

// resultHead is the opening of a result frame up to its trial number:
// the bytes json.Marshal writes for a Msg whose only non-zero fields are
// V, Type, Trial and Data.
var resultHead = msgHead + TypeResult + `","trial":`

// resultDataKey separates a result frame's trial number from its payload.
const resultDataKey = `,"data":`

// resultTail closes a result frame and its line.
const resultTail = "}\n"

// rangeTail closes a wave or wavedone frame and its line: json.Marshal
// writes the zero trial number because Trial has no omitempty.
const rangeTail = `,"trial":0}` + "\n"

// writeMsg emits one protocol line. The marshaled message and its newline
// go out in a single Write call, so concurrent pipes never interleave
// partial lines.
func writeMsg(w io.Writer, m Msg) error {
	_, err := writeFrame(w, nil, m)
	return err
}

// writeFrame is writeMsg building the line in buf, reused across calls: it
// returns the grown buffer for the next frame.
func writeFrame(w io.Writer, buf []byte, m Msg) ([]byte, error) {
	buf, err := appendMsg(buf[:0], m)
	if err != nil {
		return buf, err
	}
	if _, err := w.Write(buf); err != nil {
		return buf, fmt.Errorf("dist: write %s message: %w", m.Type, err)
	}
	return buf, nil
}

// appendMsg appends m's protocol line, newline included, to dst. The
// frames sent per trial and per wave — a result carrying only its trial
// number and payload, a wave or wavedone carrying only its range and
// indices — are assembled by hand; every other message goes through
// encoding/json. Both give the same bytes: a result takes the hand path
// only when json.Marshal would copy its payload verbatim.
func appendMsg(dst []byte, m Msg) ([]byte, error) {
	m.V = ProtocolVersion
	bare := m.Shard == 0 && m.Shards == 0 && m.Seed == 0 && m.Hash == "" && len(m.Spec) == 0 && m.Err == ""
	switch {
	case bare && m.Type == TypeResult && m.Lo == 0 && m.Hi == 0 && len(m.Indices) == 0 && verbatimJSON(m.Data):
		dst = append(dst, resultHead...)
		dst = strconv.AppendInt(dst, int64(m.Trial), 10)
		dst = append(dst, resultDataKey...)
		dst = append(dst, m.Data...)
		return append(dst, resultTail...), nil
	case bare && (m.Type == TypeWave || m.Type == TypeWaveDone) && m.Trial == 0 && len(m.Data) == 0:
		dst = append(append(append(dst, msgHead...), m.Type...), '"')
		if m.Lo != 0 {
			dst = strconv.AppendInt(append(dst, `,"lo":`...), int64(m.Lo), 10)
		}
		if m.Hi != 0 {
			dst = strconv.AppendInt(append(dst, `,"hi":`...), int64(m.Hi), 10)
		}
		if len(m.Indices) > 0 {
			dst = append(dst, `,"indices":`...)
			sep := byte('[')
			for _, x := range m.Indices {
				dst = strconv.AppendInt(append(dst, sep), int64(x), 10)
				sep = ','
			}
			dst = append(dst, ']')
		}
		return append(dst, rangeTail...), nil
	}
	b, err := json.Marshal(m)
	if err != nil {
		return dst, fmt.Errorf("dist: marshal %s message: %w", m.Type, err)
	}
	dst = append(dst, b...)
	return append(dst, '\n'), nil
}

// verbatimJSON reports whether json.Marshal copies a json.RawMessage
// unchanged: a valid JSON value with no whitespace for it to compact away
// and none of the characters (<, >, &, U+2028, U+2029) its HTML-safe
// encoder rewrites.
func verbatimJSON(data []byte) bool {
	for i, c := range data {
		if rewritten[c] && (c != 0xE2 || i+2 < len(data) && data[i+1] == 0x80 && data[i+2]&^1 == 0xA8) {
			return false
		}
	}
	return validJSON(data)
}

// rewritten marks the bytes that can make json.Marshal rewrite a raw
// payload: whitespace, <, > and &, and 0xE2, which opens U+2028 and
// U+2029 (E2 80 A8 and E2 80 A9).
var rewritten = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, '<': true, '>': true, '&': true, 0xE2: true}

// msgReader decodes protocol lines from a stream, with no fixed line-length
// limit (result payloads can be large).
type msgReader struct {
	r *bufio.Reader
	// queue and err hold the rest of the last batch for next.
	queue []Msg
	err   error
}

// msgReaderSize is a decoder's buffer size. At the default wave a
// connection has at most pipelineDepth·DefaultWave result lines of ~100
// bytes in flight (~3 KB, half that per shard of two), so one read takes
// in everything a batch could decode; a longer line, such as a large job
// spec, is gathered whole by batch's long path. Every worker launch gets
// a fresh decoder, so a larger buffer would only add to the coordinator's
// peak RSS.
const msgReaderSize = 4 << 10

// newMsgReader wraps a stream in a protocol decoder.
func newMsgReader(r io.Reader) *msgReader {
	return &msgReader{r: bufio.NewReaderSize(r, msgReaderSize)}
}

// next reads and validates one protocol line, by way of batch. It returns
// io.EOF untouched at a clean end of stream.
func (d *msgReader) next() (Msg, error) {
	for len(d.queue) == 0 {
		if d.err != nil {
			return Msg{}, d.err
		}
		d.queue, d.err = d.batch()
	}
	m := d.queue[0]
	d.queue = d.queue[1:]
	return m, nil
}

// batch reads the next protocol line, blocking until it is complete, and
// then every further line already complete in the buffer, without
// blocking. It copies the lines out of the buffer in one allocation, which
// the decoded payloads alias. The lines decoded before a failing one come
// back with its error, and the reader is spent after any error; io.EOF
// comes back untouched at a clean end of stream.
func (d *msgReader) batch() ([]Msg, error) {
	line, err := d.r.ReadSlice('\n')
	var long []byte // a line longer than the buffer, gathered in pieces
	for err == bufio.ErrBufferFull {
		long = append(long, line...)
		line, err = d.r.ReadSlice('\n')
	}
	if err != nil {
		if err == io.EOF && len(long)+len(line) == 0 {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("dist: read protocol line: %w", err)
	}
	// Peeking at and discarding no more than is buffered never reads, so
	// neither fails, and line stays valid until the copy.
	rest, _ := d.r.Peek(d.r.Buffered())
	rest = rest[:bytes.LastIndexByte(rest, '\n')+1]
	lines := make([]byte, 0, len(long)+len(line)+len(rest))
	lines = append(append(append(lines, long...), line...), rest...)
	d.r.Discard(len(rest))
	ms := make([]Msg, 0, bytes.Count(lines, []byte{'\n'}))
	for len(lines) > 0 {
		i := bytes.IndexByte(lines, '\n') + 1
		m, err := decodeLine(lines[:i:i])
		if err != nil {
			return ms, err
		}
		ms = append(ms, m)
		lines = lines[i:]
	}
	return ms, nil
}

// decodeLine decodes and validates one protocol line, newline included.
// The hand-coded frames are parsed in one pass; every other line goes
// through encoding/json.
func decodeLine(line []byte) (Msg, error) {
	if m, ok := parseResultFrame(line); ok {
		return m, nil
	}
	if m, ok := parseRangeFrame(line); ok {
		return m, nil
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

// parseResultFrame decodes, in one pass, a line in the canonical form
// appendMsg writes for a result: {"v":V,"type":"result","trial":N,"data":P}
// and a newline, with V = ProtocolVersion, N an int in json.Marshal's
// spelling (see jsonint), and P a valid JSON value with no whitespace
// around it. Data aliases line. Any other line reports false and goes to
// encoding/json, which decodes a canonical line to the same Msg, so the
// fast path changes neither the accepted language nor the decoded
// messages.
func parseResultFrame(line []byte) (Msg, bool) {
	rest, ok := cutString(line, resultHead)
	if !ok {
		return Msg{}, false
	}
	trial, rest, ok := jsonint.CutInt(rest)
	if !ok {
		return Msg{}, false
	}
	if rest, ok = cutString(rest, resultDataKey); !ok {
		return Msg{}, false
	}
	data, ok := bytes.CutSuffix(rest, []byte(resultTail))
	if !ok || len(data) == 0 || isSpace(data[0]) || isSpace(data[len(data)-1]) || !validJSON(data) {
		return Msg{}, false
	}
	return Msg{V: ProtocolVersion, Type: TypeResult, Trial: trial, Data: data}, true
}

// parseRangeFrame decodes, in one pass, a line in the canonical form
// appendMsg writes for a wave or wavedone:
// {"v":V,"type":T,"lo":L,"hi":H,"indices":[I,…],"trial":0} and a newline,
// with V = ProtocolVersion, T "wave" or "wavedone", the lo and hi members
// present only when non-zero and indices only when non-empty, and every
// number an int in json.Marshal's spelling. Any other line reports false
// and goes to encoding/json, which decodes a canonical line to the same
// Msg.
func parseRangeFrame(line []byte) (Msg, bool) {
	rest, ok := cutString(line, msgHead)
	if !ok {
		return Msg{}, false
	}
	m := Msg{V: ProtocolVersion}
	if rest, ok = cutString(rest, TypeWave+`"`); ok {
		m.Type = TypeWave
	} else if rest, ok = cutString(rest, TypeWaveDone+`"`); ok {
		m.Type = TypeWaveDone
	} else {
		return Msg{}, false
	}
	if rest, ok = cutString(rest, `,"lo":`); ok {
		if m.Lo, rest, ok = jsonint.CutInt(rest); !ok || m.Lo == 0 {
			return Msg{}, false
		}
	}
	if rest, ok = cutString(rest, `,"hi":`); ok {
		if m.Hi, rest, ok = jsonint.CutInt(rest); !ok || m.Hi == 0 {
			return Msg{}, false
		}
	}
	if rest, ok = cutString(rest, `,"indices":[`); ok {
		list := rest[:max(bytes.IndexByte(rest, ']'), 0)]
		m.Indices = make([]int, 0, bytes.Count(list, []byte{','})+1)
		for sep := byte(','); sep == ','; {
			var x int
			if x, rest, ok = jsonint.CutInt(rest); !ok || len(rest) == 0 {
				return Msg{}, false
			}
			m.Indices = append(m.Indices, x)
			sep, rest = rest[0], rest[1:]
			if sep != ',' && sep != ']' {
				return Msg{}, false
			}
		}
	}
	if string(rest) != rangeTail {
		return Msg{}, false
	}
	return m, true
}

// cutString is bytes.CutPrefix for a string prefix.
func cutString(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// isSpace reports whether c is JSON insignificant whitespace.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
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
// 0 <= i < of. Only ShardArg's exact form is accepted: no signs, spaces,
// leading zeros or trailing bytes.
func ParseShardArg(s string) (shard, shards int, err error) {
	a, b, _ := strings.Cut(s, "/")
	shard, errA := strconv.Atoi(a)
	shards, errB := strconv.Atoi(b)
	if errA != nil || errB != nil || ShardArg(shard, shards) != s || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("dist: bad shard argument %q (want i/of with 0 <= i < of)", s)
	}
	return shard, shards, nil
}
