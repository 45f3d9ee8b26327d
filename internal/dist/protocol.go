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
// The wire protocol runs over the worker's stdin/stdout as a stream of
// versioned frames: the coordinator sends a job header (spec, seed, shard
// identity, spec hash), the worker answers with a hello echoing the
// verified hash, and then explicit trial-index lists flow down and
// per-trial result payloads flow back, each wave closed by a wavedone
// barrier message. Every frame carries its body's length and a CRC-32C,
// so it can carry any bytes: dist never looks inside a result payload,
// which only the caller's sink decodes. Wave, wavedone and result bodies
// are uvarints (and a result's payload bytes); job, hello, halt and error
// bodies are the JSON of Msg. A worker writes a wave share's frames in one
// write, and the coordinator hands every frame already buffered to its
// event loop in one channel send. The wave barrier is the cross-process
// analogue of StreamAdaptive's dispatch window: after folding a wave the
// coordinator evaluates the stopping predicate, writes a checksummed
// checkpoint record (caller aggregate state + next trial index + spec
// hash), and either dispatches the next wave, sized by what the last one
// cost, or halts every worker. Interrupted runs resume from the checkpoint
// instead of restarting, and a resumed run's final aggregates are
// bit-identical to an uninterrupted one's.
package dist

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ProtocolVersion is the first byte of every frame. Workers and
// coordinators reject frames of any other version, so mixed-binary fleets
// — much easier to assemble by accident now that RemoteLauncher starts
// workers from per-host binaries — fail loudly instead of folding garbage.
// Version 5 replaced JSON lines with length-prefixed, checksummed frames; a
// stream that opens a JSON line comes from a version 4 or older peer and
// fails the run naming that peer's version. Version 4 made explicit index
// lists the only dispatch form: a version 3 coordinator's index-less wave
// would run nothing on a version 4 worker and stall the run until the
// liveness deadline. Version 3 made the wavedone barrier echo the indices
// the worker computed, which the coordinator's frame-integrity check relies
// on to detect result frames lost in transit; version 2 switched the trial
// payloads and job specs to the 128-bit interaction clock's hi/lo word
// pairs (budget_hi/budget_lo, interactions_hi/interactions_lo); version 1
// carried single int64 clock fields, which overflow past n = ⌊√MaxInt64⌋.
const ProtocolVersion = 5

// DefaultMaxFrame caps a frame's body in bytes: the decoder rejects a
// frame that declares a longer body before it reads any of it, so a
// corrupted length cannot make it buffer without bound.
const DefaultMaxFrame = 64 << 20

// errProtocolVersion marks a cross-version peer: the failure is a build
// mismatch, deterministic across relaunches, so the coordinator aborts
// instead of spending relaunch budget reproducing it.
var errProtocolVersion = errors.New("protocol version mismatch")

// MsgType is a message's type, sent as the second byte of its frame.
type MsgType byte

// Message types sent by the coordinator.
const (
	// TypeJob opens the session: spec, seed, shard identity, spec hash.
	TypeJob MsgType = iota + 1
	// TypeWave dispatches the explicit global trial indices Indices, all
	// within the wave range [Lo, Hi).
	TypeWave
	// TypeHalt asks the worker to exit cleanly.
	TypeHalt
)

// Message types sent by the worker.
const (
	// TypeHello acknowledges the job header after verifying the spec hash.
	TypeHello MsgType = iota + TypeHalt + 1
	// TypeResult carries one trial's result payload.
	TypeResult
	// TypeWaveDone marks the wave barrier: every dispatched index has been
	// emitted.
	TypeWaveDone
	// TypeError aborts the session with a worker-side error.
	TypeError
)

// typeNames names the message types for diagnostics.
var typeNames = [...]string{TypeJob: "job", TypeWave: "wave", TypeHalt: "halt",
	TypeHello: "hello", TypeResult: "result", TypeWaveDone: "wavedone", TypeError: "error"}

// String names the message type.
func (t MsgType) String() string {
	if t >= TypeJob && t <= TypeError {
		return typeNames[t]
	}
	return "type " + strconv.Itoa(int(t))
}

// Msg is one protocol message. Fields are populated according to Type;
// the fields a type does not use are not sent.
type Msg struct {
	// Type is one of the Type* constants; the frame header carries it.
	Type MsgType `json:"-"`
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
	Lo int `json:"-"`
	// Hi is the wave range's exclusive upper bound.
	Hi int `json:"-"`
	// Indices, on a wave message, lists exactly the global indices the
	// worker runs. The coordinator deals every wave this way — first-time
	// dispatch, requeues to a relaunched incarnation, redistribution to
	// survivors alike — so membership changes never move work implicitly
	// and no trial's randomness stream changes (streams depend on the
	// global index alone). On a wavedone message Indices echoes the indices
	// the worker actually computed and emitted, the coordinator's
	// frame-integrity evidence: an echoed index the coordinator never
	// received a result for was lost in transit.
	Indices []int `json:"-"`
	// Trial is the global trial index of a result.
	Trial int `json:"-"`
	// Data is the trial's result payload (result messages).
	Data []byte `json:"-"`
	// Err describes a worker-side failure (error messages).
	Err string `json:"err,omitempty"`
}

// A frame is the version byte, the type byte, the body's length as a
// uvarint, the body, and the little-endian CRC-32C (recordSum) of every
// byte from the type through the body. A wave or wavedone body is the
// uvarints lo, hi and then each index; a result body the uvarint trial
// number and then the payload; any other body the JSON of the Msg.
const (
	// frameHead is the longest header: version, type and length.
	frameHead = 2 + binary.MaxVarintLen64
	// frameSum is the length of the trailing checksum.
	frameSum = 4
)

// writeMsg emits one protocol frame in a single Write call, so concurrent
// pipes never interleave partial frames.
func writeMsg(w io.Writer, m *Msg) error {
	_, err := writeFrame(w, nil, m)
	return err
}

// writeFrame is writeMsg building the frame in buf, reused across calls:
// it returns the grown buffer for the next frame.
func writeFrame(w io.Writer, buf []byte, m *Msg) ([]byte, error) {
	buf, err := appendMsg(buf[:0], m)
	if err != nil {
		return buf, err
	}
	if _, err := w.Write(buf); err != nil {
		return buf, fmt.Errorf("dist: write %s message: %w", m.Type, err)
	}
	return buf, nil
}

// appendMsg appends m's frame to dst. The body is built after room for the
// longest header and moved up against the header once its length is known.
func appendMsg(dst []byte, m *Msg) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHead)...)
	body := len(dst)
	switch m.Type {
	case TypeResult:
		dst = append(binary.AppendUvarint(dst, uint64(m.Trial)), m.Data...)
	case TypeWave, TypeWaveDone:
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(m.Lo)), uint64(m.Hi))
		for _, x := range m.Indices {
			dst = binary.AppendUvarint(dst, uint64(x))
		}
	default:
		// Marshaled from a copy, so that m does not escape: only these rare
		// frames move a Msg to the heap.
		b, err := json.Marshal(*m)
		if err != nil {
			return dst[:start], fmt.Errorf("dist: marshal %s message: %w", m.Type, err)
		}
		dst = append(dst, b...)
	}
	head := binary.AppendUvarint(append(dst[:start], ProtocolVersion, byte(m.Type)), uint64(len(dst)-body))
	end := len(head) + copy(dst[len(head):], dst[body:])
	return binary.LittleEndian.AppendUint32(dst[:end], recordSum(dst[start+1:end])), nil
}

// msgReader decodes protocol frames from a stream, with no fixed frame
// size limit below DefaultMaxFrame (result payloads can be large).
type msgReader struct {
	r *bufio.Reader
	// queue and err hold the rest of the last batch for next.
	queue []Msg
	err   error
}

// msgReaderSize is a decoder's buffer size. A worker writes a wave share in
// one write (or early, flushAfter past its last write): at DefaultWave that
// is ~8 result frames of ~110 bytes for each of two shards, which one read
// takes in whole; a cost-sized wave of cheap trials (a few hundred trials
// on perfbench dispatch-bound) makes shares of 15–20 KB, which a few reads
// and batches take in. A 32 KB buffer measured within noise of this one
// there. A longer frame, such as a large job spec, is gathered whole by
// frames' long path. Every worker launch gets a fresh decoder, so a larger
// buffer would only add to the coordinator's peak RSS.
const msgReaderSize = 4 << 10

// newMsgReader wraps a stream in a protocol decoder.
func newMsgReader(r io.Reader) *msgReader {
	return &msgReader{r: bufio.NewReaderSize(r, msgReaderSize)}
}

// next reads and validates one protocol message, by way of batch. It
// returns io.EOF untouched at a clean end of stream.
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

// batch decodes the frames of one frames call. The messages decoded before
// a failing frame come back with its error, and the reader is spent after
// any error; io.EOF comes back untouched at a clean end of stream.
func (d *msgReader) batch() ([]Msg, error) {
	raw, n, err := d.frames()
	ms := make([]Msg, n)
	for i := range ms {
		size, _ := frameSize(raw)
		if ferr := decodeFrame(raw[:size:size], &ms[i]); ferr != nil {
			return ms[:i], ferr
		}
		raw = raw[size:]
	}
	return ms, err
}

// frames reads the next frame, blocking until it is whole, and then every
// further frame already whole in the buffer, without blocking. It returns
// their bytes in one copy, which the decoded payloads alias, and how many
// frames that is. Only the headers are checked here: the checksums and
// bodies are decodeFrame's. io.EOF comes back untouched at a clean end of
// stream.
func (d *msgReader) frames() ([]byte, int, error) {
	size, err := d.head()
	if err != nil {
		return nil, 0, err
	}
	var long []byte // a frame longer than the buffer, gathered in pieces
	for size > d.r.Size() && len(long) < size {
		if _, err := d.r.Peek(1); err != nil {
			return nil, 0, readErr(err)
		}
		b, _ := d.r.Peek(min(d.r.Buffered(), size-len(long)))
		long = append(long, b...)
		d.r.Discard(len(b))
	}
	if long != nil {
		size = 0
	} else if _, err := d.r.Peek(size); err != nil {
		return nil, 0, readErr(err)
	}
	// Peeking at and discarding no more than is buffered never reads, so
	// neither fails, and the frames stay valid until the copy.
	buf, _ := d.r.Peek(d.r.Buffered())
	end, n := size, 1
	for {
		next, err := frameSize(buf[end:])
		if err != nil || next == 0 || next > len(buf)-end {
			break
		}
		end, n = end+next, n+1
	}
	out := append(long, buf[:end]...)
	d.r.Discard(end)
	return out, n, nil
}

// head blocks until the next frame's header is whole and returns the
// frame's size. A JSON line in its place is an older peer's.
func (d *msgReader) head() (int, error) {
	for need := 1; ; {
		if _, err := d.r.Peek(need); err != nil {
			if err == io.EOF && need == 1 {
				return 0, io.EOF
			}
			return 0, readErr(err)
		}
		b, _ := d.r.Peek(d.r.Buffered())
		size, err := frameSize(b)
		if err == errJSONLine {
			return 0, d.jsonLine()
		}
		if err != nil || size > 0 {
			return size, err
		}
		need = len(b) + 1
	}
}

// readErr wraps a stream error met inside a frame.
func readErr(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("dist: read protocol frame: %w", err)
}

// errJSONLine reports a frame that opens with '{': a JSON protocol line
// from a peer of version 4 or older.
var errJSONLine = errors.New("dist: JSON protocol line")

// jsonLine reads an older peer's JSON line and fails naming its version.
func (d *msgReader) jsonLine() error {
	line, _ := d.r.ReadSlice('\n')
	var head struct {
		V int `json:"v"`
	}
	if json.Unmarshal(line, &head) != nil || head.V == ProtocolVersion {
		return fmt.Errorf("dist: bad protocol line %.80q", line)
	}
	return fmt.Errorf("dist: protocol version %d, want %d (%w; version 1 predates the 128-bit interaction clock, version 2 the wavedone integrity echo, version 3 explicit-only dealing, version 4 checksummed frames — rebuild so coordinator and every worker host match)",
		head.V, ProtocolVersion, errProtocolVersion)
}

// frameSize checks the header of the frame that b opens and returns the
// frame's size, or 0 while b holds only part of the header. It rejects an
// unknown version or type and a body longer than DefaultMaxFrame.
func frameSize(b []byte) (int, error) {
	if len(b) > 0 && b[0] == '{' {
		return 0, errJSONLine
	}
	if len(b) < 2 {
		return 0, nil
	}
	if b[0] != ProtocolVersion {
		return 0, fmt.Errorf("dist: bad frame: version byte %d, want %d", b[0], ProtocolVersion)
	}
	if t := MsgType(b[1]); t < TypeJob || t > TypeError {
		return 0, fmt.Errorf("dist: bad frame: unknown message type %d", b[1])
	}
	n, k := binary.Uvarint(b[2:])
	if k < 0 || n > DefaultMaxFrame {
		return 0, fmt.Errorf("dist: bad frame: declared body length over the %d-byte cap", DefaultMaxFrame)
	}
	if k == 0 {
		return 0, nil
	}
	return 2 + k + int(n) + frameSum, nil
}

// decodeFrame checks a whole frame's checksum and decodes its body into m,
// which it overwrites whole. A result's Data aliases the frame. After an
// error m holds an unspecified partial decode.
func decodeFrame(f []byte, m *Msg) error {
	sum := len(f) - frameSum
	if binary.LittleEndian.Uint32(f[sum:]) != recordSum(f[1:sum]) {
		return fmt.Errorf("dist: bad %s frame: checksum mismatch", MsgType(f[1]))
	}
	*m = Msg{Type: MsgType(f[1])}
	_, k := binary.Uvarint(f[2:])
	body := f[2+k : sum : sum]
	ok := true
	switch m.Type {
	case TypeResult:
		var trial uint64
		trial, body, ok = cutUvarint(body)
		m.Trial, m.Data = int(trial), body
	case TypeWave, TypeWaveDone:
		var lo, hi, x uint64
		lo, body, ok = cutUvarint(body)
		if ok {
			hi, body, ok = cutUvarint(body)
		}
		m.Lo, m.Hi = int(lo), int(hi)
		if ok && len(body) > 0 {
			// Every uvarint ends in its one byte below 0x80.
			n := 0
			for _, c := range body {
				n += int(^c >> 7)
			}
			m.Indices = make([]int, 0, n)
		}
		for ok && len(body) > 0 {
			x, body, ok = cutUvarint(body)
			m.Indices = append(m.Indices, int(x))
		}
	default:
		// Unmarshaled into its own variable, so that only these rare
		// frames move a Msg to the heap.
		j := Msg{Type: m.Type}
		if err := json.Unmarshal(body, &j); err != nil {
			return fmt.Errorf("dist: bad %s frame: %w", m.Type, err)
		}
		*m = j
	}
	if !ok {
		return fmt.Errorf("dist: bad %s frame: malformed uvarint", m.Type)
	}
	return nil
}

// cutUvarint decodes the uvarint that b opens and returns the bytes after
// it.
func cutUvarint(b []byte) (uint64, []byte, bool) {
	x, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, b, false
	}
	return x, b[k:], true
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
