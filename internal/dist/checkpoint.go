package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// Checkpoint is one record of a distributed run's on-disk resume state. A
// checkpoint file holds one record per folded wave, each this JSON object
// on its own line, appended in fold order (see Options.CheckpointPath).
// The object's last member, "crc", is the CRC-32C of every byte of the
// line before it, header and state alike (see sealRecord). A
// record captures how far the in-order fold has advanced, whether the run
// already finished (and how), the run's identity — spec hash, seed, trial
// cap and stopping policy — guarding against resuming a different
// configuration, and what the wave changed in the caller's aggregate state.
type Checkpoint struct {
	// V is the checkpoint schema version.
	V int `json:"v"`
	// Hash is the spec hash of the run that wrote the checkpoint.
	Hash string `json:"hash"`
	// Seed is the trial-stream family seed of the run; resuming under a
	// different seed is rejected (the restored aggregate would mix two
	// random streams).
	Seed uint64 `json:"seed"`
	// Policy is the caller's opaque stopping-policy identity
	// (Options.Policy); resuming under a different policy is rejected
	// (the stop point would match neither run).
	Policy string `json:"policy,omitempty"`
	// NextTrial is the number of trials folded so far; the resume point.
	NextTrial int `json:"next_trial"`
	// MaxTrials is the run's trial cap; resuming under a different cap is
	// rejected (the stop point would correspond to neither run).
	MaxTrials int `json:"max_trials"`
	// Waves is the cumulative number of folded waves.
	Waves int `json:"waves"`
	// Done reports that the run completed (predicate fired or cap reached);
	// resuming a done checkpoint restores the state and returns without
	// launching workers.
	Done bool `json:"done"`
	// Stopped reports that the stopping predicate fired (as opposed to the
	// cap being exhausted); only meaningful when Done is set.
	Stopped bool `json:"stopped"`
	// State is the wave's State.Snapshot: what the wave changed in the
	// caller's aggregate state.
	State json.RawMessage `json:"state"`
}

// checkpointVersion is the current Checkpoint schema version. Version 4
// seals every record with a CRC-32C, so a record corrupted on disk fails
// the resume instead of folding silently. Version 3 accompanies the
// pluggable dynamics engine: resumed folds must replay under the exact
// dynamics variant that produced the checkpoint, which pre-variant builds
// neither record nor understand. Version 2 switched the sharded trial
// payloads held in State to the 128-bit interaction clock's hi/lo word
// pairs; version 1 states carry int64 clocks that overflow past
// n = ⌊√MaxInt64⌋ and cannot be resumed.
const checkpointVersion = 4

// recordSum returns the CRC-32C (Castagnoli) that seals a record's bytes.
// Its table is built on first use, which takes ~0.2 ms, so a process that
// never checkpoints — every worker — does not pay for it at start-up.
func recordSum(b []byte) uint32 {
	return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
}

// crcKey opens a record's checksum member, the last of its object.
const crcKey = `,"crc":`

// sealRecord turns a marshaled Checkpoint into its record line: the object
// gains a last member "crc" holding the CRC-32C of every byte before that
// member, and the line a newline.
func sealRecord(obj []byte) []byte {
	n := len(obj) - 1 // the closing brace
	body := obj[:n:n]
	line := strconv.AppendUint(append(body, crcKey...), uint64(recordSum(body)), 10)
	return append(line, '}', '\n')
}

// sealed reports whether a record line, whitespace around it aside, ends
// in a crc member holding the CRC-32C of every byte before that member.
func sealed(line []byte) bool {
	line = bytes.TrimSpace(line)
	i := bytes.LastIndex(line, []byte(crcKey))
	if i < 0 || line[len(line)-1] != '}' {
		return false
	}
	sum, err := strconv.ParseUint(string(line[i+len(crcKey):len(line)-1]), 10, 32)
	return err == nil && uint32(sum) == recordSum(line[:i])
}

// State is the caller-owned fold state a checkpoint captures, serialized
// well enough that restoring it and folding the remaining trials is
// bit-identical to never having been interrupted (stats.Online and
// stats.P2 provide such snapshots). Run calls Snapshot after every folded
// wave and stores the result in that wave's record, so Snapshot returns
// what changed since the previous Snapshot (everything, the first time).
// On resume Run hands every record's state to Restore, oldest first,
// before it folds anything.
type State interface {
	// Snapshot serializes what changed since the previous Snapshot.
	Snapshot() ([]byte, error)
	// Restore applies one record's Snapshot; records arrive oldest first.
	Restore(data []byte) error
}

// JSONState adapts a JSON-(un)marshalable value to the State interface:
// Snapshot returns the full value and each Restore overwrites it, so the
// newest record restored is the state. V must be a pointer for Restore to
// take effect. Note that encoding/json round-trips finite float64s exactly
// but rejects NaN and the infinities; aggregate states containing those
// must use stats.F64Bits (or the stats.Online / stats.P2 snapshots, which
// already do).
type JSONState struct {
	// V is the pointed-to aggregate state.
	V any
}

// Snapshot implements State by marshaling V.
func (s JSONState) Snapshot() ([]byte, error) { return json.Marshal(s.V) }

// Restore implements State by unmarshaling into V.
func (s JSONState) Restore(data []byte) error { return json.Unmarshal(data, s.V) }

// WriteFileAtomic writes data to path via a temporary file in the same
// directory and an atomic rename, so readers never observe a partial file
// and an interrupted write cannot clobber the previous version. A
// checkpoint's first record is written with it, so a crash during that
// write leaves no file; cmd/bench shares it for BENCH_core.json.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	// Sync before the rename: on a power loss the rename may be durable
	// while unsynced data blocks are not, which would leave a truncated
	// file at the final path — the one loss checkpointing must prevent.
	if err := writeSync(tmp, data); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeSync writes data to fh, fsyncs and closes it.
func writeSync(fh *os.File, data []byte) error {
	_, err := fh.Write(data)
	if err == nil {
		err = fh.Sync()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkpointFile is a checkpoint file as loadCheckpoint validated it, and
// the writer of its next records.
type checkpointFile struct {
	// Checkpoint is the file's newest record.
	Checkpoint
	path string
	// records counts the records loaded, which restore replays; 0 means
	// the file holds none, so the next record is written atomically
	// rather than appended.
	records int
	// cut, when positive, is where the newest loaded record's JSON ends.
	// The first append truncates the file there and starts a new line,
	// which drops a torn append and supplies a missing newline alike.
	cut int64
}

// append snapshots the caller state into cp and adds it to the file as
// one record: the first record with WriteFileAtomic, every later one by
// an fsynced O_APPEND write.
func (f *checkpointFile) append(cp Checkpoint, state State) error {
	snap, err := state.Snapshot()
	if err != nil {
		return fmt.Errorf("dist: snapshot state for checkpoint: %w", err)
	}
	cp.V, cp.State = checkpointVersion, snap
	obj, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("dist: marshal checkpoint: %w", err)
	}
	rec := sealRecord(obj)
	if f.records > 0 {
		err = f.appendRecord(rec)
	} else {
		err = WriteFileAtomic(f.path, rec, 0o644)
	}
	if err != nil {
		return fmt.Errorf("dist: write checkpoint %s: %w", f.path, err)
	}
	f.records, f.cut = f.records+1, 0
	return nil
}

// appendRecord appends rec to the file and fsyncs it. The first append
// after a load truncates the file at the cut and starts rec on a new line.
func (f *checkpointFile) appendRecord(rec []byte) error {
	fh, err := os.OpenFile(f.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if f.cut > 0 {
		if err := fh.Truncate(f.cut); err != nil {
			fh.Close()
			return err
		}
		rec = append([]byte{'\n'}, rec...)
	}
	return writeSync(fh, rec)
}

// parseCheckpoint decodes and structurally validates one checkpoint
// record: a well-formed record is one JSON object on one line, of the
// current schema version, whose counters are internally consistent, whose
// state is present, and whose checksum matches. Truncated, corrupt, or
// inconsistent input yields a descriptive error — never a panic, and never
// a silently accepted state a resume would then fold garbage onto.
// FuzzCheckpoint drives it with arbitrary bytes.
func parseCheckpoint(data []byte) (Checkpoint, error) {
	var cp Checkpoint
	if bytes.IndexByte(bytes.TrimSpace(data), '\n') >= 0 {
		return cp, errors.New("not a valid checkpoint: a record spans more than one line")
	}
	if err := json.Unmarshal(data, &cp); err != nil {
		return cp, fmt.Errorf("not a valid checkpoint (truncated or corrupt): %w", err)
	}
	switch {
	case cp.V == 1:
		return cp, fmt.Errorf(
			"schema version 1, want %d: it was written by a pre-128-bit-clock build and its aggregates cannot be resumed losslessly",
			checkpointVersion)
	case cp.V == 2:
		return cp, fmt.Errorf(
			"schema version 2, want %d: it was written by a pre-variant-engine build, which does not record the dynamics variant a resume must replay under",
			checkpointVersion)
	case cp.V == 3:
		return cp, fmt.Errorf(
			"schema version 3, want %d: it was written by a pre-checksum build, whose records a resume cannot tell from corrupted ones",
			checkpointVersion)
	case cp.V != checkpointVersion:
		return cp, fmt.Errorf("schema version %d, want %d", cp.V, checkpointVersion)
	case cp.MaxTrials < 1:
		return cp, fmt.Errorf("corrupt: trial cap %d, want >= 1", cp.MaxTrials)
	case cp.NextTrial < 0 || cp.NextTrial > cp.MaxTrials:
		return cp, fmt.Errorf("corrupt: resume point %d outside [0, %d]", cp.NextTrial, cp.MaxTrials)
	case cp.Waves < 0:
		return cp, fmt.Errorf("corrupt: negative folded-wave count %d", cp.Waves)
	case cp.NextTrial > 0 && cp.Waves == 0:
		return cp, fmt.Errorf("corrupt: %d folded trials but no folded waves", cp.NextTrial)
	case len(bytes.TrimSpace(cp.State)) == 0:
		return cp, errors.New("corrupt: aggregate state is missing")
	case !sealed(data):
		return cp, errors.New("corrupt: the record does not match its checksum")
	}
	return cp, nil
}

// loadCheckpoint validates a checkpoint file, if one exists, in one
// streaming pass that keeps only the newest record: every record must
// belong to this run — same spec hash, same seed, same trial cap, same
// stopping policy — and follow its predecessor: NextTrial never
// decreases, Waves strictly increases, and nothing follows a Done record.
// Blank lines are skipped. An unparseable last line after a good record is
// a torn append: it is skipped, and cut off by the next append. Any other
// bad line is an error naming the file. A missing file is not an error: it
// returns ok = false, meaning a fresh run. The records' states are left on
// disk for restore, so a resume holds one record in memory at a time.
func loadCheckpoint(path, wantHash string, wantSeed uint64, wantMax int, wantPolicy string) (*checkpointFile, bool, error) {
	f := &checkpointFile{path: path}
	fh, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return f, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("dist: read checkpoint %s: %w", path, err)
	}
	defer fh.Close()
	lr := lineReader{r: bufio.NewReader(fh)}
	for {
		line, err := lr.next()
		if err != nil {
			return nil, false, fmt.Errorf("dist: read checkpoint %s: %w", path, err)
		}
		if line == nil {
			break
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if f.records > 0 && !json.Valid(line) {
			blank, err := lr.blankRest()
			if err != nil {
				return nil, false, fmt.Errorf("dist: read checkpoint %s: %w", path, err)
			}
			if blank {
				break // a torn append, which the next append cuts off
			}
		}
		rec := f.records + 1
		cp, err := parseCheckpoint(line)
		if err != nil {
			return nil, false, fmt.Errorf("dist: checkpoint %s: record %d: %v — delete it to start over", path, rec, err)
		}
		prev, why := f.Checkpoint, ""
		switch {
		case cp.Hash != wantHash:
			why = fmt.Sprintf("was written by a different configuration (spec hash %.12s, this run %.12s)", cp.Hash, wantHash)
		case cp.Seed != wantSeed:
			why = fmt.Sprintf("was written with seed %d, this run uses %d; resuming would mix two trial streams", cp.Seed, wantSeed)
		case cp.MaxTrials != wantMax:
			why = fmt.Sprintf("was written with a trial cap of %d, this run uses %d", cp.MaxTrials, wantMax)
		case cp.Policy != wantPolicy:
			why = fmt.Sprintf("was written under stopping policy %q, this run uses %q; the stop point would match neither", cp.Policy, wantPolicy)
		case rec > 1 && prev.Done:
			why = fmt.Sprintf("record %d follows a done record", rec)
		case rec > 1 && cp.NextTrial < prev.NextTrial:
			why = fmt.Sprintf("record %d moves the resume point back from %d to %d", rec, prev.NextTrial, cp.NextTrial)
		case rec > 1 && cp.Waves <= prev.Waves:
			why = fmt.Sprintf("record %d does not advance the folded-wave count %d", rec, prev.Waves)
		}
		if why != "" {
			return nil, false, fmt.Errorf("dist: checkpoint %s %s — delete it to start over", path, why)
		}
		cp.State = nil // restore reads it again
		f.Checkpoint, f.records = cp, rec
		f.cut = lr.off - int64(len(line)-len(bytes.TrimRight(line, " \t\r\n")))
	}
	if f.records == 0 {
		return nil, false, fmt.Errorf("dist: checkpoint %s: file is empty (truncated write?) — delete it to start over", path)
	}
	return f, true, nil
}

// restore hands the loaded records' states to state, oldest first, reading
// the file a second time one record at a time. loadCheckpoint validated
// every record, so a resume fails on a bad later record before anything
// is restored.
func (f *checkpointFile) restore(state State) error {
	fh, err := os.Open(f.path)
	if err != nil {
		return fmt.Errorf("dist: read checkpoint %s: %w", f.path, err)
	}
	defer fh.Close()
	lr := lineReader{r: bufio.NewReader(fh)}
	for rec := 1; rec <= f.records; {
		line, err := lr.next()
		if err == nil && line == nil {
			err = io.ErrUnexpectedEOF // the file shrank since the load
		}
		if err != nil {
			return fmt.Errorf("dist: read checkpoint %s: %w", f.path, err)
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		cp, err := parseCheckpoint(line)
		if err == nil {
			err = state.Restore(cp.State)
		}
		if err != nil {
			return fmt.Errorf("dist: restore state from checkpoint record %d: %w", rec, err)
		}
		rec++
	}
	return nil
}

// lineReader yields a file's lines one at a time, each with its newline
// (the last may lack one), through one reused buffer.
type lineReader struct {
	r   *bufio.Reader
	buf []byte
	// off is the file offset just past the last line returned.
	off int64
}

// next returns the next line, valid until the following call, or nil at
// the end of the file.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.buf = append(lr.buf[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = lr.r.ReadSlice('\n')
			lr.buf = append(lr.buf, line...)
		}
		line = lr.buf
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(line) == 0 {
		return nil, nil
	}
	lr.off += int64(len(line))
	return line, nil
}

// blankRest reports whether nothing but whitespace follows the last line
// returned, reading up to the first byte that is not.
func (lr *lineReader) blankRest() (bool, error) {
	for {
		b, err := lr.r.ReadByte()
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		if b != ' ' && b != '\t' && b != '\n' && b != '\r' {
			return false, lr.r.UnreadByte()
		}
	}
}
