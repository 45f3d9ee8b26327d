package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// validCheckpointBytes returns a well-formed checkpoint record, without its
// newline, for seeding tests.
func validCheckpointBytes(t testing.TB) []byte {
	t.Helper()
	data, err := json.Marshal(Checkpoint{
		V:         checkpointVersion,
		Hash:      HashSpec([]byte(`{"job":"echo"}`)),
		Seed:      7,
		Policy:    "adaptive rel=0.05",
		NextTrial: 12,
		MaxTrials: 40,
		Waves:     3,
		State:     json.RawMessage(`{"count":12,"seq":[]}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(sealRecord(data), []byte("\n"))
}

// TestLoadCheckpointRejectsCorruptFiles pins the hardening contract: a
// truncated or corrupt checkpoint file produces a clean, descriptive error
// pointing at the file — never a panic, and never a silent fresh start
// that would overwrite the evidence.
func TestLoadCheckpointRejectsCorruptFiles(t *testing.T) {
	good := validCheckpointBytes(t)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"whitespace", []byte("  \n\t")},
		{"truncated", good[:len(good)/2]},
		{"not-json", []byte("%% not a checkpoint %%")},
		{"wrong-shape", []byte(`[1,2,3]`)},
		{"wrong-version", []byte(`{"v":99,"hash":"x","max_trials":10,"state":{}}`)},
		{"old-version-v1", []byte(`{"v":1,"hash":"x","seed":7,"next_trial":12,"max_trials":40,"waves":3,"state":{"count":12}}`)},
		{"old-version-v2", []byte(`{"v":2,"hash":"x","seed":7,"next_trial":12,"max_trials":40,"waves":3,"state":{"count":12}}`)},
		{"old-version-v3", []byte(`{"v":3,"hash":"x","seed":7,"next_trial":12,"max_trials":40,"waves":3,"state":{"count":12}}`)},
		{"negative-resume", []byte(`{"v":4,"hash":"x","next_trial":-3,"max_trials":10,"state":{}}`)},
		{"resume-past-cap", []byte(`{"v":4,"hash":"x","next_trial":11,"max_trials":10,"state":{}}`)},
		{"zero-cap", []byte(`{"v":4,"hash":"x","max_trials":0,"state":{}}`)},
		{"negative-waves", []byte(`{"v":4,"hash":"x","max_trials":10,"waves":-1,"state":{}}`)},
		{"trials-no-waves", []byte(`{"v":4,"hash":"x","next_trial":4,"max_trials":10,"state":{}}`)},
		{"missing-state", []byte(`{"v":4,"hash":"x","max_trials":10}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, ok, err := loadCheckpoint(path, "x", 0, 10, "")
			if err == nil {
				t.Fatalf("corrupt checkpoint accepted (ok=%v)", ok)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the file", err)
			}
			if tc.name == "old-version-v1" && !strings.Contains(err.Error(), "pre-128-bit-clock") {
				t.Fatalf("old-version error %q does not explain the version gap", err)
			}
			if tc.name == "old-version-v2" && !strings.Contains(err.Error(), "pre-variant-engine") {
				t.Fatalf("old-version error %q does not explain the version gap", err)
			}
			if tc.name == "old-version-v3" && !strings.Contains(err.Error(), "pre-checksum") {
				t.Fatalf("old-version error %q does not explain the version gap", err)
			}
		})
	}
}

// TestRunRefusesCorruptCheckpoint checks the behavior end to end: a run
// pointed at a truncated checkpoint fails up front instead of silently
// restarting from trial zero.
func TestRunRefusesCorruptCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	good := validCheckpointBytes(t)
	if err := os.WriteFile(path, good[:len(good)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	st := &foldState{}
	_, err := Run(Options{
		Shards: 1, MaxTrials: 40, Wave: 4, Seed: 7, Spec: []byte(`{"job":"echo"}`),
		Launcher:       &PipeLauncher{Build: echoBuild},
		CheckpointPath: path,
		Policy:         "adaptive rel=0.05",
	}, st.sink, nil, st)
	if err == nil || !strings.Contains(err.Error(), "delete it to start over") {
		t.Fatalf("expected a corrupt-checkpoint error, got %v", err)
	}
	if st.Count != 0 {
		t.Fatalf("folded %d trials against a corrupt checkpoint", st.Count)
	}
}

// checkpointLines runs the echo job (40 trials, 6-trial waves, seed 9)
// for waves waves against a fresh checkpoint file (0 = to completion) and
// returns the file's path and its record lines.
func checkpointLines(t *testing.T, waves int) (string, [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	runEcho(t, Options{Shards: 2, MaxTrials: 40, Wave: 6, Seed: 9, Spec: []byte(`{"job":"echo"}`),
		CheckpointPath: path, MaxWaves: waves}, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("checkpoint does not end in a newline: %q", data)
	}
	return path, bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// TestCheckpointResumesPastTornAppend cuts a multi-wave checkpoint inside
// its last record, and just before that record's newline: the resume must
// continue bit-exact from the last whole record, and the records it
// appends must each land on a line of their own.
func TestCheckpointResumesPastTornAppend(t *testing.T) {
	spec := []byte(`{"job":"echo"}`)
	full, fullRes := runEcho(t, Options{Shards: 2, MaxTrials: 40, Wave: 6, Seed: 9, Spec: spec}, nil)
	for _, tc := range []struct {
		name string
		keep func(last []byte) int // bytes of the last record kept
		from int                   // expected resume point
	}{
		{"inside-last-record", func(last []byte) int { return len(last) / 2 }, 12},
		{"before-last-newline", func(last []byte) int { return len(last) }, 18},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, lines := checkpointLines(t, 3)
			if len(lines) != 3 {
				t.Fatalf("3 waves wrote %d records, want 3", len(lines))
			}
			last := lines[2]
			cut := append(bytes.Join(lines[:2], []byte("\n")), '\n')
			cut = append(cut, last[:tc.keep(last)]...)
			if err := os.WriteFile(path, cut, 0o644); err != nil {
				t.Fatal(err)
			}
			st := &foldState{}
			res, err := Run(Options{Shards: 2, MaxTrials: 40, Wave: 6, Seed: 9, Spec: spec,
				CheckpointPath: path, Launcher: &PipeLauncher{Build: echoBuild}}, st.sink, nil, st)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if res.ResumedFrom != tc.from || res.Trials != 40 || res.Waves != fullRes.Waves {
				t.Fatalf("resume result %+v, want resumed from %d", res, tc.from)
			}
			if !reflect.DeepEqual(st.Seq, full.Seq) {
				t.Fatalf("resume past a torn append diverged from the uninterrupted run")
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
			if len(got) != fullRes.Waves {
				t.Fatalf("file holds %d lines after the resume, want one record per wave (%d)", len(got), fullRes.Waves)
			}
			for i, line := range got {
				cp, err := parseCheckpoint(line)
				if err != nil || cp.Waves != i+1 {
					t.Fatalf("line %d %.80q: waves %d, err %v", i+1, line, cp.Waves, err)
				}
			}
		})
	}
}

// TestCheckpointByteFlips flips each byte of a 3-record checkpoint in
// turn: every flip must fail the load, or leave an unparseable last line
// that the resume skips, continuing bit-exact from the record before it.
func TestCheckpointByteFlips(t *testing.T) {
	spec := []byte(`{"job":"echo"}`)
	full, _ := runEcho(t, Options{Shards: 2, MaxTrials: 40, Wave: 6, Seed: 9, Spec: spec}, nil)
	path, _ := checkpointLines(t, 3)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	resumed := 0
	for off := range clean {
		f := loadFlipped(t, dir, clean, off, []byte{0xff})
		if f == nil {
			continue
		}
		if f.records == 3 {
			t.Fatalf("byte %d flipped: the load kept every record", off)
		}
		st := &foldState{}
		res, err := Run(Options{Shards: 2, MaxTrials: 40, Wave: 6, Seed: 9, Spec: spec,
			CheckpointPath: f.path, Launcher: &PipeLauncher{Build: echoBuild}}, st.sink, nil, st)
		if err != nil {
			t.Fatalf("byte %d flipped: resume: %v", off, err)
		}
		if res.ResumedFrom != f.NextTrial || res.Trials != 40 || !reflect.DeepEqual(st.Seq, full.Seq) {
			t.Fatalf("byte %d flipped: resume %+v diverged from the uninterrupted run", off, res)
		}
		resumed++
	}
	if resumed == 0 {
		t.Fatal("no flip left a torn last line to resume past")
	}
}

// loadFlipped writes clean, a checkpoint file of the echo job (40 trials,
// seed 9), XORed with mask from byte off on (wrapping), to a file in dir
// and loads it. It fails t unless the load fails, or keeps a prefix of the
// clean records whose states restore unchanged, oldest first. It returns
// the loaded file, or nil when the load failed.
func loadFlipped(t testing.TB, dir string, clean []byte, off int, mask []byte) *checkpointFile {
	t.Helper()
	data := bytes.Clone(clean)
	for i, b := range mask {
		data[(off+i)%len(data)] ^= b
	}
	path := filepath.Join(dir, "flipped.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, ok, err := loadCheckpoint(path, HashSpec([]byte(`{"job":"echo"}`)), 9, 40, "")
	if err != nil {
		return nil
	}
	var want []Checkpoint
	for _, line := range bytes.Split(bytes.TrimSuffix(clean, []byte("\n")), []byte("\n")) {
		cp, err := parseCheckpoint(line)
		if err != nil {
			t.Fatalf("clean record %.80q: %v", line, err)
		}
		want = append(want, cp)
	}
	got := &stateLog{}
	if !ok || f.records > len(want) || f.restore(got) != nil || len(got.states) != f.records {
		t.Fatalf("%x XORed in at byte %d: loaded %d of %d records (ok %v), restored %d", mask, off, f.records, len(want), ok, len(got.states))
	}
	for i, st := range got.states {
		if !bytes.Equal(st, want[i].State) {
			t.Fatalf("%x XORed in at byte %d: record %d restored a state unlike the clean record's", mask, off, i+1)
		}
	}
	if last := want[f.records-1]; f.NextTrial != last.NextTrial || f.Waves != last.Waves || f.Done != last.Done {
		t.Fatalf("%x XORed in at byte %d: newest record %+v, want %+v", mask, off, f.Checkpoint, last)
	}
	return f
}

// stateLog is a State that keeps a copy of every state restored into it.
type stateLog struct{ states [][]byte }

func (s *stateLog) Snapshot() ([]byte, error) { return nil, errors.New("stateLog only restores") }

func (s *stateLog) Restore(data []byte) error {
	s.states = append(s.states, bytes.Clone(data))
	return nil
}

// TestLoadCheckpointRejectsBadLaterRecord pins that every record, not just
// the first, must belong to the run and follow its predecessor: a second
// record from another configuration, seed, cap or policy, one whose
// counters go back, and one after a done record all fail naming the file.
func TestLoadCheckpointRejectsBadLaterRecord(t *testing.T) {
	hash := HashSpec([]byte(`{"job":"echo"}`))
	for _, tc := range []struct {
		name   string
		field  string
		value  string
		reason string
	}{
		{"hash", "hash", `"` + HashSpec([]byte(`{"job":"other"}`)) + `"`, "different configuration"},
		{"seed", "seed", "8", "seed"},
		{"cap", "max_trials", "41", "trial cap"},
		{"policy", "policy", `"adaptive rel=0.05"`, "policy"},
		{"resume-point-back", "next_trial", "5", "moves the resume point back"},
		{"waves-stall", "waves", "1", "does not advance the folded-wave count"},
		{"after-done", "", "", "follows a done record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, lines := checkpointLines(t, 2)
			i := 1 // the record to edit
			field, value := tc.field, tc.value
			if field == "" {
				i, field, value = 0, "done", "true"
			}
			var rec map[string]json.RawMessage
			if err := json.Unmarshal(lines[i], &rec); err != nil {
				t.Fatal(err)
			}
			rec[field] = json.RawMessage(value)
			delete(rec, "crc")
			obj, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = bytes.TrimSuffix(sealRecord(obj), []byte("\n"))
			if err := os.WriteFile(path, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			_, ok, err := loadCheckpoint(path, hash, 9, 40, "")
			// The path holds the subtest's name, so the reason is looked
			// for in the rest of the message.
			if err == nil || !strings.Contains(err.Error(), path) ||
				!strings.Contains(strings.ReplaceAll(err.Error(), path, ""), tc.reason) ||
				!strings.Contains(err.Error(), "delete it to start over") {
				t.Fatalf("ok=%v err=%v, want an error naming %s and %q", ok, err, path, tc.reason)
			}
		})
	}
}

// recordingState is a State whose snapshots are large JSON strings, one
// per wave, and which records every state it restores.
type recordingState struct {
	waves    int
	restored []string
}

func (s *recordingState) Snapshot() ([]byte, error) {
	s.waves++
	return json.Marshal(fmt.Sprintf("wave %d %s", s.waves, strings.Repeat("x", 9000)))
}

func (s *recordingState) Restore(data []byte) error {
	var v string
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	s.restored = append(s.restored, v)
	return nil
}

// TestCheckpointRestoresRecordsInOrder pins the two-pass resume on records
// longer than the read buffer, with blank lines between them and a torn
// append after them: the load keeps only the newest record's header, and
// restore hands every whole record's state over oldest first.
func TestCheckpointRestoresRecordsInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	f := &checkpointFile{path: path}
	written := &recordingState{}
	for w := 1; w <= 4; w++ {
		if err := f.append(Checkpoint{Hash: "h", Seed: 3, NextTrial: 5 * w, MaxTrials: 40, Waves: w}, written); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.ReplaceAll(data, []byte("\n"), []byte("\n \n"))
	data = append(data, `{"v":3,"hash":"h","se`...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := loadCheckpoint(path, "h", 3, 40, "")
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.records != 4 || got.NextTrial != 20 || got.Waves != 4 || got.State != nil {
		t.Fatalf("loaded %d records, newest %+v; want 4, resuming at 20 after 4 waves, state left on disk", got.records, got.Checkpoint)
	}
	restored := &recordingState{}
	if err := got.restore(restored); err != nil {
		t.Fatal(err)
	}
	if len(restored.restored) != 4 {
		t.Fatalf("restored %d states, want 4", len(restored.restored))
	}
	for i, v := range restored.restored {
		if want := fmt.Sprintf("wave %d ", i+1); !strings.HasPrefix(v, want) {
			t.Fatalf("state %d restored as %.12q…, want %q…", i+1, v, want)
		}
	}
}

// FuzzFrame drives the frame decoder with arbitrary bytes — the exact
// surface a remote transport exposes to line noise, truncation, and
// garbage. It must never panic, every accepted frame must carry a known
// message type, and an older peer's JSON line must keep the rebuild
// guidance the cmds' error paths point users at.
//
// It also encodes a message of the fuzzed type from the fuzzed fields,
// XORs mask into its frame from byte off on, and decodes the result: the
// decoder must reject it, or decode exactly the message encoded.
func FuzzFrame(f *testing.F) {
	for typ := TypeJob; typ <= TypeError; typ++ {
		for _, v := range []int{0, 1, 3, 127, 128, 1 << 40, -1, math.MinInt, math.MaxInt} {
			f.Add([]byte(`{"x":1}`), byte(typ), v, 16-v, uint(v), []byte{byte(v)})
		}
	}
	for _, s := range []string{
		`{"v":4,"type":"hello","shard":0,"shards":1}` + "\n",
		`{"v":1,"type":"result","trial":3}` + "\n",
		`{"v":5,"type":"result"}` + "\n",
		`{"v":1e999}` + "\n",
		"not a frame\n",
		"\x05\x05\x03\x00{}\x00\x00\x00\x00",
		"\x05\x09\x00\x00\x00\x00\x00",
		"\x05\x05\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",
		"\x05\x05\x81\x80\x80\x20",
		"",
	} {
		f.Add([]byte(s), byte(TypeResult), 0, 0, uint(0), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte, typ byte, a, b int, off uint, mask []byte) {
		dec := newMsgReader(bytes.NewReader(data))
		for {
			m, err := dec.next()
			if err != nil {
				if errors.Is(err, errProtocolVersion) && !strings.Contains(err.Error(), "rebuild") {
					t.Fatalf("version mismatch error %q lost the rebuild guidance", err)
				}
				break // any error ends the stream, matching the reader pump
			}
			if m.Type < TypeJob || m.Type > TypeError {
				t.Fatalf("decoder accepted frame with unknown type %d", m.Type)
			}
		}

		m := fuzzMsg(MsgType(typ%byte(TypeError)+1), data, a, b)
		frame, err := appendMsg(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mask {
			if k := int(off%uint(len(frame))) + i; k < len(frame) {
				frame[k] ^= mask[i]
			}
		}
		dec = newMsgReader(bytes.NewReader(frame))
		got, err := dec.next()
		if err != nil {
			return
		}
		if _, err := dec.next(); err != io.EOF {
			t.Fatalf("frame of %+v decoded, then %v; want io.EOF", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("frame of %+v decoded to %+v", m, got)
		}
	})
}

// fuzzMsg builds a message of type typ from fuzzed fields, with only the
// fields its type sends, spelled as the decoder returns them.
func fuzzMsg(typ MsgType, data []byte, a, b int) Msg {
	m := Msg{Type: typ}
	switch typ {
	case TypeResult:
		m.Trial, m.Data = a, append([]byte{}, data...)
	case TypeWave, TypeWaveDone:
		m.Lo, m.Hi = a, b
		for w := data; len(w) >= 8; w = w[8:] {
			m.Indices = append(m.Indices, int(binary.LittleEndian.Uint64(w)))
		}
	case TypeJob, TypeHello:
		m.Shard, m.Shards, m.Seed, m.Hash = a, b, uint64(a)*3, hex.EncodeToString(data)
		if typ == TypeJob {
			m.Spec = []byte(`{"n":` + strconv.Itoa(b) + `}`)
		}
	case TypeError:
		m.Err = hex.EncodeToString(data)
	}
	return m
}

// TestFrameRejectsOversizeBody pins the decoder's size cap: a header that
// declares a body longer than DefaultMaxFrame is rejected before any of
// the body is read, and one within the cap whose body never arrives
// allocates no more than arrived.
func TestFrameRejectsOversizeBody(t *testing.T) {
	for _, tc := range []struct {
		declared uint64
		want     string
	}{
		{DefaultMaxFrame + 1, "cap"},
		{DefaultMaxFrame, "unexpected EOF"},
	} {
		stream := binary.AppendUvarint([]byte{ProtocolVersion, byte(TypeResult)}, tc.declared)
		stream = append(stream, make([]byte, 3*msgReaderSize)...)
		dec := newMsgReader(bytes.NewReader(stream))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := dec.next()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("declared %d: err %v, want one naming %q", tc.declared, err, tc.want)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<16 {
			t.Fatalf("declared %d: decoder allocated %d bytes for a %d-byte stream", tc.declared, grown, len(stream))
		}
	}
}

// FuzzCheckpoint drives checkpoint parsing with arbitrary bytes: it must
// never panic, and anything it accepts must satisfy the structural
// invariants the coordinator relies on — and round-trip through
// loadCheckpoint identically. It also XORs mask into a 3-record checkpoint
// file from byte off on: the load must fail, or keep a prefix of the
// records that restores their states unchanged (loadFlipped).
func FuzzCheckpoint(f *testing.F) {
	good := validCheckpointBytes(f)
	f.Add(good, uint(0), []byte(nil))
	f.Add(good[:len(good)/2], uint(0), []byte(nil))
	f.Add([]byte(`{"v":2,"hash":"x","max_trials":10,"state":{}}`), uint(0), []byte(nil))
	f.Add([]byte(`{"v":3,"hash":"x","max_trials":10,"state":{}}`), uint(0), []byte(nil))
	f.Add([]byte(`{"v":1,"hash":"x","seed":7,"next_trial":12,"max_trials":40,"waves":3,"state":{"count":12}}`), uint(0), []byte(nil))
	f.Add([]byte(`{"v":2,"next_trial":-1}`), uint(0), []byte(nil))
	f.Add([]byte(`[]`), uint(0), []byte(nil))
	f.Add([]byte(``), uint(0), []byte(nil))
	f.Add([]byte(`{"v":1e999}`), uint(0), []byte(nil))
	f.Add([]byte(nil), uint(7), []byte{0xff})
	f.Add([]byte(nil), uint(1<<20), []byte{0x2a})
	f.Add([]byte(nil), uint(30), []byte{0x01, 0, 0, 0, 0x80})

	path := filepath.Join(f.TempDir(), "run.ckpt")
	st := &foldState{}
	if _, err := Run(Options{Shards: 2, MaxTrials: 40, Wave: 6, Seed: 9, Spec: []byte(`{"job":"echo"}`),
		Launcher: &PipeLauncher{Build: echoBuild}, CheckpointPath: path, MaxWaves: 3}, st.sink, nil, st); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint, mask []byte) {
		loadFlipped(t, t.TempDir(), clean, int(off%uint(len(clean))), mask)

		cp, err := parseCheckpoint(data)
		if err != nil {
			return
		}
		if cp.V != checkpointVersion || cp.MaxTrials < 1 ||
			cp.NextTrial < 0 || cp.NextTrial > cp.MaxTrials ||
			cp.Waves < 0 || len(cp.State) == 0 {
			t.Fatalf("parseCheckpoint accepted inconsistent checkpoint %+v", cp)
		}
		path := filepath.Join(t.TempDir(), "ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := loadCheckpoint(path, cp.Hash, cp.Seed, cp.MaxTrials, cp.Policy)
		if err != nil || !ok {
			t.Fatalf("loadCheckpoint rejected bytes parseCheckpoint accepted: ok=%v err=%v", ok, err)
		}
		if got.NextTrial != cp.NextTrial || got.Done != cp.Done {
			t.Fatalf("loadCheckpoint round trip diverged: %+v vs %+v", got, cp)
		}
	})
}
