package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
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
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.reason) ||
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

// FuzzFrame drives the JSONL wire decoder with arbitrary bytes — the exact
// surface a remote transport exposes to line noise, truncation, and
// garbage. It must never panic, every accepted frame must carry the current
// protocol version and a known message type, and a version mismatch must
// keep the rebuild guidance the cmds' error paths point users at.
//
// It also pins the hand-written codecs to encoding/json in both
// directions: every line the canonical result or wave/wavedone parser
// accepts must unmarshal to a DeepEqual Msg; a result frame for the fuzzed
// trial number and the compacted input (when the input is one JSON value)
// must equal json.Marshal's bytes; and so must a wave and a wavedone frame
// for the fuzzed lo and hi and indices read from the input's 8-byte words,
// which the wave parser must then decode back to the same Msg.
func FuzzFrame(f *testing.F) {
	marshal := func(m Msg) []byte {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return append(data, '\n')
	}
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeJob, Shard: 0, Shards: 2, Seed: 7, Hash: "h", Spec: []byte(`{}`)}), 0, 0, 0)
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeWave, Lo: 0, Hi: 4, Indices: []int{0, 2}}), 0, 0, 4)
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeResult, Trial: 3, Data: []byte(`{"x":1}`)}), 3, 0, 0)
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeResult, Trial: 0, Data: []byte(`null`)}), 0, 0, 0)
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeWaveDone, Lo: 0, Hi: 4, Indices: []int{0, 2}}), 0, 16, 32)
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeWave, Lo: -5, Hi: math.MaxInt, Indices: []int{math.MinInt, -1, 0}}), 1, -5, math.MaxInt)
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeWaveDone}), 1, math.MinInt, 0)
	f.Add(marshal(Msg{V: 1, Type: TypeResult, Trial: 3}), 3, 0, 0)
	f.Add(marshal(Msg{V: 2, Type: TypeWaveDone, Lo: 0, Hi: 4}), 0, 0, 4)
	f.Add([]byte("{\"v\":3}\n{\"v\":3}\n"), 0, 0, 0)
	f.Add([]byte("not json\n"), 0, 0, 0)
	f.Add([]byte("{\"v\":1e999}\n"), 0, 0, 0)
	f.Add([]byte("{}"), 0, 0, 0)
	f.Add([]byte("\n"), 0, 0, 0)
	f.Add([]byte{}, 0, 0, 0)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 0, 0, -1)
	// Near misses of the canonical result form, which must fall through to
	// encoding/json: leading zeros, a trial that does not fit an int, -0,
	// fields after the payload, a missing newline, whitespace inside the
	// frame, and payloads that json.Marshal would rewrite. The largest int
	// and a negative trial are canonical.
	f.Add([]byte(`{"v":4,"type":"result","trial":007,"data":{}}`+"\n"), 7, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":00,"data":{}}`+"\n"), 0, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":9223372036854775807,"data":{}}`+"\n"), math.MaxInt, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":9223372036854775808,"data":{}}`+"\n"), math.MinInt, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":-3,"data":{}}`+"\n"), -3, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":-0,"data":{}}`+"\n"), 0, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data":{},"err":"boom"}`+"\n"), 3, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data":{},"v":5}`+"\n"), 3, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data":1},"v":5}`+"\n"), 3, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data":{}}`), 3, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data":{}}`+"\r\n"), 3, 0, 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data": {"a" : 1} }`+"\n"), 3, 0, 0)
	f.Add([]byte(`{"v": 4, "type": "result", "trial": 3, "data": {}}`+"\n"), 3, 0, 0)
	f.Add([]byte("{\"v\":4,\"type\":\"result\",\"trial\":3,\"data\":\"<a\u2028&>\"}\n"), 3, 0, 0)
	f.Add([]byte("{\"v\":4,\"type\":\"result\",\"trial\":3,\"data\":\"\xff\u00e9\"}\n"), 3, 0, 0)
	// Near misses of the canonical wave and wavedone forms: leading zeros,
	// explicit zero lo, hi and indices members, -0, an index past an int,
	// whitespace, members out of order, trailing fields, a non-zero trial,
	// an unknown type and a missing newline. -1 and math.MinInt are
	// canonical.
	f.Add([]byte(`{"v":4,"type":"wave","lo":016,"hi":32,"indices":[16],"trial":0}`+"\n"), 0, 16, 32)
	f.Add([]byte(`{"v":4,"type":"wave","lo":0,"hi":32,"indices":[16],"trial":0}`+"\n"), 0, 0, 32)
	f.Add([]byte(`{"v":4,"type":"wave","hi":0,"trial":0}`+"\n"), 0, 0, 0)
	f.Add([]byte(`{"v":4,"type":"wave","hi":4,"indices":[],"trial":0}`+"\n"), 0, 0, 4)
	f.Add([]byte(`{"v":4,"type":"wave","lo":-1,"hi":4,"indices":[-1,03],"trial":0}`+"\n"), 0, -1, 4)
	f.Add([]byte(`{"v":4,"type":"wave","lo":-1,"hi":4,"indices":[-1,3],"trial":0}`+"\n"), 0, -1, 4)
	f.Add([]byte(`{"v":4,"type":"wavedone","lo":-0,"hi":4,"trial":0}`+"\n"), 0, 0, 4)
	f.Add([]byte(`{"v":4,"type":"wavedone","indices":[-9223372036854775808,9223372036854775808],"trial":0}`+"\n"), 0, 0, 0)
	f.Add([]byte(`{"v":4,"type":"wavedone","indices":[-9223372036854775808],"trial":0}`+"\n"), 0, 0, 0)
	f.Add([]byte(`{"v":4,"type":"wave","lo":16,"hi":32,"indices":[16, 18],"trial":0}`+"\n"), 0, 16, 32)
	f.Add([]byte(`{"v":4,"type":"wave","hi":32,"lo":16,"trial":0}`+"\n"), 0, 16, 32)
	f.Add([]byte(`{"v":4,"type":"wave","lo":16,"hi":32,"indices":[16,],"trial":0}`+"\n"), 0, 16, 32)
	f.Add([]byte(`{"v":4,"type":"wave","lo":16,"hi":32,"trial":0,"err":"x"}`+"\n"), 0, 16, 32)
	f.Add([]byte(`{"v":4,"type":"wave","lo":16,"hi":32,"trial":0,"lo":17}`+"\n"), 0, 16, 32)
	f.Add([]byte(`{"v":4,"type":"wave","lo":16,"hi":32,"trial":1}`+"\n"), 0, 16, 32)
	f.Add([]byte(`{"v":4,"type":"waved","lo":16,"hi":32,"trial":0}`+"\n"), 0, 16, 32)
	f.Add([]byte(`{"v":4,"type":"wavedone","lo":16,"hi":32,"trial":0}`), 0, 16, 32)
	f.Add([]byte(`{"v":4,"type":"wavedone","lo":16,"hi":32,"trial":0}`+"\r\n"), 0, 16, 32)
	f.Fuzz(func(t *testing.T, data []byte, trial, lo, hi int) {
		dec := newMsgReader(bytes.NewReader(data))
		for {
			m, err := dec.next()
			if err != nil {
				if errors.Is(err, errProtocolVersion) && !strings.Contains(err.Error(), "rebuild") {
					t.Fatalf("version mismatch error %q lost the rebuild guidance", err)
				}
				break // any error ends the stream, matching the reader pump
			}
			if m.V != ProtocolVersion {
				t.Fatalf("decoder accepted frame with version %d", m.V)
			}
			switch m.Type {
			case TypeJob, TypeWave, TypeHalt, TypeHello, TypeResult, TypeWaveDone, TypeError:
			default:
				t.Fatalf("decoder accepted frame with unknown type %q", m.Type)
			}
		}

		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			for name, parse := range map[string]func([]byte) (Msg, bool){"result": parseResultFrame, "wave": parseRangeFrame} {
				m, ok := parse(line)
				if !ok {
					continue
				}
				var want Msg
				if err := json.Unmarshal(line, &want); err != nil {
					t.Fatalf("%s parser accepted %q, which encoding/json rejects: %v", name, line, err)
				}
				if !reflect.DeepEqual(m, want) {
					t.Fatalf("%s parser decoded %q to %+v, encoding/json to %+v", name, line, m, want)
				}
			}
		}

		var indices []int
		for w := data; len(w) >= 8; w = w[8:] {
			indices = append(indices, int(binary.LittleEndian.Uint64(w)))
		}
		for _, typ := range []string{TypeWave, TypeWaveDone} {
			m := Msg{V: ProtocolVersion, Type: typ, Lo: lo, Hi: hi, Indices: indices}
			got := encodeLike(t, m)
			back, ok := parseRangeFrame(got)
			if !ok || !reflect.DeepEqual(back, m) {
				t.Fatalf("wave parser decoded %q to %+v (ok %v), want %+v", got, back, ok, m)
			}
		}

		var payload bytes.Buffer
		if json.Compact(&payload, data) != nil {
			return
		}
		encodeLike(t, Msg{V: ProtocolVersion, Type: TypeResult, Trial: trial, Data: payload.Bytes()})
	})
}

// encodeLike returns m's protocol line from appendMsg, failing t unless it
// equals json.Marshal's bytes and a newline.
func encodeLike(t *testing.T, m Msg) []byte {
	t.Helper()
	got, err := appendMsg(nil, m)
	if err != nil {
		t.Fatalf("encode %s frame %+v: %v", m.Type, m, err)
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("%s frame\n got %q\nwant %q", m.Type, got, want)
	}
	return got
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

// FuzzValidJSON pins validJSON to json.Valid on arbitrary bytes: the
// payload check on both ends of the wire and the checkpoint loader's torn
// record test must accept exactly what encoding/json accepts.
func FuzzValidJSON(f *testing.F) {
	// 64 and 65 straddle a word of validJSON's container stack, 10000 and
	// 10001 the nesting limit.
	for _, depth := range []int{64, 65, maxNestingDepth, maxNestingDepth + 1} {
		objects := strings.Repeat(`{"a":`, depth)
		f.Add([]byte(strings.Repeat("[", depth) + strings.Repeat("]", depth)))
		f.Add([]byte(objects)) // unclosed
		f.Add([]byte(objects + "1" + strings.Repeat("}", depth)))
		f.Add([]byte(strings.Repeat(`[{"k":`, depth/2) + "0" + strings.Repeat("}]", depth/2)))
	}
	for _, s := range []string{
		``, ` `, `null`, `true`, `false`, `nul`, `truex`, ` {} `, "\t[ ]\r\n", `[1,]`, `{"a":1,}`, `{"a"}`, `{1:2}`,
		`"\"\\\/\b\f\n\r\té\uD83D"`, `"\x"`, `"\u12G4"`, `"\u123"`, "\"a\x1fb\"", "\"\xff\xfe\"", `"abc`,
		`0`, `-0`, `01`, `-`, `1.`, `.5`, `1.5e+10`, `1E-3`, `1e`, `-1.0e5`, `123456789012345678901234567890`,
		`{"interactions_hi":0,"interactions_lo":1,"winner":-1,"initial_leader":17,"outcome":"budget-exhausted"}`,
		`[1 2]`, `{"a":1 "b":2}`, `1 2`, `[[[]]]`, `[[[]]`, `]`, `}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := validJSON(data), json.Valid(data); got != want {
			t.Fatalf("validJSON(%.200q) = %v, json.Valid = %v", data, got, want)
		}
	})
}

// FuzzVerbatimJSON pins verbatimJSON to json.Marshal on arbitrary bytes: it
// reports true exactly when json.Marshal copies the bytes, as a
// json.RawMessage, unchanged. When it does, the worker's hand-built result
// frame must be json.Marshal's line byte for byte.
func FuzzVerbatimJSON(f *testing.F) {
	for _, s := range []string{
		``, ` `, `null`, ` null`, `null `, `{}`, `{ }`, `[1, 2]`, `{"a":1,"b":[true,false,null]}`, `{"a" :1}`,
		`"a b"`, "\"a\tb\"", `"<"`, `">"`, `"&"`, `"\u003c"`, "\"\u2028\"", "\"\u2029\"", "\"\u202a\"", "\"\u2027\"",
		"\"\xe2\"", "\"\xe2\x80\"", "\"\xe2\x80\xa8", "\"\xe2\x82\xac\"", "\"\xff\"", `"\"<\""`, `1e5`, `-0.5`, `01`,
		`{"interactions_hi":0,"interactions_lo":1,"winner":-1,"initial_leader":17,"outcome":"budget-exhausted"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := json.Marshal(json.RawMessage(data))
		want := err == nil && bytes.Equal(out, data)
		if got := verbatimJSON(data); got != want {
			t.Fatalf("verbatimJSON(%.200q) = %v; json.Marshal copies it unchanged: %v", data, got, want)
		}
		if want {
			encodeLike(t, Msg{V: ProtocolVersion, Type: TypeResult, Trial: len(data), Data: data})
		}
	})
}
