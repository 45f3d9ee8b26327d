package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// validCheckpointBytes marshals a well-formed checkpoint for seeding tests.
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
	return data
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
		{"negative-resume", []byte(`{"v":3,"hash":"x","next_trial":-3,"max_trials":10,"state":{}}`)},
		{"resume-past-cap", []byte(`{"v":3,"hash":"x","next_trial":11,"max_trials":10,"state":{}}`)},
		{"zero-cap", []byte(`{"v":3,"hash":"x","max_trials":0,"state":{}}`)},
		{"negative-waves", []byte(`{"v":3,"hash":"x","max_trials":10,"waves":-1,"state":{}}`)},
		{"trials-no-waves", []byte(`{"v":3,"hash":"x","next_trial":4,"max_trials":10,"state":{}}`)},
		{"missing-state", []byte(`{"v":3,"hash":"x","max_trials":10}`)},
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

// FuzzFrame drives the JSONL wire decoder with arbitrary bytes — the exact
// surface a remote transport exposes to line noise, truncation, and
// garbage. It must never panic, every accepted frame must carry the current
// protocol version and a known message type, and a version mismatch must
// keep the rebuild guidance the cmds' error paths point users at.
//
// It also pins the hand-written result codec to encoding/json: every line
// the canonical result parser accepts must unmarshal to a DeepEqual Msg,
// and a result frame for the fuzzed trial number and the compacted input
// (when the input is one JSON value) must equal json.Marshal's bytes.
func FuzzFrame(f *testing.F) {
	marshal := func(m Msg) []byte {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return append(data, '\n')
	}
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeJob, Shard: 0, Shards: 2, Seed: 7, Hash: "h", Spec: []byte(`{}`)}), 0)
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeWave, Lo: 0, Hi: 4, Indices: []int{0, 2}}), 0)
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeResult, Trial: 3, Data: []byte(`{"x":1}`)}), 3)
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeResult, Trial: 0, Data: []byte(`null`)}), 0)
	f.Add(marshal(Msg{V: ProtocolVersion, Type: TypeWaveDone, Lo: 0, Hi: 4, Indices: []int{0, 2}}), 0)
	f.Add(marshal(Msg{V: 1, Type: TypeResult, Trial: 3}), 3)
	f.Add(marshal(Msg{V: 2, Type: TypeWaveDone, Lo: 0, Hi: 4}), 0)
	f.Add([]byte("{\"v\":3}\n{\"v\":3}\n"), 0)
	f.Add([]byte("not json\n"), 0)
	f.Add([]byte("{\"v\":1e999}\n"), 0)
	f.Add([]byte("{}"), 0)
	f.Add([]byte("\n"), 0)
	f.Add([]byte{}, 0)
	// Near misses of the canonical result form, which must fall through to
	// encoding/json: leading zeros, a 19-digit trial that fits an int and
	// one that does not, a negative trial, fields after the payload, a
	// missing newline, whitespace inside the frame, and payloads that
	// json.Marshal would rewrite.
	f.Add([]byte(`{"v":4,"type":"result","trial":007,"data":{}}`+"\n"), 7)
	f.Add([]byte(`{"v":4,"type":"result","trial":00,"data":{}}`+"\n"), 0)
	f.Add([]byte(`{"v":4,"type":"result","trial":9223372036854775807,"data":{}}`+"\n"), math.MaxInt)
	f.Add([]byte(`{"v":4,"type":"result","trial":9223372036854775808,"data":{}}`+"\n"), math.MinInt)
	f.Add([]byte(`{"v":4,"type":"result","trial":-3,"data":{}}`+"\n"), -3)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data":{},"err":"boom"}`+"\n"), 3)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data":{},"v":5}`+"\n"), 3)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data":1},"v":5}`+"\n"), 3)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data":{}}`), 3)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data":{}}`+"\r\n"), 3)
	f.Add([]byte(`{"v":4,"type":"result","trial":3,"data": {"a" : 1} }`+"\n"), 3)
	f.Add([]byte(`{"v": 4, "type": "result", "trial": 3, "data": {}}`+"\n"), 3)
	f.Add([]byte("{\"v\":4,\"type\":\"result\",\"trial\":3,\"data\":\"<a\u2028&>\"}\n"), 3)
	f.Add([]byte("{\"v\":4,\"type\":\"result\",\"trial\":3,\"data\":\"\xff\u00e9\"}\n"), 3)
	f.Fuzz(func(t *testing.T, data []byte, trial int) {
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
			m, ok := parseResultFrame(line)
			if !ok {
				continue
			}
			var want Msg
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("result parser accepted %q, which encoding/json rejects: %v", line, err)
			}
			if !reflect.DeepEqual(m, want) {
				t.Fatalf("result parser decoded %q to %+v, encoding/json to %+v", line, m, want)
			}
		}

		var payload bytes.Buffer
		if json.Compact(&payload, data) != nil {
			return
		}
		m := Msg{Type: TypeResult, Trial: trial, Data: payload.Bytes()}
		got, err := appendMsg(nil, m)
		if err != nil {
			t.Fatalf("encode result frame of %q: %v", payload.Bytes(), err)
		}
		m.V = ProtocolVersion
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("result frame\n got %q\nwant %q", got, want)
		}
	})
}

// FuzzCheckpoint drives checkpoint parsing with arbitrary bytes: it must
// never panic, and anything it accepts must satisfy the structural
// invariants the coordinator relies on — and round-trip through
// loadCheckpoint identically.
func FuzzCheckpoint(f *testing.F) {
	good := validCheckpointBytes(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"v":2,"hash":"x","max_trials":10,"state":{}}`))
	f.Add([]byte(`{"v":1,"hash":"x","seed":7,"next_trial":12,"max_trials":40,"waves":3,"state":{"count":12}}`))
	f.Add([]byte(`{"v":2,"next_trial":-1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"v":1e999}`))
	f.Fuzz(func(t *testing.T, data []byte) {
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
