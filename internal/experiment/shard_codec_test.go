package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/phase"
)

// checkAppendJSON fails unless r.AppendJSON writes exactly json.Marshal(r)
// after whatever dst already held.
func checkAppendJSON(t *testing.T, r ShardResult) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got := r.AppendJSON(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendJSON clobbered dst: %q", got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON(%+v)\n got %s\nwant %s", r, got, want)
	}
}

// TestShardResultAppendJSON pins the hand-written encoder byte for byte to
// json.Marshal: the wire form of a trial result must not change with the
// encoder that writes it.
func TestShardResultAppendJSON(t *testing.T) {
	ends := func(v uint64) []uint64 {
		e := make([]uint64, phase.Count)
		for i := range e {
			e[i] = v + uint64(i)
		}
		return e
	}
	tracked := ShardResult{
		InteractionsHi: 1, InteractionsLo: 12345, Winner: 2, InitialLeader: 2,
		Outcome:     "consensus",
		PhaseEndsHi: ends(0), PhaseEndsLo: ends(1000),
		PhaseEnded: []bool{true, true, false, true, false},
	}
	cases := []struct {
		name string
		r    ShardResult
	}{
		{"zero", ShardResult{}},
		{"untracked", ShardResult{InteractionsLo: 987654321, Winner: 3, InitialLeader: 1, Outcome: "consensus"}},
		{"no-winner", ShardResult{InteractionsLo: 1, Winner: -1, InitialLeader: 31, Outcome: "budget"}},
		{"max-clock", ShardResult{InteractionsHi: math.MaxUint64, InteractionsLo: math.MaxUint64, Winner: -1, Outcome: "budget"}},
		{"tracked-leader-0", tracked},
		{"tracked-leader-none", func() ShardResult { r := tracked; r.LeaderAtT2 = -1; return r }()},
		{"tracked-leader-5", func() ShardResult { r := tracked; r.LeaderAtT2 = 5; return r }()},
		{"tracked-max-ends", func() ShardResult {
			r := tracked
			r.PhaseEndsHi, r.PhaseEndsLo = ends(math.MaxUint64-8), ends(math.MaxUint64-8)
			return r
		}()},
		{"empty-phase-slices", ShardResult{Outcome: "consensus", PhaseEndsHi: []uint64{}, PhaseEndsLo: []uint64{}, PhaseEnded: []bool{}}},
		{"quote", ShardResult{Winner: -1, Outcome: `config "k" rejected`}},
		{"backslash", ShardResult{Winner: -1, Outcome: `path C:\tmp\x`}},
		{"html", ShardResult{Winner: -1, Outcome: "n <= 0 && k > 1"}},
		{"lt", ShardResult{Winner: -1, Outcome: "a<b"}},
		{"gt", ShardResult{Winner: -1, Outcome: "a>b"}},
		{"amp", ShardResult{Winner: -1, Outcome: "a&b"}},
		{"control", ShardResult{Winner: -1, Outcome: "a\x00b\x1fc\td\ne\rf"}},
		{"del", ShardResult{Winner: -1, Outcome: "a\x7fb"}},
		{"line-separator", ShardResult{Winner: -1, Outcome: "a\u2028b\u2029c"}},
		{"invalid-utf8", ShardResult{Winner: -1, Outcome: "a\xffb\xc3"}},
		{"non-ascii", ShardResult{Winner: -1, Outcome: "ε = 0.25 → k = 128"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAppendJSON(t, tc.r)
		})
	}
}

// FuzzShardResultAppendJSON extends the pin to arbitrary clock words,
// opinions, phase arrays and Outcome strings.
func FuzzShardResultAppendJSON(f *testing.F) {
	f.Add(uint64(0), uint64(1), -1, 0, "budget", uint8(0), 0)
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), 31, 31, "consensus", uint8(0x1f), 5)
	f.Add(uint64(7), uint64(8), 2, 2, "consensus", uint8(0x0b), -1)
	f.Add(uint64(0), uint64(0), -1, 0, "<\"\\&>\x00\u2028\xff", uint8(0x80), 0)
	f.Fuzz(func(t *testing.T, hi, lo uint64, winner, leader int, outcome string, phases uint8, leaderAtT2 int) {
		r := ShardResult{
			InteractionsHi: hi, InteractionsLo: lo,
			Winner: winner, InitialLeader: leader, Outcome: outcome,
			LeaderAtT2: leaderAtT2,
		}
		// The low bits of phases set the ended flags; the top bit says
		// whether the run was tracked at all.
		if phases&0x80 != 0 {
			for i := 0; i < phase.Count; i++ {
				r.PhaseEndsHi = append(r.PhaseEndsHi, hi>>i)
				r.PhaseEndsLo = append(r.PhaseEndsLo, lo^uint64(i))
				r.PhaseEnded = append(r.PhaseEnded, phases&(1<<i) != 0)
			}
		}
		checkAppendJSON(t, r)
	})
}

// prefilled is a tracked result with every field set, fresh each call, so
// a decode that leaves a field alone shows.
func prefilled() ShardResult {
	return ShardResult{
		InteractionsHi: 7, InteractionsLo: 8, Winner: 3, InitialLeader: 4, Outcome: "frozen",
		PhaseEndsHi: []uint64{1, 2}, PhaseEndsLo: []uint64{3, 4}, PhaseEnded: []bool{true, false},
		LeaderAtT2: 5,
	}
}

// TestShardResultDecodeAllocFree pins the canonical decode: a payload in
// AppendJSON's untracked form carrying any core.Outcome decodes to the
// encoded result without allocating, and leaves the phase fields it does
// not carry alone.
func TestShardResultDecodeAllocFree(t *testing.T) {
	for o := core.OutcomeConsensus; o <= core.OutcomeDominance; o++ {
		want := ShardResult{InteractionsHi: 1, InteractionsLo: math.MaxUint64, Winner: -1, InitialLeader: 31, Outcome: o.String()}
		data := want.AppendJSON(nil)
		r := prefilled()
		var err error
		if avg := testing.AllocsPerRun(100, func() { err = r.UnmarshalJSON(data) }); avg != 0 {
			t.Errorf("decoding %s allocates %v objects, want 0", data, avg)
		}
		if err != nil {
			t.Fatal(err)
		}
		p := prefilled()
		want.PhaseEndsHi, want.PhaseEndsLo, want.PhaseEnded, want.LeaderAtT2 = p.PhaseEndsHi, p.PhaseEndsLo, p.PhaseEnded, p.LeaderAtT2
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("decoded %s to %+v, want %+v", data, r, want)
		}
	}
}

// FuzzShardResultDecode pins the decoder to encoding/json's reflective
// one: arbitrary bytes decoded into the same pre-filled result through the
// method, called directly and by encoding/json, and through the method-free
// type must give DeepEqual values and agree on failing. AppendJSON output
// for the fuzzed fields must decode back to them.
func FuzzShardResultDecode(f *testing.F) {
	f.Add([]byte(`{"interactions_hi":0,"interactions_lo":1,"winner":-1,"initial_leader":17,"outcome":"budget-exhausted"}`),
		uint64(0), uint64(1), -1, 17, "budget-exhausted", false)
	f.Add([]byte(`{"interactions_hi":18446744073709551615,"interactions_lo":0,"winner":-9223372036854775808,"initial_leader":0,"outcome":"<&>"}`),
		uint64(math.MaxUint64), uint64(0), math.MinInt, 0, "<&>", true)
	f.Add([]byte(`{"interactions_hi":18446744073709551616,"interactions_lo":0,"winner":0,"initial_leader":0,"outcome":"x"}`),
		uint64(1), uint64(2), 3, 4, "consensus", true)
	f.Add([]byte(`{"interactions_hi":01,"interactions_lo":-0,"winner":-0,"initial_leader":1.0,"outcome":"a\"b"}`),
		uint64(0), uint64(0), 0, 0, "a\"b\u2028", false)
	f.Add([]byte(`{"interactions_lo":5,"interactions_hi":4,"winner":1,"initial_leader":1,"outcome":"consensus","phase_ended":[true]}`),
		uint64(0), uint64(0), 0, 0, "", false)
	f.Add([]byte(`{"winner":"x","interactions_lo":5}`), uint64(0), uint64(0), 0, 0, "\xff", false)
	for _, s := range []string{` {"winner":1} `, `null`, `[]`, `[1,2]`, `"s"`, `7`, `{"OUTCOME":"frozen"}`, `{`, ``} {
		f.Add([]byte(s), uint64(0), uint64(0), 0, 0, "", false)
	}
	f.Fuzz(func(t *testing.T, data []byte, hi, lo uint64, winner, leader int, outcome string, tracked bool) {
		method, viaJSON, fields := prefilled(), prefilled(), prefilled()
		errMethod := method.UnmarshalJSON(data)
		errViaJSON := json.Unmarshal(data, &viaJSON)
		errFields := json.Unmarshal(data, (*shardResultFields)(&fields))
		if (errMethod == nil) != (errFields == nil) || (errViaJSON == nil) != (errFields == nil) {
			t.Fatalf("decoding %q: method error %v, via encoding/json %v, reflective %v", data, errMethod, errViaJSON, errFields)
		}
		if !reflect.DeepEqual(method, fields) || !reflect.DeepEqual(viaJSON, fields) {
			t.Fatalf("decoding %q: method %+v, via encoding/json %+v, reflective %+v", data, method, viaJSON, fields)
		}

		want := ShardResult{InteractionsHi: hi, InteractionsLo: lo, Winner: winner, InitialLeader: leader, Outcome: outcome}
		if tracked {
			for i := 0; i < phase.Count; i++ {
				want.PhaseEndsHi = append(want.PhaseEndsHi, hi>>i)
				want.PhaseEndsLo = append(want.PhaseEndsLo, lo^uint64(i))
				want.PhaseEnded = append(want.PhaseEnded, i%2 == 0)
			}
			want.LeaderAtT2 = winner
		}
		enc := want.AppendJSON(nil)
		var got, ref ShardResult
		if err := got.UnmarshalJSON(enc); err != nil {
			t.Fatalf("decoding AppendJSON output %s: %v", enc, err)
		}
		if err := json.Unmarshal(enc, (*shardResultFields)(&ref)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("AppendJSON output %s decoded to %+v, reflective %+v", enc, got, ref)
		}
		// json.Marshal replaces invalid UTF-8, so only valid strings
		// come back unchanged.
		if utf8.ValidString(outcome) && !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendJSON output %s decoded to %+v, want %+v", enc, got, want)
		}
	})
}
