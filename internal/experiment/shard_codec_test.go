package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/phase"
)

// positional is r's wire payload as encoding/json would spell it: the five
// untracked elements, then, for a tracked result, the phase arrays (empty
// rather than null) and LeaderAtT2.
func positional(r ShardResult) []any {
	v := []any{r.InteractionsHi, r.InteractionsLo, r.Winner, r.InitialLeader, r.Outcome}
	if r.tracked() {
		v = append(v, append([]uint64{}, r.PhaseEndsHi...), append([]uint64{}, r.PhaseEndsLo...),
			append([]bool{}, r.PhaseEnded...), r.LeaderAtT2)
	}
	return v
}

// checkAppendJSON fails unless r.AppendJSON writes exactly
// json.Marshal(positional(r)) after whatever dst already held.
func checkAppendJSON(t *testing.T, r ShardResult) {
	t.Helper()
	want, err := json.Marshal(positional(r))
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
// json.Marshal of the positional array: numbers, booleans and strings,
// escapes included, are spelled as encoding/json spells them.
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

// TestShardResultRoundTrip decodes the payload of untracked and tracked
// results at the extremes of every field, for every core.Outcome: the
// payload is valid JSON, and both the method and encoding/json (the path
// a caller decoding with json.Unmarshal takes) return the encoded result,
// whatever the destination held before.
func TestShardResultRoundTrip(t *testing.T) {
	ends := func(v uint64) []uint64 {
		e := make([]uint64, phase.Count)
		for i := range e {
			e[i] = v - uint64(i)
		}
		return e
	}
	var cases []ShardResult
	for o := core.OutcomeConsensus; o <= core.OutcomeDominance; o++ {
		cases = append(cases,
			ShardResult{Winner: -1, Outcome: o.String()},
			ShardResult{InteractionsHi: math.MaxUint64, InteractionsLo: math.MaxUint64,
				Winner: math.MinInt, InitialLeader: math.MaxInt, Outcome: o.String()},
			ShardResult{InteractionsLo: 1, Winner: math.MaxInt, InitialLeader: math.MinInt, Outcome: o.String()},
			ShardResult{InteractionsHi: 3, InteractionsLo: 1 << 63, Winner: 2, InitialLeader: 2, Outcome: o.String(),
				PhaseEndsHi: ends(math.MaxUint64), PhaseEndsLo: ends(99),
				PhaseEnded: []bool{true, true, false, true, false}, LeaderAtT2: -1},
			ShardResult{Winner: math.MinInt, InitialLeader: 1, Outcome: o.String(),
				PhaseEndsHi: ends(4), PhaseEndsLo: ends(math.MaxUint64),
				PhaseEnded: []bool{false, false, false, false, false}, LeaderAtT2: math.MaxInt},
			ShardResult{Winner: 1, Outcome: o.String(), LeaderAtT2: math.MinInt},
		)
	}
	for _, want := range cases {
		data := want.AppendJSON(nil)
		if !json.Valid(data) {
			t.Fatalf("AppendJSON(%+v) = %s, not valid JSON", want, data)
		}
		method, viaJSON := prefilled(), prefilled()
		if err := method.UnmarshalJSON(data); err != nil {
			t.Fatalf("UnmarshalJSON(%s): %v", data, err)
		}
		if err := json.Unmarshal(data, &viaJSON); err != nil {
			t.Fatalf("json.Unmarshal(%s): %v", data, err)
		}
		if !reflect.DeepEqual(method, want) || !reflect.DeepEqual(viaJSON, want) {
			t.Fatalf("decoding %s: method %+v, encoding/json %+v, want %+v", data, method, viaJSON, want)
		}
	}
}

// TestShardResultDecodeAllocFree pins the untracked decode: a payload
// carrying any core.Outcome decodes to exactly the encoded result, phase
// fields cleared, without allocating.
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
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("decoded %s to %+v, want %+v", data, r, want)
		}
	}
}

// FuzzShardResultDecode pins the payload grammar to the encoder: any input
// the decoder accepts is exactly the AppendJSON encoding of the result it
// decodes to, and valid JSON that encoding/json decodes to the same value;
// any input it rejects leaves the destination untouched. The same holds
// for the checkpoint record form, an array of payloads.
func FuzzShardResultDecode(f *testing.F) {
	for _, s := range []string{
		`[0,1,-1,0,"budget-exhausted"]`,
		`[18446744073709551615,0,-9223372036854775808,9223372036854775807,"consensus"]`,
		`[0,1,2,3,"all-undecided"]`,
		`[5,6,-1,0,"frozen"]`,
		`[0,9,1,1,"dominance"]`,
		`[1,12345,2,2,"consensus",[0,1,2,3,4],[1000,1001,1002,1003,1004],[true,true,false,true,false],-1]`,
		`[0,0,1,1,"consensus",[],[],[],5]`,
		`[0,0,1,1,"consensus",[],[],[],0]`,
		`[0,0,1,1,"consensus",[1],[],[false],0]`,
		`{"interactions_hi":0,"interactions_lo":1,"winner":-1,"initial_leader":0,"outcome":"budget-exhausted"}`,
		`[18446744073709551616,0,0,0,"consensus"]`,
		`[0,0,9223372036854775808,0,"consensus"]`,
		`[01,-0,0,0,"consensus"]`,
		`[0,1.0,0,0,"consensus"]`,
		`[0, 1,-1,0,"frozen"]`,
		`[0,1,-1,0,"x"]`,
		`[0,1,-1,0,"frozen\u0022"]`,
		`[0,1,-1,0,"frozen"] `,
		`[0,1,-1,0,"frozen"`,
		`[[0,1,-1,0,"frozen"],[2,3,1,1,"consensus"]]`,
		`[[0,1,-1,0,"frozen"],]`,
		`null`, `[]`, `"s"`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := prefilled()
		if err := r.UnmarshalJSON(data); err != nil {
			if !reflect.DeepEqual(r, prefilled()) {
				t.Fatalf("rejecting %q (%v) changed the destination to %+v", data, err, r)
			}
		} else {
			if enc := r.AppendJSON(nil); !bytes.Equal(enc, data) {
				t.Fatalf("accepted %q, which decodes to %+v, whose encoding is %q", data, r, enc)
			}
			viaJSON := prefilled()
			if err := json.Unmarshal(data, &viaJSON); err != nil || !reflect.DeepEqual(viaJSON, r) {
				t.Fatalf("accepted %q as %+v; encoding/json gives %+v, %v", data, r, viaJSON, err)
			}
		}

		rs, rest, ok := cutArray(data, cutShardResultValue)
		if !ok || len(rest) != 0 {
			return
		}
		enc := []byte{'['}
		for i, r := range rs {
			if i > 0 {
				enc = append(enc, ',')
			}
			enc = r.AppendJSON(enc)
		}
		if enc = append(enc, ']'); !bytes.Equal(enc, data) {
			t.Fatalf("accepted the record %q, whose results encode as %q", data, enc)
		}
	})
}

// TestDecodeShardSpecRejectsOldKinds pins that a job spec of an older
// kind fails by name, telling the user to run matching binaries, rather
// than being misread.
func TestDecodeShardSpecRejectsOldKinds(t *testing.T) {
	for _, kind := range []string{"usd-trial/v2", "usd-trial/v3"} {
		spec := []byte(`{"kind":"` + kind + `","support":[10,10],"undecided":0,"kernel":"exact","tol":0}`)
		_, _, _, _, err := decodeShardSpec(spec)
		if err == nil || !strings.Contains(err.Error(), kind) || !strings.Contains(err.Error(), "matching binaries") {
			t.Fatalf("kind %s: err = %v, want one naming the kind and asking for matching binaries", kind, err)
		}
	}
}
