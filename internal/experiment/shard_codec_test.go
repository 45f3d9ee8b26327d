package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

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
