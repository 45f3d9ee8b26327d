package experiment

import (
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/u128"
)

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("Title:", "a", "bbbb", "c")
	tbl.AddRow("1", "2", "3")
	tbl.AddRowf(10, 2.5, "x")
	out := tbl.String()
	if !strings.Contains(out, "Title:") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "bbbb") {
		t.Fatalf("missing header:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("1")
	tbl.AddRow("1", "2", "3")
	out := tbl.String()
	if !strings.Contains(out, "3") {
		t.Fatalf("extra cell dropped:\n%s", out)
	}
}

func TestStreamOrderAndDeterminism(t *testing.T) {
	fn := func(i int, src *rng.Source, _ *Arena) uint64 {
		return uint64(i)*1e9 + src.Uint64()%1e9
	}
	a := streamSlice(50, 8, 7, fn)
	b := streamSlice(50, 2, 7, fn) // different parallelism, same seed
	for i := range a {
		if a[i]/1e9 != uint64(i) {
			t.Fatalf("output %d out of order", i)
		}
		if a[i] != b[i] {
			t.Fatalf("parallelism changed trial %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := streamSlice(50, 8, 8, fn)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/50 identical trials", same)
	}
}

func TestRunTracked(t *testing.T) {
	cfg, err := conf.Uniform(1000, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTracked(nil, cfg, rng.New(5), core.NoBudget, 0, core.KernelExact)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Outcome != core.OutcomeConsensus {
		t.Fatalf("outcome %v", r.Result.Outcome)
	}
	for p := 1; p <= 5; p++ {
		if !r.Phases.Reached(p) {
			t.Fatalf("phase %d missing: %+v", p, r.Phases)
		}
	}
	if r.Phases.End[4] != r.Result.Interactions {
		t.Fatalf("T5 = %v, consensus at %v", r.Phases.End[4], r.Result.Interactions)
	}
	if r.InitialLeader != 0 {
		t.Fatalf("initial leader = %d", r.InitialLeader)
	}
}

func TestConsensusTimeBudgetError(t *testing.T) {
	cfg, err := conf.Uniform(10000, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := consensusTime(new(Arena), cfg, rng.New(1), u128.From64(10), core.KernelExact); err == nil {
		t.Fatal("budget exhaustion not reported")
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 26 {
		t.Fatalf("registry has %d experiments, want 26", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Artifact == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	wantIDs := []string{
		"T1-phases", "T2-multiplicative", "T3-additive", "T4-nobias",
		"T5-baselines", "T6-phase1-preservation",
		"F1-undecided", "F2-gap-growth", "F3-majority-threshold",
		"F4-model-compare", "F5-k-scaling", "F6-endgame-coupling", "F7-fluid-limit",
		"A1-skip", "A2-agent-vs-aggregate", "A3-self-interaction",
		"X1-synchronized", "X2-large-k", "X3-exact-validation",
		"X4-scheduler-robustness", "X5-undecided-start",
		"K1-kernel-agreement", "K2-n-scaling", "K3-many-opinions",
		"K4-lower-bound", "K5-variants",
	}
	for _, id := range wantIDs {
		if _, ok := Find(id); !ok {
			t.Fatalf("experiment %s not found", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("bogus id found")
	}
}

// tinyParams makes every experiment run at its smallest size.
func tinyParams() Params {
	return Params{Quick: true, Seed: 1, Trials: 2}
}

func TestExperimentsSmokeFast(t *testing.T) {
	// The cheapest experiments run even in -short mode.
	for _, id := range []string{"A2-agent-vs-aggregate", "A3-self-interaction", "F6-endgame-coupling"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		var sb strings.Builder
		if err := e.Run(tinyParams(), &sb); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(sb.String(), "-----") {
			t.Fatalf("%s produced no table:\n%s", id, sb.String())
		}
	}
}

func TestExperimentsSmokeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment smoke test skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var sb strings.Builder
			if err := e.Run(tinyParams(), &sb); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.ID, err, sb.String())
			}
			if len(sb.String()) < 50 {
				t.Fatalf("%s produced almost no output: %q", e.ID, sb.String())
			}
		})
	}
}

func TestParamsAdaptiveHelpers(t *testing.T) {
	if got := (Params{}).relWidth(); got != DefaultRelWidth {
		t.Fatalf("default relWidth = %v", got)
	}
	if got := (Params{RelWidth: 0.02}).relWidth(); got != 0.02 {
		t.Fatalf("override relWidth = %v", got)
	}
	if got := (Params{}).maxTrials(24); got != 24 {
		t.Fatalf("default maxTrials = %d", got)
	}
	if got := (Params{Quick: true}).maxTrials(24); got != 12 {
		t.Fatalf("quick maxTrials = %d", got)
	}
	if got := (Params{MaxTrials: 7}).maxTrials(24); got != 7 {
		t.Fatalf("MaxTrials override = %d", got)
	}
	if got := (Params{Trials: 2, MaxTrials: 7}).maxTrials(24); got != 2 {
		t.Fatalf("Trials override = %d", got)
	}
	// The consensus rule respects the minimum-trial guard, clamped to the cap.
	var o stats.Online
	o.Add(100)
	o.Add(100)
	if (Params{}).consensusRule(24).Stop(&o) {
		t.Fatal("rule fired below MinAdaptiveTrials")
	}
	if !(Params{}).consensusRule(2).Stop(&o) {
		t.Fatal("rule must clamp the minimum to a tiny cap")
	}
}

func TestParamsTrials(t *testing.T) {
	if got := (Params{}).trials(20); got != 20 {
		t.Fatalf("default trials = %d", got)
	}
	if got := (Params{Quick: true}).trials(20); got != 10 {
		t.Fatalf("quick trials = %d", got)
	}
	if got := (Params{Quick: true}).trials(8); got != 8 {
		t.Fatalf("quick small trials = %d", got)
	}
	if got := (Params{Trials: 3}).trials(20); got != 3 {
		t.Fatalf("override trials = %d", got)
	}
}
