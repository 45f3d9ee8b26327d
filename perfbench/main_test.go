package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own shard worker: the sharded
// paths re-execute os.Executable with -shard-worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-shard-worker" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkSchema(t *testing.T) {
	b := loadBenchmark(t)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s name %q is malformed or repeated", kind, name)
		}
		seen[name] = true
	}

	var names []string
	for _, w := range b.Workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, workloadNames())
	}

	e2e := map[string]bool{}
	var maxBound float64
	for i, m := range b.EndToEnd {
		checkName("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit, better or bound", m.Name)
		}
		if i >= len(endToEnd) || endToEnd[i] != (metricDef{m.Name, m.Unit}) {
			t.Errorf("end-to-end %s (%s) does not match perfbench's table entry %d", m.Name, m.Unit, i)
		}
		e2e[m.Name] = true
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s with better lower")
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, perfbench prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}

	if len(b.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, perfbench prints %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		checkName("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer %s: bad unit or better", m.Name)
		}
		if i >= len(layerMetrics) || layerMetrics[i].metricDef != (metricDef{m.Name, m.Unit}) {
			t.Errorf("per-layer %s (%s) does not match perfbench's table entry %d", m.Name, m.Unit, i)
		}
	}
	for _, l := range layerMetrics {
		if !e2e[l.moves] {
			t.Errorf("per-layer %s moves unknown end-to-end metric %q", l.name, l.moves)
		}
		for _, w := range append(slices.Clone(l.movesOn), l.flatOn...) {
			if !slices.Contains(names, w) {
				t.Errorf("per-layer %s names unknown workload %q", l.name, w)
			}
		}
	}
}

// runBench runs perfbench in process and returns its report and output.
func runBench(t *testing.T, args ...string) (report, string) {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the JSON report: %v\n%s", err, out.String())
	}
	return rep, out.String()
}

// checkPrinted fails unless the output names exactly defs in the report
// and prints each as "name value unit".
func checkPrinted(t *testing.T, rep report, out string, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a correct run with no failures", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("report has %d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("report lacks %s in %s", d.name, d.unit)
		}
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + ` \S+ ` + regexp.QuoteMeta(d.unit) + `$`)
		if !line.MatchString(out) {
			t.Errorf("output lacks the line %q", d.name+" <value> "+d.unit)
		}
	}
}

// deterministicCounts are the traced metrics that must repeat exactly for
// a seed.
var deterministicCounts = []string{
	"core.interactions_per_trial",
	"core.exact_events_per_trial",
	"core.windows_per_trial",
	"core.window_events_mean",
	"core.batched_share",
	"dist.waves",
	"dist.checkpoint_bytes",
	"experiment.result_bytes",
}

func TestWorkloadsTiny(t *testing.T) {
	tinyTrials = 2
	defer func() { tinyTrials = 0 }()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep, out := runBench(t, "--workload", name, "--seed", "7", "--seconds", "0.001", "--trace", "0")
			checkPrinted(t, rep, out, endToEnd)

			first, out := runBench(t, "--workload", name, "--seed", "7", "--trace", "1")
			checkPrinted(t, first, out, layerMetricDefs())
			second, _ := runBench(t, "--workload", name, "--seed", "7", "--trace", "1")
			for _, c := range deterministicCounts {
				if first.Metrics[c] != second.Metrics[c] {
					t.Errorf("%s: %v then %v; traced counts must repeat", c, first.Metrics[c].Value, second.Metrics[c].Value)
				}
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "small-n", "--trace", "2"},
		{"--workload", "small-n", "--seconds", "0"},
		{"--no-such-flag"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 || out.Len() != 0 {
			t.Errorf("perfbench %v: exit %d with output %q, want exit 2 and no result", args, code, out.String())
		}
	}
}
