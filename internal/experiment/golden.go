package experiment

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/conf"
	"repro/internal/core"
)

// The golden-classic corpus pins the classic dynamics' byte-level output
// across the pluggable-dynamics refactor: testdata/golden_classic.json was
// generated by the pre-refactor engine (hard-wired classic k-USD) over two
// configurations × the three kernels × three seeds, each as a plain run and
// as a phase-tracked run. TestGoldenClassicByteIdentity and the K1
// experiment replay every entry through the current engine — classic
// dynamics via the Dynamics interface — and require identical outcomes,
// winners, 128-bit interaction clocks, and phase end times. The corpus is
// embedded so the check runs from any working directory.

//go:embed testdata/golden_classic.json
var goldenClassicJSON []byte

// GoldenRun is one recorded pre-refactor classic run: the cell it ran
// (configuration, kernel, seed, tracked) and the result it recorded, in the
// wire form every cell folds. The corpus records neither InitialLeader nor
// LeaderAtT2, so the replay ignores them.
type GoldenRun struct {
	// Config names the starting configuration (see goldenConfig).
	Config string `json:"config"`
	// Kernel is the kernel family name at default tolerance.
	Kernel string `json:"kernel"`
	// Seed is the cell seed; the run is the cell's trial 0, on the source
	// rng.New(rng.Derive(Seed, 0)).
	Seed uint64 `json:"seed"`
	// Tracked selects the phase-tracked run (ShardSpec.Tracked), whose
	// result also records the phase ends.
	Tracked bool `json:"tracked"`
	// ShardResult is the recorded outcome, winner, 128-bit interaction
	// clock and, for tracked runs, phase ends.
	ShardResult
}

// goldenRecord is a GoldenRun as the corpus spells it. It embeds the
// result's method-free fields: GoldenRun's promoted ShardResult.UnmarshalJSON
// would decode the result fields alone and drop the cell.
type goldenRecord struct {
	Config  string `json:"config"`
	Kernel  string `json:"kernel"`
	Seed    uint64 `json:"seed"`
	Tracked bool   `json:"tracked"`
	shardResultFields
}

// GoldenClassicRuns decodes the embedded pre-refactor corpus.
func GoldenClassicRuns() ([]GoldenRun, error) {
	var recs []goldenRecord
	if err := json.Unmarshal(goldenClassicJSON, &recs); err != nil {
		return nil, fmt.Errorf("experiment: corrupt golden corpus: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("experiment: empty golden corpus")
	}
	runs := make([]GoldenRun, len(recs))
	for i, g := range recs {
		runs[i] = GoldenRun{Config: g.Config, Kernel: g.Kernel, Seed: g.Seed, Tracked: g.Tracked,
			ShardResult: ShardResult(g.shardResultFields)}
	}
	return runs, nil
}

// goldenConfig rebuilds a corpus configuration by name.
func goldenConfig(name string) (*conf.Config, error) {
	switch name {
	case "uniform-n4096-k8":
		return conf.Uniform(4096, 8, 0)
	case "bias256-n2048-k4-u512":
		return conf.WithAdditiveBias(2048, 4, 256, 512)
	default:
		return nil, fmt.Errorf("experiment: unknown golden config %q", name)
	}
}

// ReplayGoldenRun re-runs one corpus entry as trial 0 of a one-trial,
// in-process RunCell of its spec — through the spec codec, the arena and
// SetKernel, the path every cell runs — and returns a non-empty mismatch
// description if any recorded field differs: byte-identity of the classic
// dynamics is the contract, so any difference is a regression, not noise.
func ReplayGoldenRun(g GoldenRun) (string, error) {
	cfg, err := goldenConfig(g.Config)
	if err != nil {
		return "", err
	}
	kern, err := core.ParseKernel(g.Kernel, 0)
	if err != nil {
		return "", err
	}
	spec := NewShardSpec(cfg, core.Variant{}, kern, core.NoBudget, 0, g.Tracked)
	var got ShardResult
	if _, err := RunCell(spec, 1, ShardRunOptions{MaxTrials: 1, Seed: g.Seed},
		func(_ int, r ShardResult) { got = r }, nil); err != nil {
		return "", err
	}
	got.InitialLeader, got.LeaderAtT2 = g.InitialLeader, g.LeaderAtT2
	if gotJSON, want := got.AppendJSON(nil), g.ShardResult.AppendJSON(nil); string(gotJSON) != string(want) {
		return fmt.Sprintf("got %s, recorded %s", gotJSON, want), nil
	}
	return "", nil
}
