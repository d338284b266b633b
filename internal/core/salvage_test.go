package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"falvolt/internal/campaign"
	"falvolt/internal/snn"
	"falvolt/internal/spec"
	"falvolt/internal/tensor"
)

// salvageTestConfig keeps the sharding test fast: non-retraining
// strategies only, one fault model, one rate, two repeats, the shared
// 16x16 harness array.
func salvageTestConfig() spec.SalvageCampaignSpec {
	return spec.SalvageCampaignSpec{
		Models: []string{"stuckat"},
		Mitigations: []spec.MitigationSpec{
			{Kind: "fap"}, {Kind: "respawn"}, {Kind: "softsnn"},
		},
		Rates:   []float64{0.1},
		Repeats: 2,
		Array:   16,
		Epochs:  1,
		Batch:   16,
	}
}

func salvageTestBuild(h *testHarness) func() (YieldDeps, error) {
	return func() (YieldDeps, error) {
		return YieldDeps{
			Model: h.model, Baseline: h.baseline, Arr: h.arr,
			Train: h.train, Test: h.test,
			BuildModel: func() (*snn.Model, error) {
				return snn.Build(h.model.Spec, rand.New(rand.NewSource(1)))
			},
		}, nil
	}
}

func TestSalvageMitLabels(t *testing.T) {
	labels := SalvageMitLabels([]spec.MitigationSpec{
		{Kind: "falvolt"}, {Kind: "respawn"}, {Kind: "falvolt", Epochs: 4},
	})
	if want := []string{"falvolt#0", "respawn", "falvolt#2"}; !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	single := SalvageMitLabels([]spec.MitigationSpec{{Kind: "softsnn"}})
	if !reflect.DeepEqual(single, []string{"softsnn"}) {
		t.Fatalf("single label = %v", single)
	}
}

func TestSalvageTrialsDeterministic(t *testing.T) {
	cfg := salvageTestConfig()
	a := SalvageTrials(cfg, 42)
	b := SalvageTrials(cfg, 42)
	if len(a) != 1*3*1*2 {
		t.Fatalf("trial count = %d, want 6", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SalvageTrials not deterministic")
	}
	for i, tr := range a {
		if tr.ID != i {
			t.Fatalf("trial %d has ID %d (IDs must be dense)", i, tr.ID)
		}
		if tr.Seed != 42+7919*int64(i) {
			t.Fatalf("trial %d seed %d not seed-addressed", i, tr.Seed)
		}
	}
	c := SalvageTrials(cfg, 43)
	if a[0].Seed == c[0].Seed {
		t.Error("different campaign seeds must address different trial seeds")
	}
}

// TestSalvageCampaignShardMergeBitIdentical is the salvage acceptance
// gate, mirroring the yield campaign's: a salvage benchmark split into 2
// checkpointed shards on a parallel engine merges byte-identically to
// the single-process serial run.
func TestSalvageCampaignShardMergeBitIdentical(t *testing.T) {
	h := newHarness(t)
	cfg := salvageTestConfig()
	dir := t.TempDir()

	whole, err := SalvageCampaign(cfg, 42, nil, salvageTestBuild(h))
	if err != nil {
		t.Fatal(err)
	}
	rrWhole, err := campaign.Run(whole, campaign.Options{
		Runner: campaign.PoolRunner{Engine: tensor.Serial()},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.MarshalResults(rrWhole.Results)
	if err != nil {
		t.Fatal(err)
	}

	var paths []string
	for i := 0; i < 2; i++ {
		c, err := SalvageCampaign(cfg, 42, nil, salvageTestBuild(h))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("salvage-shard%d.jsonl", i))
		rr, err := campaign.Run(c, campaign.Options{
			Shard:      campaign.Shard{Index: i, Count: 2},
			Checkpoint: path,
			Runner:     campaign.PoolRunner{Engine: tensor.NewParallel(2)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Complete {
			t.Fatalf("shard %d incomplete", i)
		}
		paths = append(paths, path)
	}
	_, merged, err := campaign.MergeFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := campaign.MarshalResults(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded+merged salvage results differ from single-process run:\n--- merged ---\n%s\n--- single ---\n%s", got, want)
	}

	// Sanity on the metrics themselves: every trial reports the full
	// metric set and salvage never leaves accuracy below the raw floor by
	// more than numerics allow for the bypass/clamp strategies (no hard
	// guarantee — just that recovered is finite and metrics are present).
	for _, r := range rrWhole.Results {
		for _, key := range []string{"raw", "acc", "recovered", "epochs", "pruned", "remapped", "bypassed", "clamped", "mac"} {
			if _, ok := r.Metrics[key]; !ok {
				t.Fatalf("trial %d missing metric %q", r.TrialID, key)
			}
		}
		if r.Metrics["epochs"] != 0 {
			t.Errorf("trial %d: non-retraining strategy spent %v epochs", r.TrialID, r.Metrics["epochs"])
		}
	}
}

// TestSalvageCampaignGolden pins every per-trial metric of a tiny
// salvage grid — each fault model against each mitigation kind — on the
// shared harness, printed with exact float digits. Regenerate with
//
//	go test ./internal/core/ -run SalvageCampaignGolden -update
func TestSalvageCampaignGolden(t *testing.T) {
	h := newHarness(t)
	cfg := spec.SalvageCampaignSpec{
		Models: []string{"stuckat", "bitflip", "transient"},
		Mitigations: []spec.MitigationSpec{
			{Kind: "fap"}, {Kind: "falvolt", Epochs: 1}, {Kind: "respawn"}, {Kind: "rescuesnn"}, {Kind: "softsnn"},
		},
		Rates:   []float64{0.1},
		Repeats: 1,
		Array:   16,
		Epochs:  1,
		Batch:   16,
	}
	c, err := SalvageCampaign(cfg, 42, nil, salvageTestBuild(h))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := campaign.Run(c, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, r := range rr.Results {
		fmt.Fprintf(&got, "%d %s", r.TrialID, r.Key)
		for _, m := range []string{"raw", "acc", "epochs", "pruned", "remapped", "bypassed", "clamped", "mac"} {
			fmt.Fprintf(&got, " %s=%s", m, strconv.FormatFloat(r.Metrics[m], 'g', -1, 64))
		}
		got.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "salvage.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("salvage metrics drifted from golden:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
