package spec_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"falvolt/internal/campaign"
	"falvolt/internal/spec"

	// Register every campaign kind, exactly as the cmd tools do.
	_ "falvolt/internal/core"
	_ "falvolt/internal/experiments"
)

// Golden-file tests for the spec JSON schema: spec files are the
// durable, hand-editable description of a run (checked into CI scripts,
// submitted to coordinators), so schema drift must break CI instead of
// them. Regenerate with
//
//	go test ./internal/spec/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// representative returns one fully populated example spec per kind —
// the shape the cmd tools compile from their default-ish flags.
func representative() map[string]*spec.Spec {
	suite := func(kind string) *spec.Spec {
		return &spec.Spec{
			Version: spec.Version, Kind: kind, Seed: 7,
			Suite: &spec.SuiteSpec{
				Quick: true, Array: 64, Epochs: 6, Repeats: 3, Eval: 64,
				Training: &spec.TrainSpec{Replicas: 2, MicroBatch: 8},
			},
		}
	}
	out := map[string]*spec.Spec{
		"fig2": suite("fig2"), "fig5a": suite("fig5a"), "fig5b": suite("fig5b"),
		"fig5c": suite("fig5c"), "mitigation": suite("mitigation"), "ablations": suite("ablations"),
		"yield": {
			Version: spec.Version, Kind: "yield", Seed: 7,
			Yield: &spec.YieldSpec{
				Chips: 12, MeanFaulty: 60, Alpha: 1.0, Clustered: true,
				Threshold: 0.85, Method: "falvolt", MitEpochs: 4, BaseEpochs: 12,
				Array: 64,
			},
		},
		"selftest": {
			Version: spec.Version, Kind: "selftest", Seed: 7,
			Name:     "smoke-sweep",
			Labels:   map[string]string{"team": "reliability", "tier": "smoke"},
			Selftest: &spec.SelftestSpec{Trials: 24},
		},
		"falvolt": {
			Version: spec.Version, Kind: "falvolt", Seed: 7,
			Pipeline: &spec.PipelineSpec{
				Dataset: "mnist", Rate: 0.3, Method: "falvolt", Array: 64,
				BaseEpochs: 12, Epochs: 8, Train: 320, Test: 128, Quick: true,
			},
		},
		"faultsim": {
			Version: spec.Version, Kind: "faultsim", Seed: 7,
			FaultSim: &spec.FaultSimSpec{
				Dataset: "mnist", Sweep: "bits", Array: 64, Faults: 16,
				Repeats: 3, BaseEpochs: 12, Train: 320, Test: 128,
				Training: &spec.TrainSpec{Batch: 16, LR: 0.02, Loss: "mse", Replicas: 2, MicroBatch: 8},
			},
		},
		"faultmodel": {
			Version: spec.Version, Kind: "faultmodel", Seed: 7,
			FaultModel: &spec.FaultModelCampaignSpec{
				Model: spec.FaultModelSpec{Kind: "bitflip", Profile: "decay"},
				Array: 16, Rates: []float64{0.01, 0.05, 0.2}, Repeats: 2,
				Batch: 4, Timesteps: 3, Density: 0.3,
			},
		},
		"salvage": {
			Version: spec.Version, Kind: "salvage", Seed: 7,
			Salvage: &spec.SalvageCampaignSpec{
				Models: []string{"stuckat", "transient"},
				Mitigations: []spec.MitigationSpec{
					{Kind: "falvolt", Training: &spec.TrainSpec{Epochs: 2, Replicas: 2}}, {Kind: "respawn"},
					{Kind: "rescuesnn", BypassBit: 20}, {Kind: "softsnn"},
				},
				Rates: []float64{0.05, 0.1}, Repeats: 2, Array: 16,
				BaseEpochs: 2, Epochs: 2, Batch: 32,
			},
		},
		"sitesweep": {
			Version: spec.Version, Kind: "sitesweep", Seed: 7,
			SiteSweep: &spec.SiteSweepSpec{
				Array: 8, Bits: []uint{0, 16, 31}, Pols: "both",
				Sample: 48, Batch: 4, Timesteps: 2, Density: 0.3,
			},
		},
	}
	return out
}

// TestGoldenSpecs pins the encoded JSON of every kind's representative
// spec, and asserts the encode -> decode -> encode round trip is
// byte-identical.
func TestGoldenSpecs(t *testing.T) {
	for kind, s := range representative() {
		t.Run(kind, func(t *testing.T) {
			enc, err := s.Encode()
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", kind+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, enc, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(enc, want) {
				t.Errorf("spec JSON drifted from golden schema:\n--- got ---\n%s--- want ---\n%s", enc, want)
			}
			// encode -> decode -> encode byte identity.
			dec, err := spec.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			re, err := dec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, re) {
				t.Errorf("encode->decode->encode not byte-identical:\n--- first ---\n%s--- second ---\n%s", enc, re)
			}
		})
	}
}

// TestFingerprintStability: the fingerprint is a function of the
// experiment, not of JSON formatting, field order, or execution
// placement (backend/shard).
func TestFingerprintStability(t *testing.T) {
	s := representative()["yield"]
	want, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// Same fields, different textual order and formatting.
	reordered := `{
		"yield": {"array": 64, "baseEpochs": 12, "mitEpochs": 4,
		          "method": "falvolt", "threshold": 0.85, "clustered": true,
		          "alpha": 1.0, "meanFaulty": 60, "chips": 12},
		"seed": 7, "kind": "yield", "version": 1}`
	r, err := spec.Decode([]byte(reordered))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Fingerprint(); got != want {
		t.Fatalf("fingerprint changed under field reordering: %s vs %s", got, want)
	}

	// Execution placement must not perturb identity.
	placed := *s
	placed.Backend, placed.Shard = "parallel:4", "1/2"
	if got, _ := placed.Fingerprint(); got != want {
		t.Fatal("backend/shard leaked into the fingerprint")
	}

	// Catalog identity (name, labels) must not perturb identity either:
	// two submissions of one experiment under different names merge.
	named := *s
	named.Name = "overnight-yield-a"
	named.Labels = map[string]string{"team": "reliability", "ticket": "FV-812"}
	if got, _ := named.Fingerprint(); got != want {
		t.Fatal("name/labels leaked into the fingerprint")
	}

	// A genuinely different experiment must fingerprint differently.
	changed := *s
	y := *s.Yield
	y.Chips = 13
	changed.Yield = &y
	if got, _ := changed.Fingerprint(); got == want {
		t.Fatal("different experiments share a fingerprint")
	}
}

// TestDecodeRejections: unsupported versions, unknown kinds, unknown
// fields, missing kinds and trailing garbage all fail loudly.
func TestDecodeRejections(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"future version", `{"version": 99, "kind": "selftest"}`, "version 99 unsupported"},
		{"zero version", `{"kind": "selftest"}`, "version 0 unsupported"},
		{"missing kind", `{"version": 1}`, "missing kind"},
		{"unknown field", `{"version": 1, "kind": "selftest", "trails": 5}`, "unknown field"},
		{"bad shard", `{"version": 1, "kind": "selftest", "shard": "2"}`, "shard"},
		// Specs carry no shard planner: every distributed run is planned
		// uniformly, so a planner field is refused like any unknown one.
		{"bad planner", `{"version": 1, "kind": "selftest", "planner": "fastest"}`, `unknown field "planner"`},
		{"balance without source", `{"version": 1, "kind": "selftest", "planner": "balance:"}`, `unknown field "planner"`},
		{"trailing garbage", `{"version": 1, "kind": "selftest"} {"again": true}`, "trailing data"},
		{"name with newline", `{"version": 1, "kind": "selftest", "name": "a\nb"}`, "control character"},
		{"overlong name", fmt.Sprintf(`{"version": 1, "kind": "selftest", "name": %q}`, strings.Repeat("x", 200)), "longer than"},
		{"empty label key", `{"version": 1, "kind": "selftest", "labels": {"": "v"}}`, "empty label key"},
		{"label value with control char", `{"version": 1, "kind": "selftest", "labels": {"k": "a\tb"}}`, "control character"},
		{"section/kind mismatch", `{"version": 1, "kind": "selftest", "yield": {"chips": 3}}`, "does not use the yield section"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := spec.Decode([]byte(tc.json))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Decode(%s) err = %v, want substring %q", tc.json, err, tc.wantErr)
			}
		})
	}

	// Unknown kind passes Decode (the envelope is fine) but must be
	// rejected by Build, which owns the registry.
	s, err := spec.Decode([]byte(`{"version": 1, "kind": "martian"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Build(s, spec.BuildOpts{}); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("Build of unknown kind: err = %v, want unknown kind", err)
	}
}

// TestEveryKindConstructible: each registered campaign kind builds from
// its representative spec via the registry, enumerates a dense
// non-empty trial list without touching expensive resources, and
// carries the canonical spec in its checkpoint metadata.
func TestEveryKindConstructible(t *testing.T) {
	reps := representative()
	kinds := spec.Kinds()
	if len(kinds) < 7 {
		t.Fatalf("expected at least 7 registered kinds, got %v", kinds)
	}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			s, ok := reps[kind]
			if !ok {
				t.Fatalf("no representative spec for registered kind %q — add one", kind)
			}
			built, err := spec.Build(s, spec.BuildOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if built.Render == nil || built.JSON == nil {
				t.Fatal("Build left a renderer nil")
			}
			trials, err := built.Campaign.Trials()
			if err != nil {
				t.Fatal(err)
			}
			if len(trials) == 0 {
				t.Fatal("campaign enumerates no trials")
			}
			for i, tr := range trials {
				if tr.ID != i {
					t.Fatalf("trial %d has id %d (ids must be dense)", i, tr.ID)
				}
			}
			mp, ok := built.Campaign.(campaign.MetaProvider)
			if !ok {
				t.Fatal("built campaign carries no metadata")
			}
			canonical, err := s.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if mp.Meta()["spec"] != string(canonical) {
				t.Fatalf("campaign metadata spec = %q, want canonical %q", mp.Meta()["spec"], canonical)
			}
			// Round-trip through metadata, as `campaign merge` does.
			back, err := spec.FromMeta(mp.Meta())
			if err != nil {
				t.Fatal(err)
			}
			fp1, _ := s.Fingerprint()
			fp2, _ := back.Fingerprint()
			if fp1 != fp2 {
				t.Fatal("spec does not survive the checkpoint-metadata round trip")
			}
		})
	}
}

// TestSelftestBuildMatchesSynthetic: the registry's selftest build is
// the same campaign the engine's Synthetic constructor makes — merged
// results byte-identical.
func TestSelftestBuildMatchesSynthetic(t *testing.T) {
	s := &spec.Spec{Version: spec.Version, Kind: "selftest", Seed: 3,
		Selftest: &spec.SelftestSpec{Trials: 16}}
	built, err := spec.Build(s, spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := campaign.Run(built.Campaign, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := campaign.Run(campaign.Synthetic(16, 3), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := campaign.MarshalResults(fromSpec.Results)
	b, _ := campaign.MarshalResults(direct.Results)
	if !bytes.Equal(a, b) {
		t.Fatal("spec-built selftest differs from campaign.Synthetic")
	}
}

// TestSelftestDelayIsResultNeutral: the scheduling-smoke delay knob
// slows trials without perturbing results (merges stay byte-identical),
// and a negative delay is refused at build time.
func TestSelftestDelayIsResultNeutral(t *testing.T) {
	run := func(delay int) []byte {
		s := &spec.Spec{Version: spec.Version, Kind: "selftest", Seed: 3,
			Selftest: &spec.SelftestSpec{Trials: 8, DelayMillis: delay}}
		built, err := spec.Build(s, spec.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := campaign.Run(built.Campaign, campaign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := campaign.MarshalResults(rr.Results)
		return b
	}
	if !bytes.Equal(run(0), run(5)) {
		t.Fatal("delayMillis changed merged results")
	}
	bad := &spec.Spec{Version: spec.Version, Kind: "selftest",
		Selftest: &spec.SelftestSpec{Trials: 8, DelayMillis: -1}}
	if _, err := spec.Build(bad, spec.BuildOpts{}); err == nil || !strings.Contains(err.Error(), "delayMillis") {
		t.Fatalf("negative delayMillis accepted: %v", err)
	}
}

// TestFaultModelSpecValidation: the model-selection section rejects
// unknown kinds, out-of-range bits, unknown modes, and any knob its
// kind would silently ignore — at Decode time, since Spec.Validate
// checks nested fault-model sections in the envelope.
func TestFaultModelSpecValidation(t *testing.T) {
	good := []spec.FaultModelSpec{
		{},
		{Kind: "stuckat", Bit: 30, Pol: "sa0"},
		{Kind: "stuckat", BitMode: "random", PolMode: "random"},
		{Kind: "bitflip"},
		{Kind: "bitflip", Profile: "msb"},
		{Kind: "transient", Strike: 2, Decay: 3},
		{Kind: "transient", Bit: 24, Pol: "sa1"},
	}
	for _, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("valid model %+v rejected: %v", f, err)
		}
		if _, err := f.FaultModel(); err != nil {
			t.Errorf("valid model %+v failed to construct: %v", f, err)
		}
	}
	bad := []struct {
		f       spec.FaultModelSpec
		wantErr string
	}{
		{spec.FaultModelSpec{Kind: "cosmic"}, "unknown fault model kind"},
		{spec.FaultModelSpec{Bit: 32}, "outside [0,32)"},
		{spec.FaultModelSpec{Bit: -1}, "outside [0,32)"},
		{spec.FaultModelSpec{BitMode: "lsb"}, "unknown bitMode"},
		{spec.FaultModelSpec{Bit: 5, BitMode: "msb"}, "drop one"},
		{spec.FaultModelSpec{Pol: "sa2"}, "unknown polarity"},
		{spec.FaultModelSpec{PolMode: "alternating"}, "unknown polMode"},
		{spec.FaultModelSpec{PolMode: "random", Pol: "sa1"}, "drop one"},
		{spec.FaultModelSpec{Kind: "bitflip", Profile: "gaussian"}, "unknown bit profile"},
		{spec.FaultModelSpec{Strike: -1, Kind: "transient"}, "negative"},
		{spec.FaultModelSpec{Decay: -1, Kind: "transient"}, "negative"},
		{spec.FaultModelSpec{Kind: "stuckat", Profile: "decay"}, "does not use profile"},
		{spec.FaultModelSpec{Kind: "stuckat", Strike: 1}, "does not use strike/decay"},
		{spec.FaultModelSpec{Kind: "bitflip", Bit: 3}, "does not use bit"},
		{spec.FaultModelSpec{Kind: "bitflip", Decay: 2}, "does not use strike/decay"},
		{spec.FaultModelSpec{Kind: "transient", Profile: "uniform"}, "does not use profile"},
	}
	for _, tc := range bad {
		err := tc.f.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Validate(%+v) err = %v, want substring %q", tc.f, err, tc.wantErr)
		}
	}

	// The envelope rejects a bad nested model at Decode time, for both
	// the faultModel campaign section and faultsim's model field.
	decodeBad := []string{
		`{"version": 1, "kind": "faultmodel", "faultModel": {"model": {"kind": "cosmic"}}}`,
		`{"version": 1, "kind": "faultmodel", "faultModel": {"model": {"bit": 99}}}`,
		`{"version": 1, "kind": "faultsim", "faultsim": {"model": {"kind": "bitflip", "bit": 3}}}`,
	}
	for _, js := range decodeBad {
		if _, err := spec.Decode([]byte(js)); err == nil {
			t.Errorf("Decode accepted invalid fault model: %s", js)
		}
	}
}

// TestFaultModelFingerprintRoundTrip: for each model kind, the
// encode -> decode -> encode round trip preserves the spec fingerprint,
// and distinct model configurations fingerprint differently.
func TestFaultModelFingerprintRoundTrip(t *testing.T) {
	mk := func(m spec.FaultModelSpec) *spec.Spec {
		return &spec.Spec{
			Version: spec.Version, Kind: "faultmodel", Seed: 7,
			FaultModel: &spec.FaultModelCampaignSpec{Model: m, Array: 16},
		}
	}
	variants := []spec.FaultModelSpec{
		{Kind: "stuckat"},
		{Kind: "stuckat", Bit: 30},
		{Kind: "bitflip", Profile: "decay"},
		{Kind: "bitflip", Profile: "msb"},
		{Kind: "transient", Strike: 1, Decay: 2},
	}
	prints := make(map[string]string)
	for _, m := range variants {
		s := mk(m)
		want, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := spec.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("model %+v: fingerprint changed across encode/decode: %s vs %s", m, got, want)
		}
		if prev, dup := prints[want]; dup {
			t.Errorf("models %s and %+v share fingerprint %s", prev, m, want)
		}
		prints[want] = fmt.Sprintf("%+v", m)
	}
}

// TestZeroSeedMeansDefault: an omitted seed resolves to spec.DefaultSeed
// uniformly across kinds (here checked on selftest, the cheapest).
func TestZeroSeedMeansDefault(t *testing.T) {
	zero := &spec.Spec{Version: spec.Version, Kind: "selftest",
		Selftest: &spec.SelftestSpec{Trials: 8}}
	pinned := &spec.Spec{Version: spec.Version, Kind: "selftest", Seed: spec.DefaultSeed,
		Selftest: &spec.SelftestSpec{Trials: 8}}
	run := func(s *spec.Spec) []byte {
		built, err := spec.Build(s, spec.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := campaign.Run(built.Campaign, campaign.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := campaign.MarshalResults(rr.Results)
		return b
	}
	if !bytes.Equal(run(zero), run(pinned)) {
		t.Fatal("seed 0 does not resolve to the default seed")
	}
}

// TestSuiteSpecDefaulted pins the figure suite's mode defaults: zero
// fields take them, explicit fields survive, training.epochs stands in
// for epochs, and a micro-batch covering the whole default batch
// normalizes to unset.
func TestSuiteSpecDefaulted(t *testing.T) {
	tr := func(epochs, micro, replicas int) *spec.TrainSpec {
		return &spec.TrainSpec{Epochs: epochs, MicroBatch: micro, Replicas: replicas}
	}
	cases := []struct {
		name string
		in   spec.SuiteSpec
		want spec.SuiteSpec // Training nil: want the zero section
	}{
		{"full zero", spec.SuiteSpec{},
			spec.SuiteSpec{Array: 64, Repeats: 8, Epochs: 20, Eval: 0}},
		{"quick zero", spec.SuiteSpec{Quick: true},
			spec.SuiteSpec{Quick: true, Array: 64, Repeats: 3, Epochs: 6, Eval: 64}},
		{"full explicit", spec.SuiteSpec{Array: 16, Repeats: 2, Epochs: 4, Eval: 32},
			spec.SuiteSpec{Array: 16, Repeats: 2, Epochs: 4, Eval: 32}},
		{"quick explicit", spec.SuiteSpec{Quick: true, Array: 16, Repeats: 1, Epochs: 1, Eval: 16},
			spec.SuiteSpec{Quick: true, Array: 16, Repeats: 1, Epochs: 1, Eval: 16}},
		{"training epochs alias", spec.SuiteSpec{Quick: true, Training: tr(9, 0, 0)},
			spec.SuiteSpec{Quick: true, Array: 64, Repeats: 3, Epochs: 9, Eval: 64}},
		{"micro-batch 16 is the whole batch", spec.SuiteSpec{Training: tr(0, 16, 2)},
			spec.SuiteSpec{Array: 64, Repeats: 8, Epochs: 20, Training: tr(0, 0, 2)}},
		{"micro-batch 32 covers the batch", spec.SuiteSpec{Quick: true, Training: tr(0, 32, 0)},
			spec.SuiteSpec{Quick: true, Array: 64, Repeats: 3, Epochs: 6, Eval: 64}},
		{"micro-batch 8 partitions", spec.SuiteSpec{Training: tr(3, 8, 0)},
			spec.SuiteSpec{Array: 64, Repeats: 8, Epochs: 3, Training: tr(0, 8, 0)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := c.in
			if c.in.Training != nil {
				cp := *c.in.Training
				src.Training = &cp
			}
			got := c.in.Defaulted()
			if got.Training == nil {
				t.Fatal("Defaulted left Training nil")
			}
			want := c.want
			if want.Training == nil {
				want.Training = &spec.TrainSpec{}
			}
			if *got.Training != *want.Training {
				t.Errorf("training = %+v, want %+v", *got.Training, *want.Training)
			}
			got.Training, want.Training = nil, nil
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Errorf("Defaulted() = %+v, want %+v", got, want)
			}
			if c.in.Training != nil && *c.in.Training != *src.Training {
				t.Error("Defaulted mutated the source training section")
			}
		})
	}
	// Quick mode is the smaller configuration.
	full, quick := spec.SuiteSpec{}.Defaulted(), spec.SuiteSpec{Quick: true}.Defaulted()
	if !quick.Quick || quick.Repeats >= full.Repeats || quick.Epochs >= full.Epochs {
		t.Errorf("quick %+v should keep Quick and use fewer repeats and epochs than full %+v", quick, full)
	}
	// The suite's seed is the spec's: zero means the non-zero default.
	if (&spec.Spec{Kind: "fig2", Suite: &spec.SuiteSpec{}}).EffectiveSeed() == 0 {
		t.Error("a zero seed should default non-zero")
	}
}
