package spec_test

import (
	"strings"
	"testing"

	"falvolt/internal/snn"
	"falvolt/internal/spec"
)

// TestTrainLossesMatchSNN: every loss name the spec layer advertises
// must resolve in snn, and vice versa stay rejected — the two lists are
// spelled out separately to keep spec free of the snn dependency tree.
func TestTrainLossesMatchSNN(t *testing.T) {
	for _, name := range spec.TrainLosses() {
		if _, err := snn.LossByName(name); err != nil {
			t.Errorf("spec.TrainLosses advertises %q but snn.LossByName rejects it: %v", name, err)
		}
	}
	if _, err := snn.LossByName("hinge"); err == nil {
		t.Error("snn.LossByName accepted a loss the spec layer does not advertise")
	}
}

// TestTrainSpecValidation: the unified training section rejects unknown
// losses, negative knobs, a micro-batch that exceeds its batch, knobs
// that duplicate a legacy flat field, and placement on strategies or
// kinds that would silently ignore it — all at Decode time.
func TestTrainSpecValidation(t *testing.T) {
	good := []string{
		`{"version": 1, "kind": "mitigation", "suite": {"training": {"epochs": 4, "replicas": 8, "microBatch": 4}}}`,
		`{"version": 1, "kind": "faultsim", "faultsim": {"training": {"epochs": 3, "batch": 16, "lr": 0.05, "clipNorm": 1, "loss": "crossentropy", "replicas": 2, "microBatch": 8}}}`,
		`{"version": 1, "kind": "faultsim", "faultsim": {"mitigate": {"kind": "falvolt", "training": {"epochs": 2, "lr": 0.01, "batch": 8, "replicas": 4}}}}`,
		`{"version": 1, "kind": "salvage", "salvage": {"mitigations": [{"kind": "fapit", "vth": 0.55, "training": {"epochs": 2}}]}}`,
	}
	for _, js := range good {
		if _, err := spec.Decode([]byte(js)); err != nil {
			t.Errorf("valid training spec rejected: %v\n%s", err, js)
		}
	}
	bad := []struct {
		json, wantErr string
	}{
		{`{"version": 1, "kind": "mitigation", "suite": {"training": {"loss": "hinge"}}}`, "unknown training loss"},
		{`{"version": 1, "kind": "mitigation", "suite": {"training": {"epochs": -1}}}`, "negative"},
		{`{"version": 1, "kind": "mitigation", "suite": {"training": {"replicas": -2}}}`, "negative"},
		{`{"version": 1, "kind": "faultsim", "faultsim": {"training": {"batch": 8, "microBatch": 16}}}`, "exceeds batch"},
		// With batch unset every consumer runs spec.DefaultBatch, so an
		// oversized micro-batch would be silently clamped — reject it.
		{`{"version": 1, "kind": "faultsim", "faultsim": {"training": {"microBatch": 64}}}`, "exceeds the default batch"},
		{`{"version": 1, "kind": "mitigation", "suite": {"training": {"microBatch": 17}}}`, "exceeds the default batch"},
		{`{"version": 1, "kind": "mitigation", "suite": {"epochs": 6, "training": {"epochs": 4}}}`, "drop one"},
		{`{"version": 1, "kind": "mitigation", "suite": {"training": {"lr": 0.1}}}`, "epochs/replicas/microBatch only"},
		{`{"version": 1, "kind": "faultsim", "faultsim": {"baseEpochs": 12, "training": {"epochs": 4}}}`, "drop one"},
		{`{"version": 1, "kind": "faultsim", "faultsim": {"mitigate": {"kind": "fap", "training": {"epochs": 2}}}}`, "does not retrain"},
		{`{"version": 1, "kind": "faultsim", "faultsim": {"mitigate": {"kind": "falvolt", "epochs": 2, "training": {"epochs": 4}}}}`, "drop one"},
		{`{"version": 1, "kind": "faultsim", "faultsim": {"mitigate": {"kind": "falvolt", "lr": 0.1, "training": {"lr": 0.2}}}}`, "drop one"},
		{`{"version": 1, "kind": "faultsim", "faultsim": {"mitigate": {"kind": "falvolt", "training": {"loss": "mse"}}}}`, "does not use loss"},
	}
	for _, tc := range bad {
		_, err := spec.Decode([]byte(tc.json))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Decode(%s) err = %v, want substring %q", tc.json, err, tc.wantErr)
		}
	}
}

// TestTrainSpecReplicasAreExecutionOnly: the replica count never
// changes results (the engine reduces gradients in fixed micro-batch
// order), so like Backend and Shard it must not perturb the spec's
// identity — on any surface a training section appears. The micro-batch
// partition DOES change results and must.
func TestTrainSpecReplicasAreExecutionOnly(t *testing.T) {
	cases := []struct {
		name           string
		base, replicas string
	}{
		{
			"suite",
			`{"version": 1, "kind": "mitigation", "suite": {"training": {"microBatch": 8}}}`,
			`{"version": 1, "kind": "mitigation", "suite": {"training": {"microBatch": 8, "replicas": 8}}}`,
		},
		{
			"faultsim",
			`{"version": 1, "kind": "faultsim", "faultsim": {"training": {"microBatch": 8}}}`,
			`{"version": 1, "kind": "faultsim", "faultsim": {"training": {"microBatch": 8, "replicas": 8}}}`,
		},
		{
			"faultsim mitigate",
			`{"version": 1, "kind": "faultsim", "faultsim": {"mitigate": {"kind": "falvolt", "training": {"microBatch": 8}}}}`,
			`{"version": 1, "kind": "faultsim", "faultsim": {"mitigate": {"kind": "falvolt", "training": {"microBatch": 8, "replicas": 8}}}}`,
		},
		{
			"salvage mitigations",
			`{"version": 1, "kind": "salvage", "salvage": {"mitigations": [{"kind": "falvolt", "training": {"microBatch": 8}}]}}`,
			`{"version": 1, "kind": "salvage", "salvage": {"mitigations": [{"kind": "falvolt", "training": {"microBatch": 8, "replicas": 8}}]}}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := spec.Decode([]byte(tc.base))
			if err != nil {
				t.Fatal(err)
			}
			b, err := spec.Decode([]byte(tc.replicas))
			if err != nil {
				t.Fatal(err)
			}
			fa, _ := a.Fingerprint()
			fb, _ := b.Fingerprint()
			if fa != fb {
				t.Errorf("training replicas leaked into the fingerprint: %s vs %s", fa, fb)
			}
			// Canonicalization must not mutate the decoded spec.
			if _, err := b.Canonical(); err != nil {
				t.Fatal(err)
			}
			enc, err := b.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(enc), `"replicas": 8`) {
				t.Error("Canonical mutated the source spec's replica count")
			}
		})
	}

	// The micro-batch partition is part of the experiment's identity.
	a, err := spec.Decode([]byte(`{"version": 1, "kind": "mitigation", "suite": {"training": {"microBatch": 8}}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Decode([]byte(`{"version": 1, "kind": "mitigation", "suite": {"training": {"microBatch": 4}}}`))
	if err != nil {
		t.Fatal(err)
	}
	fa, _ := a.Fingerprint()
	fb, _ := b.Fingerprint()
	if fa == fb {
		t.Error("microBatch does not affect the fingerprint, but it changes results")
	}
}

// TestTrainSpecNoopMicroBatchIsCanonicalized: a micro-batch equal to
// the effective batch is a one-micro-batch-per-step partition —
// bit-identical to leaving MicroBatch unset — so it must not
// differentiate fingerprints, whether the batch is explicit or the
// consumers' shared spec.DefaultBatch.
func TestTrainSpecNoopMicroBatchIsCanonicalized(t *testing.T) {
	cases := []struct {
		name       string
		noop, bare string
	}{
		{
			"explicit batch",
			`{"version": 1, "kind": "faultsim", "faultsim": {"training": {"batch": 8, "microBatch": 8}}}`,
			`{"version": 1, "kind": "faultsim", "faultsim": {"training": {"batch": 8}}}`,
		},
		{
			"default batch",
			`{"version": 1, "kind": "mitigation", "suite": {"training": {"microBatch": 16}}}`,
			`{"version": 1, "kind": "mitigation", "suite": {"training": {}}}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := spec.Decode([]byte(tc.noop))
			if err != nil {
				t.Fatal(err)
			}
			b, err := spec.Decode([]byte(tc.bare))
			if err != nil {
				t.Fatal(err)
			}
			fa, _ := a.Fingerprint()
			fb, _ := b.Fingerprint()
			if fa != fb {
				t.Errorf("no-op microBatch differentiates bit-identical runs: %s vs %s", fa, fb)
			}
			// Canonicalization must not mutate the decoded spec.
			if _, err := a.Canonical(); err != nil {
				t.Fatal(err)
			}
			enc, err := a.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(enc), `"microBatch"`) {
				t.Error("Canonical mutated the source spec's microBatch")
			}
		})
	}
	// An effective micro-batch smaller than the batch stays, of course.
	a, _ := spec.Decode([]byte(`{"version": 1, "kind": "faultsim", "faultsim": {"training": {"batch": 8, "microBatch": 4}}}`))
	b, _ := spec.Decode([]byte(`{"version": 1, "kind": "faultsim", "faultsim": {"training": {"batch": 8}}}`))
	fa, _ := a.Fingerprint()
	fb, _ := b.Fingerprint()
	if fa == fb {
		t.Error("effective microBatch canonicalized away")
	}
}

// TestTrainSpecFingerprintStability: specs written before the training
// section existed must fingerprint exactly as they always did — the
// new field is omitempty everywhere, so unchanged specs canonicalize
// to unchanged bytes.
func TestTrainSpecFingerprintStability(t *testing.T) {
	js := `{"version": 1, "kind": "mitigation", "suite": {"quick": true, "epochs": 6}}`
	s, err := spec.Decode([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(canon), "training") {
		t.Errorf("canonical form of a training-free spec mentions training:\n%s", canon)
	}
	// A spec that spells training knobs only via replicas canonicalizes
	// identically to one with no training section at all? No — the
	// section object itself stays (field values are literal); only the
	// replica count inside it is cleared.
	withReplicas, err := spec.Decode([]byte(`{"version": 1, "kind": "mitigation", "suite": {"quick": true, "epochs": 6, "training": {"replicas": 4}}}`))
	if err != nil {
		t.Fatal(err)
	}
	emptyTraining, err := spec.Decode([]byte(`{"version": 1, "kind": "mitigation", "suite": {"quick": true, "epochs": 6, "training": {}}}`))
	if err != nil {
		t.Fatal(err)
	}
	fr, _ := withReplicas.Fingerprint()
	fe, _ := emptyTraining.Fingerprint()
	if fr != fe {
		t.Errorf("replicas-only training section perturbs identity: %s vs %s", fr, fe)
	}
}

// TestTrainSpecResolution: the Effective* helpers resolve legacy flat
// knobs and the unified section consistently.
func TestTrainSpecResolution(t *testing.T) {
	m := spec.MitigationSpec{Kind: "falvolt", Epochs: 3, LR: 0.05}
	if m.EffectiveEpochs() != 3 || m.EffectiveLR() != 0.05 {
		t.Errorf("legacy knobs: got epochs %d lr %v", m.EffectiveEpochs(), m.EffectiveLR())
	}
	m = spec.MitigationSpec{Kind: "falvolt", Training: &spec.TrainSpec{Epochs: 4, LR: 0.01}}
	if m.EffectiveEpochs() != 4 || m.EffectiveLR() != 0.01 {
		t.Errorf("training knobs: got epochs %d lr %v", m.EffectiveEpochs(), m.EffectiveLR())
	}
	ss := spec.SuiteSpec{Epochs: 6}.Defaulted()
	if ss.Epochs != 6 {
		t.Errorf("suite legacy epochs: got %d", ss.Epochs)
	}
	ss = spec.SuiteSpec{Training: &spec.TrainSpec{Epochs: 9}}.Defaulted()
	if ss.Epochs != 9 {
		t.Errorf("suite training epochs: got %d", ss.Epochs)
	}
	f := spec.FaultSimSpec{}
	if f.EffectiveBaseEpochs() != 12 {
		t.Errorf("faultsim default baseEpochs: got %d", f.EffectiveBaseEpochs())
	}
	f = spec.FaultSimSpec{Training: &spec.TrainSpec{Epochs: 5}}
	if f.EffectiveBaseEpochs() != 5 {
		t.Errorf("faultsim training epochs: got %d", f.EffectiveBaseEpochs())
	}
}
