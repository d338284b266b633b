package core

import (
	"fmt"
	"io"

	"falvolt/internal/campaign"
	"falvolt/internal/faults"
	"falvolt/internal/mitigation"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
)

// Spec-registry integration: "yield" is constructible from a declarative
// spec.Spec, so `campaign run/serve/merge` and cluster workers all build
// bit-identical yield campaigns from the same canonical bytes.

// YieldConfigFromSpec resolves a yield spec section into the concrete
// study configuration; zero fields take their documented defaults
// (YieldSpec.Defaulted — the single definition the cmd flag defaults
// also come from). The +2 seed offset keeps the die population aligned
// with the historical yield-tool enumeration.
func YieldConfigFromSpec(s *spec.Spec) (YieldConfig, error) {
	if s.Yield == nil {
		return YieldConfig{}, fmt.Errorf("core: spec kind %q needs a yield section", s.Kind)
	}
	y := s.Yield.Defaulted()
	m, err := mitigation.ParseMethod(y.Method)
	if err != nil {
		return YieldConfig{}, err
	}
	return YieldConfig{
		Chips:       y.Chips,
		Defects:     faults.DefectModel{MeanFaulty: y.MeanFaulty, Alpha: y.Alpha},
		Clustered:   y.Clustered,
		Threshold:   y.Threshold,
		Method:      m,
		Mitigation:  mitigation.Options{Epochs: y.MitEpochs, LR: 0.01, BatchSize: 16, ClipNorm: 5},
		EvalSamples: y.Eval,
		Seed:        s.EffectiveSeed() + 2,
	}, nil
}

func init() {
	spec.Register("yield", func(s *spec.Spec, opt spec.BuildOpts) (*spec.Built, error) {
		cfg, err := YieldConfigFromSpec(s)
		if err != nil {
			return nil, err
		}
		y := s.Yield.Defaulted()
		arrayN, baseEp := y.Array, y.BaseEpochs
		cam, err := LazyYieldCampaign(arrayN, arrayN, cfg,
			SyntheticYieldFingerprint(baseEp),
			SyntheticYieldBuild(s.EffectiveSeed(), baseEp, arrayN, cfg.Threshold, opt.Log))
		if err != nil {
			return nil, err
		}
		report := func(results []campaign.Result) (*YieldReport, error) {
			return YieldFromResults(results, cfg.Chips, cfg.Threshold)
		}
		return &spec.Built{
			Campaign: cam,
			Render: func(w io.Writer, results []campaign.Result) error {
				rep, err := report(results)
				if err != nil {
					return err
				}
				lat, en := systolic.ReexecutionOverhead()
				_, err = fmt.Fprintf(w, "%s\nfault-free dies: %d/%d; salvage policy: %s (%d epochs)\n"+
					"for comparison, redundant re-execution would cost %.2fx latency and %.2fx energy on every inference, forever\n",
					rep, rep.FaultFree, rep.Chips, cfg.Method, cfg.Mitigation.Epochs, lat, en)
				return err
			},
			JSON: func(results []campaign.Result) (any, error) {
				return report(results)
			},
		}, nil
	})
}
