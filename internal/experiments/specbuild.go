package experiments

import (
	"fmt"
	"io"
	"sync"

	"falvolt/internal/campaign"
	"falvolt/internal/spec"
)

// Spec-registry integration: every figure campaign (fig2, fig5a-c, the
// shared Fig. 6/7/8 "mitigation" study and the "ablations") is
// constructible from a declarative spec.Spec. Identically configured
// specs share one Suite per process, so a tool that runs several figure
// campaigns — or a cluster worker leasing shards of different figures
// of the same sweep configuration — trains each dataset baseline
// exactly once.

var (
	suiteCacheMu sync.Mutex
	suiteCache   = map[string]*Suite{}
)

// SuiteFromSpec resolves a spec's suite section into a Suite, its zero
// values defaulted by spec.SuiteSpec.Defaulted. Suites are cached per
// resolved configuration (including the cache directory): repeated
// builds from equivalent specs return the same Suite and therefore share
// trained baselines. The log writer is fixed by whichever build
// populated the cache entry first — execution detail, never results.
func SuiteFromSpec(s *spec.Spec, opt spec.BuildOpts) (*Suite, error) {
	if s.Suite == nil {
		return nil, fmt.Errorf("experiments: spec kind %q needs a suite section", s.Kind)
	}
	d := s.Suite.Defaulted()
	// Training replicas are execution-only and excluded from the key,
	// like the log writer: equivalent specs that differ only in replica
	// count share one Suite, and the first build's lane count wins.
	// This is sound because snn.Train routes EVERY configuration —
	// replicas 0 included — through the replica engine, whose results
	// (dropout included) are bit-identical at any lane count
	// (snn.TestTrainDefaultConfigIsReplicaEngine). The micro-batch
	// partition changes results and is part of the key.
	key := fmt.Sprintf("quick=%v seed=%d array=%d repeats=%d epochs=%d eval=%d micro=%d cache=%q",
		d.Quick, s.EffectiveSeed(), d.Array, d.Repeats, d.Epochs, d.Eval, d.Training.MicroBatch, opt.CacheDir)
	suiteCacheMu.Lock()
	defer suiteCacheMu.Unlock()
	if su, ok := suiteCache[key]; ok {
		return su, nil
	}
	su := &Suite{Spec: d, Seed: s.EffectiveSeed(), CacheDir: opt.CacheDir, Log: opt.Log, baselines: map[string]*Baseline{}}
	suiteCache[key] = su
	return su, nil
}

func init() {
	for _, name := range CampaignNames() {
		spec.Register(name, buildFigureCampaign)
	}
}

// buildFigureCampaign is the registered builder for every figure kind:
// resolve the (shared) suite, construct the campaign, and render
// results as the kind's figures.
func buildFigureCampaign(s *spec.Spec, opt spec.BuildOpts) (*spec.Built, error) {
	suite, err := SuiteFromSpec(s, opt)
	if err != nil {
		return nil, err
	}
	cam, err := suite.Campaign(s.Kind)
	if err != nil {
		return nil, err
	}
	kind := s.Kind
	return figureBuilt(cam, func(results []campaign.Result) ([]*Figure, error) {
		return suite.Figures(kind, results)
	}), nil
}

// figureBuilt is a registered figure kind: cam, rendered as the figures
// its results fold into, printed in order or as JSON.
func figureBuilt(cam campaign.Campaign, figures func([]campaign.Result) ([]*Figure, error)) *spec.Built {
	return &spec.Built{
		Campaign: cam,
		Render: func(w io.Writer, results []campaign.Result) error {
			figs, err := figures(results)
			if err != nil {
				return err
			}
			for _, f := range figs {
				f.Print(w)
			}
			return nil
		},
		JSON: func(results []campaign.Result) (any, error) {
			return figures(results)
		},
	}
}
