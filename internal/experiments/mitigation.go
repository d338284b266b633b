package experiments

import (
	"math/rand"

	"falvolt/internal/campaign"
	"falvolt/internal/faults"
	"falvolt/internal/mitigation"
)

// MitigationRates are the faulty-PE fractions of the mitigation study.
var MitigationRates = []float64{0.10, 0.30, 0.60}

// Fig2Vths is the fixed-threshold sweep of the motivational case study.
var Fig2Vths = []float64{0.45, 0.5, 0.55, 0.7}

// mitigationFaultMap draws the fault map shared by all methods for one
// (dataset, rate) cell so the comparison is apples-to-apples: worst-case
// MSB stuck-at-1 faults, rate fraction of PEs.
func (s *Suite) mitigationFaultMap(datasetIdx int, rate float64) (*faults.Map, error) {
	return faults.GenerateRate(s.Opt.ArrayRows, s.Opt.ArrayCols, rate, faults.GenSpec{
		BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(s.Opt.Seed+int64(4000+datasetIdx*100)+int64(rate*1000))))
}

// mitigateJob runs one Mitigate call on a private model copy.
func (s *Suite) mitigateJob(bl *Baseline, fm *faults.Map, cfg mitigation.Config) (*mitigation.Report, error) {
	model, err := bl.BuildModel()
	if err != nil {
		return nil, err
	}
	if err := model.Net.LoadState(bl.State); err != nil {
		return nil, err
	}
	arr := s.NewArray()
	test := bl.TestSlice(s.Opt.EvalSamples)
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 16
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	if cfg.ClipNorm == 0 {
		cfg.ClipNorm = 5
	}
	cfg.Replicas = s.Opt.TrainReplicas
	cfg.MicroBatch = s.Opt.TrainMicroBatch
	return mitigation.Mitigate(model, arr, fm, bl.Data.Train, test, cfg)
}

// Fig2 reproduces the motivational case study: retraining with a fixed
// global threshold voltage at several candidate values, with 30% and 60%
// of PEs faulty, on MNIST and DVS Gesture. The spread across thresholds
// motivates learning the threshold instead of sweeping it. Runs as the
// "fig2" campaign (see campaign.go); use RunCampaign/Figures directly to
// shard or checkpoint it.
func (s *Suite) Fig2() (*Figure, error) {
	return oneFigure(s.campaignFigures("fig2"))
}

// mitigationResults caches the shared Fig. 6/7/8 computation.
type mitigationResults struct {
	fig6 []*Figure
	fig7 *Figure
	fig8 []*Figure
}

// runMitigations executes the full mitigation study once: for every
// dataset and fault rate, FaP, FaPIT and FalVolt from the same baseline
// and the same fault map; convergence curves tracked at the 30% rate.
// The study runs as the "mitigation" campaign.
func (s *Suite) runMitigations() (*mitigationResults, error) {
	s.mitOnce.Do(func() {
		s.mitRes, s.mitErr = s.computeMitigations()
	})
	return s.mitRes, s.mitErr
}

func (s *Suite) computeMitigations() (*mitigationResults, error) {
	rr, err := s.RunCampaign("mitigation", campaign.Options{})
	if err != nil {
		return nil, err
	}
	return s.mitigationFigures(rr.Results)
}

// Fig6 returns the optimized-threshold figures (one per dataset).
func (s *Suite) Fig6() ([]*Figure, error) {
	r, err := s.runMitigations()
	if err != nil {
		return nil, err
	}
	return r.fig6, nil
}

// Fig7 returns the mitigation-comparison figure.
func (s *Suite) Fig7() (*Figure, error) {
	r, err := s.runMitigations()
	if err != nil {
		return nil, err
	}
	return r.fig7, nil
}

// Fig8 returns the convergence-curve figures (one per dataset).
func (s *Suite) Fig8() ([]*Figure, error) {
	r, err := s.runMitigations()
	if err != nil {
		return nil, err
	}
	return r.fig8, nil
}
