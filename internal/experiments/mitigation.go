package experiments

import (
	"math/rand"

	"falvolt/internal/faults"
)

// MitigationRates are the faulty-PE fractions of the mitigation study.
var MitigationRates = []float64{0.10, 0.30, 0.60}

// Fig2Vths is the fixed-threshold sweep of the motivational case study.
var Fig2Vths = []float64{0.45, 0.5, 0.55, 0.7}

// mitigationFaultMap draws the fault map shared by all methods for one
// (dataset, rate) cell so the comparison is apples-to-apples: worst-case
// MSB stuck-at-1 faults, rate fraction of PEs.
func (s *Suite) mitigationFaultMap(datasetIdx int, rate float64) (*faults.Map, error) {
	return faults.GenerateRate(s.Spec.Array, s.Spec.Array, rate, faults.GenSpec{
		BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(s.Seed+int64(4000+datasetIdx*100)+int64(rate*1000))))
}
