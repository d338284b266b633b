package faults

import (
	"fmt"
	"math"
	"math/rand"
)

// Clustered defect generation and a yield model.
//
// Manufacturing defects are not uniformly distributed: lithography and
// particle defects cluster spatially, which is why classic yield models
// (negative binomial / Stapper) outperform Poisson. A clustered fault map
// stresses mitigation differently from a uniform one of equal rate — a
// cluster takes out whole neighbouring rows/columns of the PE grid,
// concentrating pruning in a few weight-matrix stripes.

// ClusterSpec describes clustered stuck-at fault generation: defects are
// drawn as cluster centres, and each cluster kills PEs around its centre
// with a Gaussian fall-off.
type ClusterSpec struct {
	// Clusters is the number of defect clusters.
	Clusters int
	// MeanSize is the expected number of faulty PEs per cluster.
	MeanSize int
	// Radius is the Gaussian radius (in PEs) of each cluster.
	Radius float64
	// BitMode / Bit / Pol / PolMode mirror GenSpec for stuck-bit drawing.
	Bit     uint
	BitMode BitMode
	Pol     Polarity
	PolMode PolMode
}

// GenerateClustered draws a clustered fault map for a rows x cols array.
func GenerateClustered(rows, cols int, spec ClusterSpec, rng *rand.Rand) (*Map, error) {
	if spec.Clusters < 0 || spec.MeanSize <= 0 {
		return nil, fmt.Errorf("faults: invalid cluster spec %+v", spec)
	}
	if spec.Radius <= 0 {
		spec.Radius = 1.5
	}
	m := NewMap(rows, cols)
	seen := make(map[[2]int]bool)
	for c := 0; c < spec.Clusters; c++ {
		cy := rng.Float64() * float64(rows)
		cx := rng.Float64() * float64(cols)
		// Poisson-ish cluster size around the mean.
		size := 1 + rng.Intn(2*spec.MeanSize-1)
		for k := 0; k < size; k++ {
			// Sample a PE near the centre; retry a few times if it falls
			// off the die or is already faulty.
			for attempt := 0; attempt < 8; attempt++ {
				y := int(math.Round(cy + rng.NormFloat64()*spec.Radius))
				x := int(math.Round(cx + rng.NormFloat64()*spec.Radius))
				if y < 0 || y >= rows || x < 0 || x >= cols || seen[[2]int{y, x}] {
					continue
				}
				seen[[2]int{y, x}] = true
				f := StuckAtFault{Row: y, Col: x}
				switch spec.BitMode {
				case RandomBit:
					f.Bit = uint(rng.Intn(32))
				case MSBBits:
					f.Bit = uint(24 + rng.Intn(8))
				default:
					f.Bit = spec.Bit
				}
				switch spec.PolMode {
				case RandomPol:
					if rng.Intn(2) == 1 {
						f.Pol = StuckAt1
					}
				default:
					f.Pol = spec.Pol
				}
				if err := m.Add(f); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	return m, nil
}

// DefectModel is a die-level defect-rate model for yield estimation:
// the number of faulty PEs per manufactured chip follows a negative
// binomial distribution (Stapper's model) with the given mean and
// clustering parameter alpha (smaller alpha = heavier clustering).
type DefectModel struct {
	MeanFaulty float64
	Alpha      float64
}

// SampleFaultyCount draws the number of faulty PEs on one chip.
func (d DefectModel) SampleFaultyCount(rng *rand.Rand) int {
	if d.MeanFaulty <= 0 {
		return 0
	}
	alpha := d.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	// Negative binomial as Gamma-Poisson mixture:
	// lambda ~ Gamma(alpha, mean/alpha), count ~ Poisson(lambda).
	lambda := gammaSample(rng, alpha) * d.MeanFaulty / alpha
	return poissonSample(rng, lambda)
}

// gammaSample draws Gamma(shape, 1) via Marsaglia–Tsang.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Boost and correct: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := rng.Float64()
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// poissonSample draws Poisson(lambda) (Knuth for small lambda, normal
// approximation for large).
func poissonSample(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
