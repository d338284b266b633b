package faults

import (
	"math"
	"math/rand"
	"testing"
)

func TestGenerateClusteredBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := GenerateClustered(32, 32, ClusterSpec{
		Clusters: 4, MeanSize: 6, Radius: 1.5,
		BitMode: MSBBits, Pol: StuckAt1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFaultyPEs() == 0 {
		t.Fatal("clustered generation produced no faults")
	}
	for _, f := range m.Faults {
		if f.Row < 0 || f.Row >= 32 || f.Col < 0 || f.Col >= 32 {
			t.Errorf("fault out of bounds: %v", f)
		}
		if f.Bit < 24 {
			t.Errorf("MSBBits produced low bit %d", f.Bit)
		}
	}
}

func TestGenerateClusteredValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := GenerateClustered(8, 8, ClusterSpec{Clusters: -1, MeanSize: 3}, rng); err == nil {
		t.Error("negative clusters should error")
	}
	if _, err := GenerateClustered(8, 8, ClusterSpec{Clusters: 1, MeanSize: 0}, rng); err == nil {
		t.Error("zero mean size should error")
	}
}

func TestClusteredIsMoreClusteredThanUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	clustered, err := GenerateClustered(64, 64, ClusterSpec{
		Clusters: 3, MeanSize: 10, Radius: 1.2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := clustered.NumFaultyPEs()
	uniform, err := Generate(64, 64, GenSpec{NumFaulty: n}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ci, cu := clarkEvans(clustered), clarkEvans(uniform)
	if ci >= cu {
		t.Errorf("clustered map should have lower Clark-Evans ratio: clustered %.3f vs uniform %.3f", ci, cu)
	}
	if ci >= 0.8 {
		t.Errorf("clustered map not clustered enough: %.3f", ci)
	}
}

// clarkEvans quantifies spatial clustering of a fault map: the mean
// nearest-neighbour distance of faulty PEs divided by the expectation for
// a uniform distribution of the same density (Clark–Evans ratio). Values
// well below 1 indicate clustering; ≈1 indicates uniformity.
func clarkEvans(m *Map) float64 {
	seen := map[[2]int]bool{}
	var pes [][2]int
	for _, f := range m.Faults {
		if pe := [2]int{f.Row, f.Col}; !seen[pe] {
			seen[pe] = true
			pes = append(pes, pe)
		}
	}
	n := len(pes)
	if n < 2 {
		return 1
	}
	var sum float64
	for i, p := range pes {
		best := math.Inf(1)
		for j, q := range pes {
			if i == j {
				continue
			}
			dy := float64(p[0] - q[0])
			dx := float64(p[1] - q[1])
			if d := math.Sqrt(dy*dy + dx*dx); d < best {
				best = d
			}
		}
		sum += best
	}
	observed := sum / float64(n)
	density := float64(n) / float64(m.Rows*m.Cols)
	expected := 0.5 / math.Sqrt(density)
	if expected == 0 {
		return 1
	}
	return observed / expected
}

func TestDefectModelMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := DefectModel{MeanFaulty: 12, Alpha: 2}
	var sum float64
	const trials = 4000
	for i := 0; i < trials; i++ {
		sum += float64(d.SampleFaultyCount(rng))
	}
	mean := sum / trials
	if math.Abs(mean-12) > 1.2 {
		t.Errorf("sampled mean %.2f, want ~12", mean)
	}
}

func TestDefectModelClusteringIncreasesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	variance := func(alpha float64) float64 {
		d := DefectModel{MeanFaulty: 10, Alpha: alpha}
		const trials = 4000
		var sum, sq float64
		for i := 0; i < trials; i++ {
			v := float64(d.SampleFaultyCount(rng))
			sum += v
			sq += v * v
		}
		mean := sum / trials
		return sq/trials - mean*mean
	}
	heavy := variance(0.5) // heavier clustering
	light := variance(8)   // near-Poisson
	if heavy <= light {
		t.Errorf("smaller alpha should give larger variance: %.1f vs %.1f", heavy, light)
	}
}

func TestDefectModelZeroMean(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := DefectModel{MeanFaulty: 0}
	if d.SampleFaultyCount(rng) != 0 {
		t.Error("zero-mean model must produce zero faults")
	}
}

func TestPoissonSampleSmallAndLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var small float64
	for i := 0; i < 2000; i++ {
		small += float64(poissonSample(rng, 3))
	}
	if m := small / 2000; math.Abs(m-3) > 0.3 {
		t.Errorf("Poisson(3) mean %.2f", m)
	}
	var large float64
	for i := 0; i < 2000; i++ {
		large += float64(poissonSample(rng, 200))
	}
	if m := large / 2000; math.Abs(m-200) > 3 {
		t.Errorf("Poisson(200) mean %.2f", m)
	}
	if poissonSample(rng, 0) != 0 {
		t.Error("Poisson(0) must be 0")
	}
}

func TestGammaSampleMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, shape := range []float64{0.5, 1, 3} {
		var sum float64
		const trials = 5000
		for i := 0; i < trials; i++ {
			sum += gammaSample(rng, shape)
		}
		mean := sum / trials
		if math.Abs(mean-shape) > 0.15*shape+0.05 {
			t.Errorf("Gamma(%v) mean %.3f, want ~%v", shape, mean, shape)
		}
	}
}
