package core

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"falvolt/internal/campaign"
	"falvolt/internal/faults"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
)

// The "sitesweep" campaign kind: SpikeFI-style exhaustive single-site
// vulnerability sweep. One trial per (PE row, PE column, bit, polarity)
// stuck-at site from faults.EnumerateSites, each injecting exactly that
// site and measuring output corruption against a clean twin over a
// short fixed spiking workload — the model-free map of which physical
// sites matter. The workload (weights, spikes) is derived from the
// campaign seed and identical across trials, so cells differ only in
// the injected site and the sweep reproduces bit-identically on any
// shard split or worker count.

// sitesweepSites resolves the (possibly sampled) site universe of a
// sweep — the single definition trial planning and workers share.
func sitesweepSites(d spec.SiteSweepSpec, seed int64) ([]faults.Site, error) {
	var pols []faults.Polarity
	switch d.Pols {
	case "sa0":
		pols = []faults.Polarity{faults.StuckAt0}
	case "sa1":
		pols = []faults.Polarity{faults.StuckAt1}
	}
	sites, err := faults.EnumerateSites(d.Array, d.Array, d.Bits, pols)
	if err != nil {
		return nil, err
	}
	if d.Sample > 0 && d.Sample < len(sites) {
		return faults.SampleSites(sites, d.Sample, seed+3)
	}
	return sites, nil
}

// SiteSweepTrials enumerates the sweep deterministically: sites in
// EnumerateSites order (or the seed-addressed sample), IDs dense. The
// Key groups by (bit, polarity) — the axes the rendered report
// aggregates over — while Tags pin the exact site.
func SiteSweepTrials(d spec.SiteSweepSpec, seed int64) ([]campaign.Trial, error) {
	sites, err := sitesweepSites(d, seed)
	if err != nil {
		return nil, err
	}
	trials := make([]campaign.Trial, len(sites))
	for i, s := range sites {
		trials[i] = campaign.Trial{
			ID:   i,
			Key:  fmt.Sprintf("bit=%02d|pol=%s", s.Bit, s.Pol),
			Seed: seed + 7919*int64(i),
			Tags: map[string]string{
				"row": strconv.Itoa(s.Row),
				"col": strconv.Itoa(s.Col),
				"bit": strconv.Itoa(int(s.Bit)),
				"pol": s.Pol.String(),
			},
		}
	}
	return trials, nil
}

// SiteSweepCampaign builds the runnable campaign for a siteSweep
// section.
func SiteSweepCampaign(cfg spec.SiteSweepSpec, seed int64) (campaign.Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.Defaulted()
	trials, err := SiteSweepTrials(d, seed)
	if err != nil {
		return nil, err
	}
	meta := map[string]string{
		"array":  strconv.Itoa(d.Array),
		"pols":   d.Pols,
		"sample": strconv.Itoa(d.Sample),
	}
	// The workload is the faultmodel campaign's: ragged tiles over a
	// seed-derived spiking input.
	return campaign.NewWithMeta("sitesweep", meta, trials, func(lane int) (campaign.Worker, error) {
		p, err := newCorruptionProbe(d.Array, d.Batch, d.Density, seed)
		if err != nil {
			return nil, err
		}
		return campaign.WorkerFunc(func(t campaign.Trial) (campaign.Result, error) {
			row, err1 := strconv.Atoi(t.Tags["row"])
			col, err2 := strconv.Atoi(t.Tags["col"])
			bit, err3 := strconv.Atoi(t.Tags["bit"])
			if err1 != nil || err2 != nil || err3 != nil {
				return campaign.Result{}, fmt.Errorf("core: trial %d has bad site tags %v", t.ID, t.Tags)
			}
			pol := faults.StuckAt0
			if t.Tags["pol"] == "sa1" {
				pol = faults.StuckAt1
			}
			// One stuck bit on one PE, stepped through the horizon.
			return p.measure(t, d.Timesteps, func(a *systolic.Array) error {
				fm, err := faults.SiteMap(d.Array, d.Array, faults.Site{Row: row, Col: col, Bit: uint(bit), Pol: pol})
				if err != nil {
					return err
				}
				return a.InjectFaults(fm)
			})
		}), nil
	}), nil
}

// siteSweepPoint is one (bit, polarity) row of the rendered report.
type siteSweepPoint struct {
	Bit     int     `json:"bit"`
	Pol     string  `json:"pol"`
	Corrupt float64 `json:"corrupt"`
	MAE     float64 `json:"mae"`
	Max     float64 `json:"max"`
}

// siteSweepReport is the merge-rendered JSON artifact: per-(bit, pol)
// means over all swept PEs.
type siteSweepReport struct {
	Array  int              `json:"array"`
	Sites  int              `json:"sites"`
	Points []siteSweepPoint `json:"points"`
}

func siteSweepJSON(d spec.SiteSweepSpec, results []campaign.Result) (*siteSweepReport, error) {
	corrupt := campaign.GroupMean(results, "corrupt")
	mae := campaign.GroupMean(results, "mae")
	maxm := campaign.GroupMean(results, "max")
	rep := &siteSweepReport{Array: d.Array, Sites: len(results)}
	keys := make([]string, 0, len(corrupt))
	for k := range corrupt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		var bit int
		var pol string
		if _, err := fmt.Sscanf(key, "bit=%d|pol=%s", &bit, &pol); err != nil {
			return nil, fmt.Errorf("core: bad sitesweep key %q", key)
		}
		rep.Points = append(rep.Points, siteSweepPoint{
			Bit:     bit,
			Pol:     pol,
			Corrupt: corrupt[key],
			MAE:     mae[key],
			Max:     maxm[key],
		})
	}
	return rep, nil
}

func renderSiteSweep(w io.Writer, d spec.SiteSweepSpec, results []campaign.Result) error {
	rep, err := siteSweepJSON(d, results)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Single-site sweep: array=%dx%d sites=%d\n", rep.Array, rep.Array, rep.Sites)
	fmt.Fprintf(w, "%-6s %-5s %-12s %-12s %-12s\n", "bit", "pol", "corrupt", "mae", "max")
	for _, p := range rep.Points {
		fmt.Fprintf(w, "%-6d %-5s %-12.4f %-12.4f %-12.4f\n", p.Bit, p.Pol, p.Corrupt, p.MAE, p.Max)
	}
	return nil
}

func init() {
	spec.Register("sitesweep", func(s *spec.Spec, opt spec.BuildOpts) (*spec.Built, error) {
		if s.SiteSweep == nil {
			return nil, fmt.Errorf("core: spec kind %q needs a siteSweep section", s.Kind)
		}
		d := s.SiteSweep.Defaulted()
		cam, err := SiteSweepCampaign(*s.SiteSweep, s.EffectiveSeed())
		if err != nil {
			return nil, err
		}
		return &spec.Built{
			Campaign: cam,
			Render: func(w io.Writer, results []campaign.Result) error {
				return renderSiteSweep(w, d, results)
			},
			JSON: func(results []campaign.Result) (any, error) {
				return siteSweepJSON(d, results)
			},
		}, nil
	})
}
