package experiments

import (
	"fmt"
	"strconv"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/spec"
)

// The "salvage" figure family: head-to-head (fault model × mitigation)
// comparison built on the core salvage campaign. One accuracy figure
// per fault model (rates on X, one series per mitigation plus the
// unmitigated floor), one retraining-cost figure and one
// per-inference-overhead figure across the whole grid. Registered here
// rather than in core because figures are an experiments concept; the
// campaign machinery itself lives in core so cluster workers build it
// without the figure layer.

// salvageKey reproduces the trial Key of one (model, mit, rate) cell.
func salvageKey(model, mit string, rate float64) string {
	return fmt.Sprintf("model=%s|mit=%s|rate=%s", model, mit,
		strconv.FormatFloat(rate, 'g', -1, 64))
}

// SalvageFigures folds merged salvage results into the figure family.
// Means fold per cell via campaign.GroupMean and combine in spec order,
// so the figures are bit-identical however the grid was sharded.
func SalvageFigures(d spec.SalvageCampaignSpec, results []campaign.Result) ([]*Figure, error) {
	d = d.Defaulted()
	labels := core.SalvageMitLabels(d.Mitigations)
	acc := campaign.GroupMean(results, "acc")
	raw := campaign.GroupMean(results, "raw")
	epochs := campaign.GroupMean(results, "epochs")
	mac := campaign.GroupMean(results, "mac")

	note := fmt.Sprintf("array=%dx%d repeats=%d batch=%d", d.Array, d.Array, d.Repeats, d.Batch)
	var figs []*Figure
	for _, model := range d.Models {
		fig := &Figure{
			ID:     "salvage-" + model,
			Title:  fmt.Sprintf("Salvaged accuracy vs %s fault rate, by mitigation", model),
			XLabel: "fault rate",
			YLabel: "accuracy",
			Notes:  []string{note},
		}
		// Unmitigated floor: the raw metric averaged over every
		// mitigation's cells at the same (model, rate) — each cell
		// injects its own seed-addressed instance, so this is the mean
		// over all of them, folded in spec order.
		floor := Series{Label: "unmitigated"}
		for _, rate := range d.Rates {
			sum := 0.0
			for _, mit := range labels {
				sum += raw[salvageKey(model, mit, rate)]
			}
			floor.X = append(floor.X, rate)
			floor.Y = append(floor.Y, sum/float64(len(labels)))
		}
		fig.Series = append(fig.Series, floor)
		for _, mit := range labels {
			s := Series{Label: mit}
			for _, rate := range d.Rates {
				s.X = append(s.X, rate)
				s.Y = append(s.Y, acc[salvageKey(model, mit, rate)])
			}
			fig.Series = append(fig.Series, s)
		}
		figs = append(figs, fig)
	}

	// Cost figures: per-mitigation means across the whole grid.
	gridMean := func(m map[string]float64, mit string) float64 {
		sum, n := 0.0, 0
		for _, model := range d.Models {
			for _, rate := range d.Rates {
				sum += m[salvageKey(model, mit, rate)]
				n++
			}
		}
		return sum / float64(n)
	}
	costFig := func(id, title, ylabel string, m map[string]float64) *Figure {
		fig := &Figure{
			ID:     id,
			Title:  title,
			XLabel: "mitigation",
			YLabel: ylabel,
			XTicks: labels,
			Notes:  []string{note},
		}
		s := Series{Label: ylabel}
		for i, mit := range labels {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, gridMean(m, mit))
		}
		fig.Series = append(fig.Series, s)
		return fig
	}
	figs = append(figs,
		costFig("salvage-epochs", "Retraining epochs spent per salvage", "epochs", epochs),
		costFig("salvage-mac", "Per-inference MAC cycles after salvage", "mac-cycles", mac),
	)
	return figs, nil
}

func init() {
	spec.Register("salvage", func(s *spec.Spec, opt spec.BuildOpts) (*spec.Built, error) {
		if s.Salvage == nil {
			return nil, fmt.Errorf("experiments: spec kind %q needs a salvage section", s.Kind)
		}
		d := s.Salvage.Defaulted()
		cam, err := core.SalvageCampaign(*s.Salvage, s.EffectiveSeed(),
			core.SyntheticYieldFingerprint(d.BaseEpochs),
			core.SyntheticYieldBuild(s.EffectiveSeed(), d.BaseEpochs, d.Array, 0, opt.Log))
		if err != nil {
			return nil, err
		}
		return figureBuilt(cam, func(results []campaign.Result) ([]*Figure, error) {
			return SalvageFigures(d, results)
		}), nil
	})
}
