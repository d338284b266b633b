package spec

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"falvolt/internal/campaign"
)

// The registry maps spec kinds to builders, so "spec -> runnable
// campaign" construction exists in exactly one place per kind. Packages
// that own a campaign register it from init: experiments registers the
// figure sweeps and "salvage", core registers "yield", "faultsim",
// "falvolt", "faultmodel" and "sitesweep", this package registers
// "selftest". Any binary that links the owning package can build the
// kind — locally, at a coordinator, or at a spec-free cluster worker.

// BuildOpts carries the execution-local resources a builder may use.
// Nothing here affects results: two builds of the same canonical spec
// with different opts produce campaigns with identical trials, results
// and metadata.
type BuildOpts struct {
	// CacheDir persists trained baselines between runs ("" disables).
	CacheDir string
	// Log receives progress lines (nil silences).
	Log io.Writer
}

// Built is a campaign constructed from a Spec, plus its output
// renderers. Build fills nil renderers with canonical-result-JSON
// fallbacks, so callers can use them unconditionally.
type Built struct {
	// Campaign is the runnable campaign. Its checkpoint metadata
	// includes the canonical spec under the "spec" key, so any merged
	// checkpoint can be re-rendered by Build alone.
	Campaign campaign.Campaign
	// Render writes the kind's human-readable report (figures, yield
	// report) for a complete merged result set.
	Render func(w io.Writer, results []campaign.Result) error
	// JSON returns the kind's structured artifact (figures, yield
	// report) for -json outputs.
	JSON func(results []campaign.Result) (any, error)
	// Save writes the network the kind's trial left behind to path
	// (`campaign run -save`). Only the falvolt kind sets it, to save the
	// mitigated network; it fails when the trial did not run in this
	// process, e.g. when it was resumed from a checkpoint.
	Save func(path string) error
}

// Builder constructs a campaign (and its renderers) from a validated
// spec of the registered kind.
type Builder func(s *Spec, opt BuildOpts) (*Built, error)

var (
	regMu    sync.Mutex
	registry = map[string]Builder{}
)

// Register binds a kind to its builder. It panics on a duplicate or
// empty kind: registration happens from package init, so a collision is
// a programming error, not a runtime condition.
func Register(kind string, b Builder) {
	if kind == "" || b == nil {
		panic("spec: Register needs a kind and a builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("spec: kind %q registered twice", kind))
	}
	registry[kind] = b
}

// Kinds lists the registered campaign kinds, sorted.
func Kinds() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// specMetaCampaign augments a built campaign's checkpoint metadata with
// the canonical spec, so every checkpoint header written through Build
// records the exact experiment it belongs to — resume/merge
// compatibility compares it, and `campaign merge` rebuilds the
// renderers from it without any matching flags.
type specMetaCampaign struct {
	campaign.Campaign
	meta map[string]string
}

// Meta implements campaign.MetaProvider.
func (c specMetaCampaign) Meta() map[string]string { return c.meta }

// Build validates the spec, dispatches to the kind's registered
// builder, embeds the canonical spec into the campaign's metadata, and
// fills renderer fallbacks. It is the single construction path shared
// by every cmd tool, coordinator and cluster worker.
func Build(s *Spec, opt BuildOpts) (*Built, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	regMu.Lock()
	b, ok := registry[s.Kind]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("spec: unknown kind %q (registered: %s)", s.Kind, strings.Join(Kinds(), " "))
	}
	built, err := b(s, opt)
	if err != nil {
		return nil, err
	}
	canonical, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	meta := map[string]string{"spec": string(canonical)}
	if mp, ok := built.Campaign.(campaign.MetaProvider); ok {
		for k, v := range mp.Meta() {
			meta[k] = v
		}
		meta["spec"] = string(canonical)
	}
	built.Campaign = specMetaCampaign{Campaign: built.Campaign, meta: meta}
	if built.Render == nil {
		built.Render = func(w io.Writer, results []campaign.Result) error {
			b, err := campaign.MarshalResults(results)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, string(b))
			return err
		}
	}
	if built.JSON == nil {
		built.JSON = func(results []campaign.Result) (any, error) {
			return campaign.SortedResults(results), nil
		}
	}
	return built, nil
}

// FromMeta rebuilds a campaign's spec from checkpoint-header metadata
// (the "spec" key Build embeds). It is how `campaign merge` recovers
// renderers from shard files alone.
func FromMeta(meta map[string]string) (*Spec, error) {
	raw, ok := meta["spec"]
	if !ok || raw == "" {
		return nil, fmt.Errorf("spec: checkpoint metadata carries no spec (written by a pre-spec build?)")
	}
	return Decode([]byte(raw))
}

func init() {
	Register("selftest", func(s *Spec, opt BuildOpts) (*Built, error) {
		n, delay := 24, 0
		if s.Selftest != nil {
			if s.Selftest.Trials > 0 {
				n = s.Selftest.Trials
			}
			if s.Selftest.DelayMillis < 0 {
				return nil, fmt.Errorf("spec: selftest delayMillis must be >= 0, got %d", s.Selftest.DelayMillis)
			}
			delay = s.Selftest.DelayMillis
		}
		return &Built{Campaign: campaign.SyntheticWithDelay(n, s.EffectiveSeed(), delay)}, nil
	})
}
