package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"falvolt/internal/campaign"
	"falvolt/internal/spec"
)

// TestFigureKindGoldens runs the Fig. 2 and Fig. 5 kinds, the shared
// Fig. 6/7/8 mitigation study and the ablations at a tiny configuration
// through the spec registry (spec.Build, campaign.Run, Render) and
// byte-compares the rendered figures with testdata/<kind>.golden. The
// first line of each golden is the command that produced the rest.
// Every kind is built from one spec base, so they share one suite and
// the three baselines train once, into the cache the cache tests
// reload.
func TestFigureKindGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three baselines")
	}
	for _, kind := range []string{"fig2", "fig5a", "fig5b", "fig5c", "mitigation", "ablations"} {
		t.Run(kind, func(t *testing.T) {
			built, err := spec.Build(goldenSpec(kind), spec.BuildOpts{CacheDir: goldenCache})
			if err != nil {
				t.Fatal(err)
			}
			rr, err := campaign.Run(built.Campaign, campaign.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := built.Render(&got, rr.Results); err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", kind+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			_, want, _ := bytes.Cut(golden, []byte("\n"))
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s figures drifted from golden:\n--- got ---\n%s--- want ---\n%s", kind, got.Bytes(), want)
			}
		})
	}
}

// goldenSpec is the configuration the figure goldens pin: the tiny
// quick suite of `campaign run -c <kind> -quick -array 16 -repeats 1
// -eval 16 -epochs 1`.
func goldenSpec(kind string) *spec.Spec {
	return &spec.Spec{
		Version: spec.Version, Kind: kind, Seed: 7,
		Suite: &spec.SuiteSpec{Quick: true, Array: 16, Epochs: 1, Repeats: 1, Eval: 16},
	}
}

// goldenCache is the baseline cache directory of the golden suite.
var goldenCache string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "experiments-cache")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	goldenCache = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}
