// Command perfbench is the repository's end-to-end benchmark: paper-scale
// salvage campaigns (internal/core.SalvageCampaign under campaign.Run),
// timed without tracing for the end-to-end metrics and replayed with
// per-call spans for the per-layer metrics. Run it through run.sh from
// the repository root, which builds it from source first:
//
//	bash perfbench/run.sh --workload vuln-mnist --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload vuln-mnist --runs 10 --seconds 30
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The process exits non-zero
// when the outputs fail their correctness check.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"falvolt/internal/tensor"
)

//go:embed pins.json
var pinsJSON []byte

// setupReps is how many times a run builds its dependencies; setup_s is
// the median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one benchmark run.
type runConfig struct {
	w       workload
	sz      sizes
	seed    int64
	seconds float64
	trace   bool
	pinned  []string // per-trial digests to verify; nil checks floors only
	tmpRoot string   // checkpoints go in a fresh directory under here
	spans   string   // trace output path ("" discards spans)
	log     io.Writer
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "workload seed: picks the fault instances")
	seconds := fs.Float64("seconds", 30, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	runs := fs.Int("runs", 0, "run this many back-to-back processes (seeds seed, seed+1, ...) and print each metric's spread")
	pin := fs.Bool("pin", false, "run every planned trial at the default seed and print their digests for pins.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--runs N | --pin]")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *runs > 0 {
		return repeat(args, *runs, *seed, stdout, stderr)
	}
	if *pin {
		return printPins(w, stdout, stderr)
	}

	cfg := runConfig{
		w: w, sz: paperSizes[w.Model], seed: *seed, seconds: *seconds, trace: *trace == 1,
		tmpRoot: filepath.Join(".bench_build", "tmp"), log: stderr,
	}
	if *seed == defaultSeed {
		pins, err := loadPins()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if cfg.pinned = pins[w.Name]; len(cfg.pinned) == 0 {
			fmt.Fprintf(stderr, "perfbench: pins.json has no digests for %s\n", w.Name)
			return 1
		}
	}
	if cfg.trace {
		cfg.spans = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.Name, *seed))
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, env, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, env, rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

func loadPins() (map[string][]string, error) {
	var pins map[string][]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// environment is recorded next to every result.
type environment struct {
	Workload    string `json:"workload"`
	Why         string `json:"why"`
	Seed        int64  `json:"seed"`
	Engine      string `json:"engine"`
	Trials      int    `json:"trials"`       // completed in the timed phase
	ExtraTrials int    `json:"extra_trials"` // scored trials run untimed after it
	Trace       bool   `json:"trace"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPU         string `json:"cpu"`
	Go          string `json:"go"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// printReport prints the environment, every metric by name and unit, and
// the result JSON as the last line.
func printReport(w io.Writer, env environment, rep report) {
	e, _ := json.Marshal(env) // plain struct of strings and numbers
	fmt.Fprintf(w, "env %s\n", e)
	for _, n := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	b, _ := json.Marshal(rep) // metric values are finite: run rejects NaN
	fmt.Fprintf(w, "%s\n", b)
}

func printPins(w workload, stdout, stderr io.Writer) int {
	sz := paperSizes[w.Model]
	if err := tensor.SetDefaultByName(engine); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	s, err := setUp(w, sz)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tr, err := runTimed(w, sz, s.deps, defaultSeed, 24*time.Hour, filepath.Join(".bench_build", "tmp"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	logTrials(stderr, tr.results)
	digests := make([]string, len(tr.results))
	for i, r := range tr.results {
		if digests[i], err = digest(r); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	b, _ := json.Marshal(map[string][]string{w.Name: digests})
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
