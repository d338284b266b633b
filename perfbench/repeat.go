package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeat runs the benchmark n times back to back, each in a fresh
// process with the next seed, and prints every metric's median,
// quartiles, spread (quartile distance over median) and max/min ratio:
// the evidence that the benchmark is steady.
func repeat(args []string, n int, seed int64, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Drop --runs and --seed; every child gets its own seed.
	var child []string
	for i := 0; i < len(args); i++ {
		key, _, inline := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if key != "runs" && key != "seed" {
			child = append(child, args[i])
		} else if !inline {
			i++ // skip the flag's value
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	bad := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		var out bytes.Buffer
		cmd := exec.Command(self, append(child, "--seed", strconv.FormatInt(s, 10))...)
		cmd.Stdout, cmd.Stderr = &out, io.Discard
		runErr := cmd.Run()
		var rep report
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || runErr != nil || !rep.Correct {
			fmt.Fprintf(stdout, "run %d (seed %d): failed (%v)\n", i+1, s, runErr)
			bad++
			continue
		}
		var line strings.Builder
		fmt.Fprintf(&line, "run %d (seed %d): %d trials, %d failed;", i+1, s, rep.Attempted, rep.Failed)
		for _, name := range sortedKeys(rep.Metrics) {
			m := rep.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Fprintf(&line, " %s=%.6g", name, m.Value)
		}
		fmt.Fprintln(stdout, line.String())
	}
	names := sortedKeys(values)
	fmt.Fprintf(stdout, "%-28s %-6s %12s %12s %12s %8s %8s\n", "metric", "unit", "median", "q1", "q3", "spread", "max/min")
	for _, name := range names {
		v := values[name]
		med := median(v)
		q1, q3 := quartiles(v)
		s := sorted(v)
		fmt.Fprintf(stdout, "%-28s %-6s %12.6g %12.6g %12.6g %8.4f %8.4f\n",
			name, units[name], med, q1, q3, (q3-q1)/med, s[len(s)-1]/s[0])
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d of %d runs failed\n", bad, n)
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
