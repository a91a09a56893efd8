// Command compare judges an A/B of the benchmark. Each directory holds
// the standard output of benchmark runs, one file per run; A is the
// parent, B the change. Runs pair up in file-name order, so name them in
// the order they ran and alternate the sides. For every workload and
// metric it prints each side's quartiles, the fraction of pairs B wins
// and a verdict:
//
//   - gain: B wins at least nine pairs in ten and the medians differ by
//     more than A's interquartile range;
//   - regression: B's median is worse than A's by more than the metric's
//     bound in BENCHMARK.json (0 for a per-layer metric);
//   - unresolved: A's interquartile range is wider than the bound and not
//     every B run beats every A run;
//   - no change: none of these.
//
// It also checks that the simulated metrics of every run are identical.
// It exits 1 on a regression, a simulated difference or a failed run.
//
//	go run ./compare [-benchmark ../BENCHMARK.json] A B
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

type metricDecl struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runOut is what compare reads from one run's output: the detail line's
// workload and simulated metrics, and the result line.
type runOut struct {
	Workload string                             `json:"workload"`
	Sim      map[string]float64                 `json:"sim"`
	Correct  *bool                              `json:"correct"`
	Metrics  map[string]struct{ Value float64 } `json:"metrics"`
}

func main() {
	bench := flag.String("benchmark", "../BENCHMARK.json", "the benchmark's declaration")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] A B")
		os.Exit(2)
	}
	decls, err := readDecls(*bench)
	if err != nil {
		fatal(err)
	}
	a, err := readSide(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := readSide(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	bad := false
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, w := range slices.Sorted(maps.Keys(a)) {
		ra, rb := a[w], b[w]
		if len(rb) == 0 {
			fmt.Fprintf(tw, "%s: no B runs\n", w)
			bad = true
			continue
		}
		sim := "sim identical"
		if !simEqual(append(slices.Clone(ra), rb...)) {
			sim, bad = "sim DIFFERS", true
		}
		if failed := countFailed(ra) + countFailed(rb); failed > 0 {
			sim += fmt.Sprintf(", %d runs incorrect", failed)
			bad = true
		}
		fmt.Fprintf(tw, "%s: %d A runs, %d B runs, %s\n", w, len(ra), len(rb), sim)
		fmt.Fprintln(tw, "  metric\tA p25\tA p50\tA p75\tB p25\tB p50\tB p75\tB wins\tverdict")
		for _, d := range decls {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			v, wins := verdict(va, vb, d.Better == "higher", d.Bound)
			if v == "regression" {
				bad = true
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.2f\t%s\n",
				d.Name, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], wins, v)
		}
	}
	tw.Flush()
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}

func readDecls(path string) ([]metricDecl, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj struct {
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(bj.EndToEnd, bj.PerLayer...), nil
}

// readSide reads every run in dir, grouped by workload, in file-name order.
func readSide(dir string) (map[string][]runOut, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	slices.Sort(names)
	out := map[string][]runOut{}
	for _, name := range names {
		r, err := readRun(name)
		if err != nil {
			return nil, err
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", dir)
	}
	return out, nil
}

// readRun merges every JSON line of one run's output.
func readRun(path string) (runOut, error) {
	f, err := os.Open(path)
	if err != nil {
		return runOut{}, err
	}
	defer f.Close()
	var r runOut
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line runOut
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // not a JSON line
		}
		if line.Workload != "" {
			r.Workload, r.Sim = line.Workload, line.Sim
		}
		if line.Metrics != nil {
			r.Correct, r.Metrics = line.Correct, line.Metrics
		}
	}
	if err := sc.Err(); err != nil {
		return runOut{}, fmt.Errorf("%s: %w", path, err)
	}
	if r.Workload == "" || r.Metrics == nil {
		return runOut{}, fmt.Errorf("%s: not a benchmark run's output", path)
	}
	return r, nil
}

func simEqual(rs []runOut) bool {
	for _, r := range rs[1:] {
		if !maps.Equal(r.Sim, rs[0].Sim) {
			return false
		}
	}
	return true
}

func countFailed(rs []runOut) int {
	n := 0
	for _, r := range rs {
		if r.Correct == nil || !*r.Correct {
			n++
		}
	}
	return n
}

func values(rs []runOut, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) computes them.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - 4*j)
		lo, hi := s[min(max(j-1, 0), n-1)], s[min(j, n-1)]
		q[i-1] = (lo*(4-delta) + hi*delta) / 4
	}
	return q
}

// verdict applies the rule in the package comment to A runs a and B runs
// b, and returns the fraction of pairs B wins.
func verdict(a, b []float64, higher bool, bound float64) (string, float64) {
	better := func(x, y float64) bool { return (higher && x > y) || (!higher && x < y) }
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	qa, qb := quartiles(a), quartiles(b)
	gain := qb[1] - qa[1] // how much better B's median is
	if !higher {
		gain = -gain
	}
	spread, limit := qa[2]-qa[0], bound*math.Abs(qa[1])
	allBetter := slices.Max(b) < slices.Min(a)
	if higher {
		allBetter = slices.Min(b) > slices.Max(a)
	}
	frac := float64(wins) / float64(pairs)
	switch {
	case 10*wins >= 9*pairs && gain > spread:
		return "gain", frac
	case -gain > limit:
		return "regression", frac
	case spread > limit && !allBetter:
		return "unresolved", frac
	}
	return "no change", frac
}
