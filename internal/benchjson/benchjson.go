// Package benchjson parses `go test -bench` text output into a
// machine-readable ledger. CI pipes the push bench step through
// cmd/cheri-benchjson to publish BENCH_simulator.json, so per-push
// performance (MB/s, sim-cycles, ns/op) is diffable by tooling instead
// of buried in build logs.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -cpu suffix if present (e.g. "BenchmarkDecodeCache/off-8").
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the wall-clock cost per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// MBPerS is the throughput metric (go test's MB/s column, present
	// when the benchmark calls b.SetBytes). Zero when absent.
	MBPerS float64 `json:"mb_per_s,omitempty"`
	// SimCycles is the simulated-cycle custom metric emitted by the
	// ablation benchmarks (must be bit-identical across configurations).
	// Zero when absent.
	SimCycles float64 `json:"sim_cycles,omitempty"`
	// Metrics holds every remaining "<value> <unit>" pair verbatim
	// (B/op, allocs/op, and custom b.ReportMetric units).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Ledger is the top-level JSON document.
type Ledger struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output and returns the parsed ledger.
// Non-benchmark lines (PASS, ok, goos headers, test chatter) are
// ignored. A line starting with "Benchmark" that fails to parse is an
// error: silently dropping a malformed result would make a perf
// regression invisible.
func Parse(r io.Reader) (*Ledger, error) {
	led := &Ledger{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A benchmark result needs at least: name, iterations, value, unit.
		if len(fields) < 4 || len(fields)%2 != 0 {
			return nil, fmt.Errorf("benchjson: malformed benchmark line: %q", line)
		}
		b := Benchmark{Name: fields[0]}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q: %v", line, err)
		}
		b.Iterations = n
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q: %v", fields[i], line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "MB/s":
				b.MBPerS = v
			case "sim-cycles":
				b.SimCycles = v
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		led.Benchmarks = append(led.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return led, nil
}

// Write renders the ledger as indented JSON.
func (l *Ledger) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// Read parses a JSON ledger previously produced by Write.
func Read(r io.Reader) (*Ledger, error) {
	led := &Ledger{}
	if err := json.NewDecoder(r).Decode(led); err != nil {
		return nil, fmt.Errorf("benchjson: reading ledger: %v", err)
	}
	return led, nil
}

// baseKey strips the trailing -<GOMAXPROCS> suffix go test appends to
// benchmark names, so ledgers recorded on hosts with different core
// counts compare by benchmark identity.
func baseKey(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Compare checks current against baseline and returns human-readable
// regression findings (empty when clean). sim-cycles must not change AT
// ALL on any benchmark both ledgers share: simulated cycle counts are
// architectural results, so a drift here is a correctness regression (or
// an intentional change that must be made visible by regenerating the
// committed ledger in the same change). Host throughput is not compared:
// ledgers are recorded on different hosts, so their MB/s figures do not
// compare.
//
// A baseline benchmark missing from current is reported too — a guard
// that silently stops covering a benchmark is itself a regression.
func Compare(baseline, current *Ledger) []string {
	cur := make(map[string]Benchmark, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		cur[baseKey(b.Name)] = b
	}
	var findings []string
	for _, base := range baseline.Benchmarks {
		key := baseKey(base.Name)
		got, ok := cur[key]
		if !ok {
			findings = append(findings,
				fmt.Sprintf("%s: present in baseline but missing from current run", key))
			continue
		}
		if base.SimCycles != 0 && got.SimCycles != base.SimCycles {
			findings = append(findings,
				fmt.Sprintf("%s: sim-cycles changed %v -> %v (simulated architecture must not drift)",
					key, base.SimCycles, got.SimCycles))
		}
	}
	return findings
}
