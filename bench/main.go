// Command bench is the simulator's benchmark. It runs one workload for a
// fixed host-time budget, checks every guest output against golden.json
// and the simulated counters of every pass against the first pass, and
// prints one JSON object as its last line of output: the end-to-end
// metrics, or with --trace 1 the per-layer metrics. README.md describes
// the workloads and metrics; run.sh builds and runs it:
//
//	bash bench/run.sh --workload fig4-cheriabi --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in its own process, one after the
// other, so each one's peak RSS is its own.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"cheriabi"
	"cheriabi/internal/cache"
	"cheriabi/internal/cpu"
	"cheriabi/internal/kernel"
	"cheriabi/internal/uaccess"
)

const (
	// setupRuns is how many times a run sets up; setup_s is the median.
	// Each set-up compiles, boots and snapshots the template, and runs one
	// untimed warm-up pass.
	setupRuns = 5
	// minPasses is the fewest timed passes a run makes, however long.
	minPasses = 3
	// spansDir receives <workload>.spans.json from a traced run.
	spansDir = ".bench_build/trace"
)

// passSpans are the layer calls a pass makes; setupSpans those a set-up
// makes. Their self times are reported per pass and per set-up.
var (
	passSpans  = []string{"kernel.clone", "kernel.install", "kernel.spawn", "kernel.run", "kernel.reap", "driver.run_fleet"}
	setupSpans = []string{"cc.compile", "kernel.snapshot"}
)

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "machine layout seed; the fleet's fabric latency seed too")
	seconds := flag.Int("seconds", 10, "host seconds of timed passes")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.Parse()
	args := []string{"--seed", strconv.FormatInt(*seed, 10), "--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace)}
	if *name == "all" {
		os.Exit(runAll(args))
	}
	sp, ok := specByName(*name)
	if !ok || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: bench --workload <name|all> --seed N --seconds S --trace 0|1 (workloads: %s)\n", workloadNames())
		os.Exit(2)
	}
	r, err := measure(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	metrics := endToEnd(r)
	if *trace == 1 {
		metrics = perLayer(r)
		if err := writeSpans(filepath.Join(spansDir, sp.name+".spans.json"), r.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	printJSON(r.detail(sp.name, *seed, *trace == 1))
	printJSON(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if r.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	var s string
	for i, sp := range specs {
		if i > 0 {
			s += ", "
		}
		s += sp.name
	}
	return s
}

// runAll runs every workload in a child process of its own.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, sp := range specs {
		cmd := exec.Command(exe, append([]string{"--workload", sp.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			status = 1
		}
	}
	return status
}

// counts are one pass's simulated and per-layer event counts. They repeat
// exactly from pass to pass for a fixed seed.
type counts struct {
	CPU           cheriabi.Stats // fleet: Cycles is the makespan
	Decode        cpu.DecodeStats
	L1I, L1D, L2  cache.Stats
	DRAM          uint64
	UAccess       uaccess.Stats
	FabricPackets uint64
	FabricBytes   uint64
	// Requests, LatencyP50 and LatencyP99 describe the fleet's requests;
	// latencies are guest-measured round trips in simulated cycles.
	Requests   uint64
	LatencyP50 uint64
	LatencyP99 uint64
}

// addCounts adds every counter of src into dst.
func addCounts(dst, src *counts) { addUints(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()) }

func addUints(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		switch d := dst.Field(i); d.Kind() {
		case reflect.Uint64:
			d.SetUint(d.Uint() + src.Field(i).Uint())
		case reflect.Struct:
			addUints(d, src.Field(i))
		}
	}
}

// run is everything one benchmark run measured. Host times are in
// normalised seconds (probe.go) unless named raw.
type run struct {
	attempted, failed int
	perPass           int      // runs attempted by one pass
	ref               []counts // each unit's counts in the first pass
	total             counts   // one pass's counts
	setupS            []float64
	passes            [][]float64 // untraced passes: each unit's host time
	traced            [][]float64 // traced passes: each unit's host time
	rawPasses         [][]float64 // untraced passes in raw seconds
	probeS            []float64   // every probe run, raw seconds
	mem0, mem1        runtime.MemStats
	spans             []span
	leaves            map[string]int64
}

// measure sets the workload up setupRuns times, then runs timed passes of
// the last set-up for budget. A traced run alternates untraced passes
// with traced and profiled ones, so that drift in host speed falls on
// both alike and the difference is the tracing overhead.
func measure(sp spec, seed int64, budget time.Duration, traced bool) (*run, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	r := &run{leaves: map[string]int64{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// record checks unit i's outcome; the first pass sets the counts
	// every later pass must repeat.
	record := func(i int, o outcome) {
		golden.verify(&o)
		if i == len(r.ref) {
			r.ref = append(r.ref, o.c)
			r.perPass += o.attempted
			addCounts(&r.total, &o.c)
		}
		// The bulk copy path is never off here, so a byte-at-a-time run
		// means it was bypassed.
		if o.c != r.ref[i] || o.c.UAccess.SlowRuns != 0 {
			o.failed = o.attempted
		}
		r.attempted += o.attempted
		r.failed += o.failed
	}
	clock := newProbeClock()
	var units []unit
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		end := tr.begin("bench.setup")
		units, err = sp.setup(seed, tr)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", sp.name, err)
		}
		for j, u := range units {
			record(j, u(nil))
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds()*clock.scale())
	}
	// pass runs every unit once and returns each one's raw and normalised
	// host time. The probe runs once probeEvery of work has accumulated
	// and scales the units since its last run.
	pass := func(tr *tracer) (raw, norm []float64) {
		defer tr.begin("bench.pass")()
		raw, norm = make([]float64, len(units)), make([]float64, len(units))
		from, work := 0, 0.0
		for i, u := range units {
			start := time.Now()
			o := u(tr)
			raw[i] = time.Since(start).Seconds()
			record(i, o)
			if work += raw[i]; work >= probeEvery || i == len(units)-1 {
				scale := clock.scale()
				for j := from; j <= i; j++ {
					norm[j] = raw[j] * scale
				}
				from, work = i+1, 0
			}
		}
		return raw, norm
	}
	runtime.ReadMemStats(&r.mem0)
	for start := time.Now(); len(r.passes) < minPasses || time.Since(start) < budget; {
		raw, norm := pass(nil)
		r.rawPasses = append(r.rawPasses, raw)
		r.passes = append(r.passes, norm)
		if !traced {
			continue
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		_, norm = pass(tr)
		pprof.StopCPUProfile()
		r.traced = append(r.traced, norm)
		leaves, err := leafCounts(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for fn, n := range leaves {
			if fn != probeFunc {
				r.leaves[fn] += n
			}
		}
	}
	runtime.ReadMemStats(&r.mem1)
	r.probeS = clock.probes
	if traced {
		r.spans = tr.spans
	}
	return r, nil
}

// passSeconds is the host time of one pass: the sum over its units of
// each unit's lower-quartile time across passes. Every pass does the same
// work, which the counts check, so the spread between passes is host
// interference, and interference only ever adds time.
func passSeconds(passes [][]float64) float64 {
	if len(passes) == 0 {
		return 0
	}
	var total float64
	col := make([]float64, len(passes))
	for i := range passes[0] {
		for k, p := range passes {
			col[k] = p[i]
		}
		total += nearestRank(col, 25)
	}
	return total
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd returns what a user of the simulator sees: host time per pass
// and the throughputs it implies, set-up time and peak memory. Host times
// are normalised seconds.
func endToEnd(r *run) map[string]metric {
	pass := passSeconds(r.passes)
	c := r.total
	return map[string]metric{
		"guest_mips":      {float64(c.CPU.Instructions) / pass / 1e6, "inst/us"},
		"pass_s_p25":      {pass, "s"},
		"syscalls_per_s":  {float64(c.CPU.Syscalls) / pass, "1/s"},
		"host_us_per_req": {pass * 1e6 / float64(r.perPass), "us"},
		"setup_s":         {nearestRank(r.setupS, 50), "s"},
		"peak_rss_mb":     {peakRSSMiB(), "MiB"},
	}
}

// perLayer returns each layer's counts per pass, the Go runtime's
// allocation and collection per pass, the span self times, and the CPU
// profile's share of host time by layer.
func perLayer(r *run) map[string]metric {
	c, d := r.total, r.total.Decode
	n := func(v uint64) metric { return metric{float64(v), "count"} }
	ratio := func(a, b uint64) metric {
		if b == 0 {
			return metric{0, "ratio"}
		}
		return metric{float64(a) / float64(b), "ratio"}
	}
	passes := float64(len(r.passes) + len(r.traced))
	m := map[string]metric{
		"sim.insts":               n(c.CPU.Instructions),
		"sim.cycles":              n(c.CPU.Cycles),
		"cpu.loads":               n(c.CPU.Loads),
		"cpu.stores":              n(c.CPU.Stores),
		"cpu.cap_loads":           n(c.CPU.CapLoads),
		"cpu.cap_stores":          n(c.CPU.CapStores),
		"cpu.syscalls":            n(c.CPU.Syscalls),
		"cpu.decodes":             n(d.Decodes),
		"cpu.decode_hit_ratio":    ratio(d.Hits, d.Hits+d.Misses),
		"cpu.threaded_ratio":      ratio(d.Threaded, c.CPU.Instructions),
		"cpu.insts_per_block":     ratio(d.Threaded, d.Blocks),
		"cpu.chains":              n(d.Chains),
		"cpu.indirect_hit_ratio":  ratio(d.IndirectHits, d.IndirectHits+d.IndirectMisses),
		"cache.l1i_accesses":      n(c.L1I.Accesses),
		"cache.l1d_accesses":      n(c.L1D.Accesses),
		"cache.l1i_miss_ratio":    ratio(c.L1I.Misses, c.L1I.Accesses),
		"cache.l1d_miss_ratio":    ratio(c.L1D.Misses, c.L1D.Accesses),
		"cache.l2_miss_ratio":     ratio(c.L2.Misses, c.L2.Accesses),
		"cache.dram_accesses":     n(c.DRAM),
		"uaccess.fast_runs":       n(c.UAccess.FastRuns),
		"fabric.packets":          n(c.FabricPackets),
		"fabric.payload_bytes":    n(c.FabricBytes),
		"fabric.packets_per_req":  ratio(c.FabricPackets, c.Requests),
		"go.alloc_mb_per_pass":    {float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / passes / (1 << 20), "MiB"},
		"go.gc_per_pass":          {float64(r.mem1.NumGC-r.mem0.NumGC) / passes, "count"},
		"go.gc_pause_ms_per_pass": {float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / passes / 1e6, "ms"},
		"trace.overhead_pct":      {100 * (passSeconds(r.traced)/passSeconds(r.passes) - 1), "%"},
	}
	self := selfTimes(r.spans)
	for _, s := range setupSpans {
		m[s+"_ms"] = metric{float64(self[s]) / 1e6 / setupRuns, "ms"}
	}
	for _, s := range passSpans {
		m[s+"_ms"] = metric{float64(self[s]) / 1e6 / float64(max(len(r.traced), 1)), "ms"}
	}
	for b, v := range layerShares(r.leaves) {
		m["prof."+b+"_pct"] = metric{v, "%"}
	}
	return m
}

// detail is the line before the result: the run's shape, its simulated
// metrics (which must match exactly between two builds at one seed) and
// the raw counts every ratio is built from.
type detail struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	Passes    int     `json:"passes"`
	ErrorRate float64 `json:"error_rate"`
	// RawPassS is pass_s_p25 in raw host seconds; ProbeS is the median
	// raw time of the probe runs that normalise it.
	RawPassS float64            `json:"raw_pass_s_p25"`
	ProbeS   float64            `json:"probe_s_p50"`
	Sim      map[string]float64 `json:"sim"`
	Counts   counts             `json:"counts"`
}

func (r *run) detail(workload string, seed int64, traced bool) detail {
	c := r.total
	sim := map[string]float64{
		"sim_insts":  float64(c.CPU.Instructions),
		"sim_cycles": float64(c.CPU.Cycles),
	}
	if c.Requests > 0 {
		sim["sim_p50_us"] = simUS(c.LatencyP50)
		sim["sim_p99_us"] = simUS(c.LatencyP99)
		sim["sim_req_per_s"] = float64(c.Requests) * kernel.ClockHz / float64(c.CPU.Cycles)
	}
	return detail{
		Workload:  workload,
		Seed:      seed,
		Trace:     traced,
		Passes:    len(r.passes) + len(r.traced),
		ErrorRate: float64(r.failed) / float64(max(r.attempted, 1)),
		RawPassS:  passSeconds(r.rawPasses),
		ProbeS:    nearestRank(r.probeS, 50),
		Sim:       sim,
		Counts:    c,
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every printed type marshals
	}
	fmt.Println(string(b))
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
