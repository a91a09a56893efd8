package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"cheriabi"
	"cheriabi/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden.json from the outputs of seed 1")

// TestUpdateGolden regenerates golden.json when run with -update; the
// benchmark itself never writes its pins.
func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite golden.json")
	}
	g := goldenPins{Programs: map[string]observation{}}
	for _, sp := range specs {
		units, err := sp.setup(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			o := u(nil)
			if o.failed != 0 {
				t.Fatalf("%s %s: %d of %d runs failed", sp.name, o.key, o.failed, o.attempted)
			}
			if o.key != "" {
				g.Programs[o.key] = o.obs
			} else {
				g.Fleet = o.fleet
			}
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadsSmoke sets every workload up twice and runs one pass of
// each: every output must match its pin, and every unit's simulated and
// per-layer counts must be identical in the two passes.
func TestWorkloadsSmoke(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			var first []counts
			for i := 0; i < 2; i++ {
				units, err := sp.setup(1, nil)
				if err != nil {
					t.Fatal(err)
				}
				for j, u := range units {
					o := u(nil)
					golden.verify(&o)
					if o.failed != 0 || o.attempted == 0 {
						t.Fatalf("%s: %d of %d runs failed", o.key, o.failed, o.attempted)
					}
					if i == 0 {
						first = append(first, o.c)
					} else if o.c != first[j] {
						t.Fatalf("%s: counts differ between runs:\n%+v\n%+v", o.key, first[j], o.c)
					}
				}
			}
		})
	}
}

// TestSimCyclesMatchWorkloadRun pins the benchmark's per-program counters
// to workload.Run's for the same program, ABI and seed.
func TestSimCyclesMatchWorkloadRun(t *testing.T) {
	w, _ := workload.ByName("auto-basicmath")
	opt := workload.BuildOptions{ABI: cheriabi.ABICheri}
	want, err := workload.Run(w, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	exe, libs, err := workload.Build(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := runProgram(nil, snap, machineConfig(1), program{w: w, exe: exe, libs: libs})
	if err != nil {
		t.Fatal(err)
	}
	if c.CPU.Cycles != 8_847_070 || c.CPU.Cycles != want.Cycles || c.CPU.Instructions != want.Instructions {
		t.Fatalf("bench: %d cycles %d insts; workload.Run: %d cycles %d insts; want 8847070 cycles",
			c.CPU.Cycles, c.CPU.Instructions, want.Cycles, want.Instructions)
	}
}

func TestNearestRank(t *testing.T) {
	vals := make([]uint64, 3072)
	for i := range vals {
		vals[len(vals)-1-i] = uint64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want uint64
	}{{50, 1536}, {99, 3042}, {100, 3072}, {0, 1}} {
		if got := nearestRank(vals, tc.p); got != tc.want {
			t.Errorf("p%v = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := nearestRank([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := nearestRank([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("nearest-rank median of 4 = %v, want 2", got)
	}
	if got := nearestRank[float64](nil, 50); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, Name: "a", StartNS: 20, EndNS: 50}, // overlaps the first
		{ID: 3, Parent: 0, Name: "b", StartNS: 60, EndNS: 70},
		{ID: 4, Parent: 3, Name: "c", StartNS: 62, EndNS: 65},
		{ID: 5, Parent: 0, Name: "b", StartNS: 90, EndNS: 120}, // ends after its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{"pass": 100 - 40 - 10 - 10, "a": 20 + 30, "b": 10 - 3 + 30, "c": 3}
	if !maps.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	endOuter := tr.begin("outer")
	tr.nextReq()
	endInner := tr.begin("inner")
	endInner()
	endOuter()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Req != 1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	var none *tracer
	none.begin("x")()
	none.nextReq()
}

//go:noinline
func burnCPU(d time.Duration) uint64 {
	var x uint64 = 1
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestLeafCounts decodes a CPU profile this test captures: most samples
// must land in the function it spins in.
func TestLeafCounts(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	leaves, err := leafCounts(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burn int64
	for fn, n := range leaves {
		total += n
		if strings.HasSuffix(fn, ".burnCPU") {
			burn += n
		}
	}
	if total < 10 || burn*2 < total {
		t.Fatalf("burnCPU has %d of %d samples: %v", burn, total, leaves)
	}
	var sum float64
	for _, v := range layerShares(leaves) {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if _, err := leafCounts(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cheriabi/internal/cpu.(*CPU).runBlock":   "cpu",
		"cheriabi/internal/cache.(*Cache).access": "cache",
		"cheriabi/internal/isa.Decode":            "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"main.measure":                            "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics checks that the root BENCHMARK.json
// declares exactly the metrics the benchmark prints, with their units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, strings.Split(workloadNames(), ", ")) {
		t.Errorf("workloads %v, benchmark has %s", names, workloadNames())
	}
	r := &run{perPass: 1, setupS: []float64{1}, passes: [][]float64{{1}}, traced: [][]float64{{1}}}
	for _, tc := range []struct {
		decls []decl
		got   map[string]metric
	}{{bj.EndToEnd, endToEnd(r)}, {bj.PerLayer, perLayer(r)}} {
		declared := map[string]string{}
		for _, d := range tc.decls {
			declared[d.Name] = d.Unit
		}
		printed := map[string]string{}
		for name, m := range tc.got {
			printed[name] = m.Unit
		}
		if !maps.Equal(declared, printed) {
			t.Errorf("BENCHMARK.json declares %v\nbenchmark prints %v", declared, printed)
		}
	}
}
