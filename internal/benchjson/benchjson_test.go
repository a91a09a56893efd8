package benchjson

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: cheriabi
cpu: Intel(R) Xeon(R) CPU
BenchmarkSimulator 	       5	  61790230 ns/op	  47.28 MB/s
BenchmarkDecodeCache/off-8 	       3	  59327307 ns/op	  49.25 MB/s	  8847070 sim-cycles
BenchmarkCopyInOut/bulk 	      12	   1032100 ns/op	2901.55 MB/s	     120 B/op	       3 allocs/op
BenchmarkPollStorm/idle=4 	       3	  10000000 ns/op	      4072 sim-cycles/wake
PASS
ok  	cheriabi	12.345s
`

func TestParse(t *testing.T) {
	led, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(led.Benchmarks))
	}
	b := led.Benchmarks[0]
	if b.Name != "BenchmarkSimulator" || b.Iterations != 5 ||
		b.NsPerOp != 61790230 || b.MBPerS != 47.28 {
		t.Fatalf("BenchmarkSimulator parsed wrong: %+v", b)
	}
	b = led.Benchmarks[1]
	if b.Name != "BenchmarkDecodeCache/off-8" || b.SimCycles != 8847070 || b.MBPerS != 49.25 {
		t.Fatalf("sub-benchmark parsed wrong: %+v", b)
	}
	b = led.Benchmarks[2]
	if b.Metrics["B/op"] != 120 || b.Metrics["allocs/op"] != 3 {
		t.Fatalf("benchmem metrics parsed wrong: %+v", b)
	}
	b = led.Benchmarks[3]
	if b.Metrics["sim-cycles/wake"] != 4072 {
		t.Fatalf("custom metric parsed wrong: %+v", b)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkBroken 	 notanumber 	 12 ns/op",
		"BenchmarkBroken 	 5 	 12",
		"BenchmarkBroken 	 5 	 twelve ns/op",
	} {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", line)
		}
	}
}

func TestWriteRoundTrips(t *testing.T) {
	led, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := led.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var got Ledger
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(got.Benchmarks) != len(led.Benchmarks) {
		t.Fatalf("round trip lost benchmarks: %d != %d", len(got.Benchmarks), len(led.Benchmarks))
	}
	if got.Benchmarks[1].SimCycles != 8847070 {
		t.Fatalf("sim-cycles lost in round trip: %+v", got.Benchmarks[1])
	}
}

func TestReadRoundTrips(t *testing.T) {
	led, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := led.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(led.Benchmarks) || got.Benchmarks[0].MBPerS != 47.28 {
		t.Fatalf("Read round trip wrong: %+v", got)
	}
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Fatal("Read accepted malformed JSON")
	}
}

func TestBaseKey(t *testing.T) {
	for name, want := range map[string]string{
		"BenchmarkSimulator":         "BenchmarkSimulator",
		"BenchmarkSimulator-8":       "BenchmarkSimulator",
		"BenchmarkSimulator-128":     "BenchmarkSimulator",
		"BenchmarkDecodeCache/on-16": "BenchmarkDecodeCache/on",
		"BenchmarkPollStorm/idle=4":  "BenchmarkPollStorm/idle=4",
		"BenchmarkCopyInOut/bulk-x":  "BenchmarkCopyInOut/bulk-x",
	} {
		if got := baseKey(name); got != want {
			t.Errorf("baseKey(%q) = %q, want %q", name, got, want)
		}
	}
}

func ledger(bs ...Benchmark) *Ledger { return &Ledger{Benchmarks: bs} }

func TestCompareClean(t *testing.T) {
	base := ledger(
		Benchmark{Name: "BenchmarkSimulator-8", MBPerS: 50},
		Benchmark{Name: "BenchmarkDecodeCache/on-8", MBPerS: 44, SimCycles: 8847070},
	)
	// Different -cpu suffix, identical sim-cycles: clean whatever the
	// throughput, which is not compared.
	cur := ledger(
		Benchmark{Name: "BenchmarkSimulator-16", MBPerS: 20},
		Benchmark{Name: "BenchmarkDecodeCache/on-16", MBPerS: 10, SimCycles: 8847070},
	)
	if findings := Compare(base, cur); len(findings) != 0 {
		t.Fatalf("clean comparison produced findings: %v", findings)
	}
}

func TestCompareFindsRegressions(t *testing.T) {
	base := ledger(
		Benchmark{Name: "BenchmarkSimulator-8", MBPerS: 50},
		Benchmark{Name: "BenchmarkDecodeCache/on-8", MBPerS: 44, SimCycles: 8847070},
		Benchmark{Name: "BenchmarkDecodeCache/off-8", SimCycles: 100},
	)
	cur := ledger(
		Benchmark{Name: "BenchmarkSimulator-8", MBPerS: 40},
		// sim-cycles drift.
		Benchmark{Name: "BenchmarkDecodeCache/on-8", MBPerS: 44, SimCycles: 8847071},
		// BenchmarkDecodeCache/off missing entirely.
	)
	findings := Compare(base, cur)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
	for i, want := range []string{"sim-cycles changed", "missing from current"} {
		found := false
		for _, f := range findings {
			if strings.Contains(f, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("finding %d: no finding mentions %q: %v", i, want, findings)
		}
	}
}
