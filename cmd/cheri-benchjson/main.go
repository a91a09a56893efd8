// Command cheri-benchjson converts `go test -bench` text output into a
// machine-readable JSON ledger. CI pipes the push bench step through it
// to refresh BENCH_simulator.json (MB/s, sim-cycles, ns/op per
// benchmark), which is committed at the repository root:
//
//	go test -bench ... | tee bench.txt
//	cheri-benchjson -in bench.txt -out BENCH_simulator.json
//
// With -baseline it additionally compares the fresh results against a
// committed ledger and exits non-zero on a regression: any sim-cycles
// drift on a shared benchmark (simulated cycle counts are architectural
// results and must not move unless the committed ledger is regenerated
// in the same change), or a baseline benchmark missing from the fresh
// results. Throughput is not compared, because the committed ledger
// comes from another host:
//
//	cheri-benchjson -in bench.txt -baseline BENCH_simulator.json
//
// With no flags it reads stdin and writes stdout, so it also composes
// with a plain pipe.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cheriabi/internal/benchjson"
)

func main() {
	in := flag.String("in", "", "bench output file to read (default stdin)")
	out := flag.String("out", "", "JSON file to write (default stdout)")
	baseline := flag.String("baseline", "", "committed JSON ledger to compare against; regressions exit non-zero")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cheri-benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	led, err := benchjson.Parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cheri-benchjson:", err)
		os.Exit(1)
	}
	if len(led.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "cheri-benchjson: no benchmark results in input")
		os.Exit(1)
	}
	if *baseline != "" {
		bf, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cheri-benchjson:", err)
			os.Exit(1)
		}
		base, err := benchjson.Read(bf)
		bf.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cheri-benchjson:", err)
			os.Exit(1)
		}
		if findings := benchjson.Compare(base, led); len(findings) != 0 {
			for _, f := range findings {
				fmt.Fprintln(os.Stderr, "cheri-benchjson: REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cheri-benchjson: %d benchmarks checked against %s, no regressions\n",
			len(base.Benchmarks), *baseline)
		if *out == "" {
			return // compare-only invocation: no ledger rewrite wanted
		}
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cheri-benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := led.Write(w); err != nil {
		fmt.Fprintln(os.Stderr, "cheri-benchjson:", err)
		os.Exit(1)
	}
}
