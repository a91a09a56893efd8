// Command cheri-bodiag regenerates the paper's Table 3: BOdiagsuite
// detections under mips64, CheriABI, and AddressSanitizer. The 291×4×3
// sweep is sharded across a worker pool (one freshly booted System per
// run); the aggregated table is identical for any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"cheriabi/internal/bodiag"
)

func main() {
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel evaluation workers")
	flag.Parse()
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "cheri-bodiag: -workers must be positive (got %d)\n", *workers)
		os.Exit(2)
	}

	cases := bodiag.Generate()
	fmt.Printf("Running BOdiagsuite: %d cases x 4 variants x 3 environments (%d workers)\n",
		len(cases), *workers)
	res, err := bodiag.RunParallel(cases, bodiag.Envs, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cheri-bodiag:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Println("Table 3. BOdiagsuite tests with detected errors")
	fmt.Print(res.Render())
	if res.OKFailures > 0 {
		fmt.Printf("\nWARNING: %d correct variants misbehaved:\n", res.OKFailures)
		for _, f := range res.Failures {
			fmt.Println(" ", f)
		}
		os.Exit(1)
	}
	fmt.Println("\nPaper reference:")
	fmt.Println("             min    med  large")
	fmt.Println("mips64         4      8    175")
	fmt.Println("cheriabi     279    289    291")
	fmt.Println("asan         276    286    286")
}
