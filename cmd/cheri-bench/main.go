// Command cheri-bench regenerates the paper's performance evaluation:
// Figure 4 (MiBench/SPEC/initdb overheads), Table 1 (the test suites under
// both ABIs), the system-call micro-benchmarks, the initdb/ASan macro
// comparison, and the CLC large-immediate ablation (§5.2). Figure 4 and
// Table 1 rows are independent whole-machine runs and are sharded across
// a worker pool; output order and values are identical for any -workers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"cheriabi/internal/testsuite"
	"cheriabi/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all", "fig4|table1|syscall|initdb|clc|all")
	seeds := flag.Int("seeds", 3, "number of layout seeds per measurement")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel evaluation workers")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cheri-bench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cheri-bench:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cheri-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cheri-bench:", err)
			}
		}()
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "cheri-bench: -workers must be positive (got %d)\n", *workers)
		os.Exit(2)
	}

	run := func(name string, fn func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "cheri-bench %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("fig4", func() error {
		fmt.Println("Figure 4. CheriABI overhead vs mips64 baseline (median over seeds, IQR)")
		fmt.Printf("%-24s %10s %10s %10s %8s\n", "benchmark", "insts%", "cycles%", "l2miss%", "IQRcyc")
		var seedList []int64
		for i := 0; i < *seeds; i++ {
			seedList = append(seedList, int64(i*7+1))
		}
		rows, err := workload.Figure4Rows(workload.Figure4, seedList, *workers)
		if err != nil {
			return err
		}
		for _, row := range rows {
			fmt.Printf("%-24s %+9.1f%% %+9.1f%% %+9.1f%% %8.1f\n",
				row.Name, row.InstPct, row.CyclePct, row.L2Pct, row.CycleIQR)
		}
		fmt.Println("\nPaper shape: most within noise; pointer-heavy (patricia,")
		fmt.Println("xalancbmk) pay the most; initdb-dynamic ~6.8% cycles.")
		return nil
	})

	run("table1", func() error {
		fmt.Println("\nTable 1. Test-suite results under both ABIs")
		rows, err := testsuite.Table1Parallel(*workers)
		if err != nil {
			return err
		}
		fmt.Print(testsuite.Render(rows))
		return nil
	})

	run("syscall", func() error {
		fmt.Println("\nSystem-call micro-benchmarks (per-call cycles)")
		rows, err := workload.SyscallMicro([]string{"getpid", "read", "write", "select", "fork"}, 1)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %10s %10s %8s\n", "syscall", "mips64", "cheriabi", "delta")
		for _, r := range rows {
			fmt.Printf("%-10s %10.0f %10.0f %+7.1f%%\n", r.Name, r.LegacyCycles, r.CheriCycles, r.DeltaPct)
		}
		fmt.Println("\nPaper: fork +3.4%; select -9.8% (faster under CheriABI).")
		return nil
	})

	run("initdb", func() error {
		fmt.Println("\ninitdb macro-benchmark")
		r, err := workload.Initdb(1)
		if err != nil {
			return err
		}
		fmt.Printf("mips64   %12d cycles   1.00x\n", r.BaseCycles)
		fmt.Printf("cheriabi %12d cycles   %.2fx\n", r.CheriCycles, r.CheriRatio)
		fmt.Printf("asan     %12d cycles   %.2fx\n", r.ASanCycles, r.ASanRatio)
		fmt.Println("\nPaper: CheriABI 1.068x; Address Sanitizer 3.29x.")
		return nil
	})

	run("clc", func() error {
		fmt.Println("\nCLC large-immediate ablation (initdb-dynamic)")
		r, err := workload.CLCAblation("initdb-dynamic", 1)
		if err != nil {
			return err
		}
		fmt.Printf("code size: %d -> %d bytes (%.1f%% smaller)\n",
			r.SmallCodeBytes, r.BigCodeBytes, r.CodeReductionPct)
		fmt.Printf("overhead vs mips64: %.1f%% -> %.1f%%\n", r.OverheadSmallPct, r.OverheadBigPct)
		fmt.Println("\nPaper: >10% code-size reduction; initdb overhead 11% -> 6.8%.")
		return nil
	})
}
