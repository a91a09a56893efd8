// Command cheri-run compiles a MiniC source file — or builds a named
// Figure 4 workload — and runs it on the simulated machine under the
// selected ABI.
//
// Usage:
//
//	cheri-run [-abi mips64|cheriabi] [-asan] [-stats] file.c [args...]
//	cheri-run [flags] -workload posix-sockets
//	cheri-run -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cheriabi"
	"cheriabi/internal/workload"
)

func workloadNames() []string {
	names := make([]string, 0, len(workload.Figure4))
	for _, w := range workload.Figure4 {
		names = append(names, w.Name)
	}
	return names
}

func main() {
	abiFlag := flag.String("abi", "cheriabi", "process ABI: mips64 or cheriabi")
	asan := flag.Bool("asan", false, "instrument with AddressSanitizer (mips64 only)")
	stats := flag.Bool("stats", false, "print architectural statistics")
	seed := flag.Int64("seed", 0, "layout perturbation seed")
	runs := flag.Int("runs", 1, "repeat the program across n machines with seeds seed..seed+n-1")
	snapshot := flag.Bool("snapshot", true,
		"with -runs > 1, clone each machine from one shared pre-booted snapshot; false cold-boots per run")
	wlName := flag.String("workload", "", "run a named Figure 4 workload instead of a source file")
	list := flag.Bool("list", false, "list the runnable workload names and exit")
	flag.Parse()
	if *list {
		fmt.Println("workloads (run with -workload <name>):")
		for _, name := range workloadNames() {
			fmt.Println("  " + name)
		}
		return
	}

	abi, err := cheriabi.ParseABI(*abiFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cheri-run:", err)
		os.Exit(2)
	}

	var img *cheriabi.Image
	var findings []cheriabi.Finding
	var libs []*cheriabi.Image
	var args []string
	if *wlName != "" {
		w, ok := workload.ByName(*wlName)
		if !ok {
			fmt.Fprintf(os.Stderr, "cheri-run: unknown workload %q; valid names: %s\n",
				*wlName, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		var err error
		img, libs, err = workload.Build(w, workload.BuildOptions{ABI: abi, ASan: *asan})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cheri-run:", err)
			os.Exit(1)
		}
		args = append([]string{w.Name}, w.Args...)
	} else {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: cheri-run [-abi mips64|cheriabi] [-asan] [-stats] file.c [args...]")
			fmt.Fprintln(os.Stderr, "       cheri-run [flags] -workload <name>   (see -list)")
			os.Exit(2)
		}
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cheri-run:", err)
			os.Exit(1)
		}
		img, findings, err = cheriabi.Compile(cheriabi.CompileOptions{
			Name: "a.out", ABI: abi, ASan: *asan,
		}, string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cheri-run:", err)
			os.Exit(1)
		}
		args = flag.Args()
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "warning: %s\n", f)
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "cheri-run: -runs must be positive")
		os.Exit(2)
	}
	// With -runs > 1 and -snapshot, boot one template machine and stamp
	// each run's machine as a copy-on-write clone (the seed is a clone-time
	// knob, so one snapshot serves every run).
	var snap *cheriabi.Snapshot
	if *runs > 1 && *snapshot {
		var err error
		snap, err = cheriabi.NewSystem(cheriabi.Config{}).Snapshot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cheri-run:", err)
			os.Exit(1)
		}
	}
	exitCode := 0
	for i := 0; i < *runs; i++ {
		cfg := cheriabi.Config{Seed: *seed + int64(i), Console: os.Stdout}
		var sys *cheriabi.System
		if snap != nil {
			sys = snap.Clone(cfg)
		} else {
			sys = cheriabi.NewSystem(cfg)
		}
		for _, lib := range libs {
			if _, err := sys.Install(lib); err != nil {
				fmt.Fprintln(os.Stderr, "cheri-run:", err)
				os.Exit(1)
			}
		}
		res, err := sys.RunImage(img, args...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cheri-run:", err)
			os.Exit(1)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "\nseed=%d instructions=%d cycles=%d loads=%d stores=%d caploads=%d capstores=%d syscalls=%d l2miss=%d\n",
				*seed+int64(i), res.Stats.Instructions, res.Stats.Cycles, res.Stats.Loads, res.Stats.Stores,
				res.Stats.CapLoads, res.Stats.CapStores, res.Stats.Syscalls, sys.L2Misses())
		}
		if res.Signal != 0 {
			fmt.Fprintf(os.Stderr, "cheri-run: killed by signal %d\n", res.Signal)
			os.Exit(128 + res.Signal)
		}
		exitCode = res.ExitCode
	}
	os.Exit(exitCode)
}
