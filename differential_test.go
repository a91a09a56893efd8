// Differential determinism suite: every benchmark, test-suite, and bodiag
// program is run on the simulator's reference engine (CPU.Reference: one
// full Step per instruction and byte-at-a-time uaccess copies) and on its
// fast engine (threaded dispatch and bulk copies), and must produce
// bit-identical architectural results: Stats (instructions,
// cycles, loads/stores, branches, syscalls), program output, exit status,
// L2 miss counts, and the exact sequence of traps the CPU delivered. This
// is the proof obligation for the fast paths: cycle counts and fault
// behaviour are this repository's *results* (Figure 4, Tables 1–3), so a
// simulator optimisation must be observation-equivalent, not just "mostly
// right".
package cheriabi_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"testing"

	"cheriabi"
	"cheriabi/internal/bodiag"
	"cheriabi/internal/cpu"
	"cheriabi/internal/testsuite"
	"cheriabi/internal/uaccess"
	"cheriabi/internal/workload"
)

// engine is one value of CPU.Reference, named for failure messages.
type engine bool

func (e engine) String() string {
	if e {
		return "reference"
	}
	return "fast"
}

// engines are the two configurations, reference first: the fast engine
// must be indistinguishable from it.
var engines = []engine{true, false}

// diffCase is one program to run on both engines.
type diffCase struct {
	name string
	src  string
	libs map[string]string
	abi  cheriabi.ABI
	args []string
	// mayTrap marks programs whose faulting is the point (bodiag corpus):
	// they are allowed to die on a signal or exit non-zero, and the
	// differential comparison of that outcome is exactly the test.
	mayTrap bool
}

// diffRecord captures everything a run can observe.
type diffRecord struct {
	exit     int
	signal   int
	output   string
	stats    cheriabi.Stats
	l2Misses uint64
	traps    uint64 // number of traps delivered
	trapHash uint64 // FNV-1a over the rendered trap sequence
}

// diffConfig is the machine Config of every differential run; the trap
// observer feeds the (traps, hash) cells of the returned record.
func diffConfig(traps *uint64, h io.Writer) cheriabi.Config {
	return cheriabi.Config{
		MemBytes: 128 << 20,
		OnTrap: func(tr *cpu.Trap) {
			*traps++
			io.WriteString(h, tr.Error())
		},
	}
}

// runCase executes one case on a cold-booted machine running engine e,
// recording the full trap sequence through the OnTrap hook.
func runCase(t *testing.T, tc diffCase, e engine) diffRecord {
	t.Helper()
	h := fnv.New64a()
	var traps uint64
	sys := cheriabi.NewSystem(diffConfig(&traps, h))
	sys.Kernel.FS.Mkdir(bodiag.CwdPath) // the bodiag getcwd case chdirs here
	return runCaseOn(t, sys, tc, e, &traps, h)
}

// runCaseOn executes one case on the given machine (cold boot or snapshot
// clone) running engine e and records everything a run can observe. Boot
// and clone run no guest instruction and move no uaccess run
// (TestBootRunsNothing), so switching the engine here is the same as
// booting with it.
func runCaseOn(t *testing.T, sys *cheriabi.System, tc diffCase, e engine, traps *uint64, h hash.Hash64) diffRecord {
	t.Helper()
	sys.Machine.CPU.Reference = bool(e)
	var needed []string
	for name := range tc.libs {
		needed = append(needed, name)
	}
	sort.Strings(needed)
	for _, name := range needed {
		lib, _, err := cheriabi.Compile(cheriabi.CompileOptions{Name: name, ABI: tc.abi, Shared: true}, tc.libs[name])
		if err != nil {
			t.Fatalf("%s: compiling %s: %v", tc.name, name, err)
		}
		if _, err := sys.Install(lib); err != nil {
			t.Fatal(err)
		}
	}
	img, _, err := cheriabi.Compile(cheriabi.CompileOptions{Name: tc.name, ABI: tc.abi, Needed: needed}, tc.src)
	if err != nil {
		t.Fatalf("%s: compile: %v", tc.name, err)
	}
	res, err := sys.RunImage(img, append([]string{tc.name}, tc.args...)...)
	if err != nil {
		t.Fatalf("%s (%v): %v", tc.name, e, err)
	}
	// Vacuity checks: each engine must have taken its own paths and
	// none of the other's.
	ds, us := sys.DecodeCacheStats(), sys.Machine.UA.Stats
	if e && (ds.Threaded != 0 || ds.Decodes != 0 || us.FastRuns != 0) {
		t.Fatalf("%s (%v): a fast path ran (%+v, %+v)", tc.name, e, ds, us)
	}
	if !e && ds.Threaded == 0 {
		t.Fatalf("%s (%v): threaded dispatch never ran; the differential run is vacuous", tc.name, e)
	}
	if !e && ds.Hits != ds.Threaded {
		t.Fatalf("%s (%v): a decoded-block hit came from outside threaded dispatch (%+v)", tc.name, e, ds)
	}
	if !e && us.SlowRuns != 0 {
		t.Fatalf("%s (%v): uaccess byte-copy path ran on the fast engine (%+v)", tc.name, e, us)
	}
	return diffRecord{
		exit:     res.ExitCode,
		signal:   res.Signal,
		output:   res.Output,
		stats:    res.Stats,
		l2Misses: sys.L2Misses(),
		traps:    *traps,
		trapHash: h.Sum64(),
	}
}

// compare runs tc on both engines and requires the fast one to be
// indistinguishable from the reference.
func compare(t *testing.T, tc diffCase) {
	t.Helper()
	ref := engines[0]
	base := runCase(t, tc, ref)
	if !tc.mayTrap && (base.signal != 0 || base.exit != 0) {
		// Not a differential failure, but a corpus bug worth surfacing.
		t.Fatalf("baseline run misbehaved: exit=%d signal=%d output=%q", base.exit, base.signal, base.output)
	}
	for _, e := range engines[1:] {
		got := runCase(t, tc, e)
		if got.stats != base.stats {
			t.Errorf("%v: Stats diverged:\n %v: %+v\n %v: %+v", e, e, got.stats, ref, base.stats)
		}
		if got.output != base.output {
			t.Errorf("%v: output diverged:\n %v: %q\n %v: %q", e, e, got.output, ref, base.output)
		}
		if got.exit != base.exit || got.signal != base.signal {
			t.Errorf("%v: termination diverged: exit=%d sig=%d, %v exit=%d sig=%d",
				e, got.exit, got.signal, ref, base.exit, base.signal)
		}
		if got.traps != base.traps || got.trapHash != base.trapHash {
			t.Errorf("%v: trap sequence diverged: %d traps (hash %x), %v %d traps (hash %x)",
				e, got.traps, got.trapHash, ref, base.traps, base.trapHash)
		}
		if got.l2Misses != base.l2Misses {
			t.Errorf("%v: L2 misses diverged: %d, %v %d", e, got.l2Misses, ref, base.l2Misses)
		}
	}
}

var diffABIs = []struct {
	label string
	abi   cheriabi.ABI
}{
	{"mips64", cheriabi.ABILegacy},
	{"cheriabi", cheriabi.ABICheri},
}

// corpus assembles the workload + test-suite differential corpus: the full
// Figure 4 workload set and every test-suite program, under both ABIs. In
// -short mode it is cut to a representative subset.
func corpus(short bool) []diffCase {
	var out []diffCase
	workloads := workload.Figure4
	if short {
		workloads = workload.ShortCorpus()
	}
	for _, w := range workloads {
		for _, a := range diffABIs {
			out = append(out, diffCase{
				name: fmt.Sprintf("%s-%s", w.Name, a.label),
				src:  w.Src, libs: w.Libs, abi: a.abi, args: w.Args,
			})
		}
	}
	// A synthetic case whose main loop body spans several code pages: the
	// backward loop branch and the straight-line fallthrough both cross
	// page boundaries on every iteration, in both directions, with helper
	// calls (CJR/CJALR under CheriABI) mid-loop.
	for _, a := range diffABIs {
		out = append(out, diffCase{
			name: fmt.Sprintf("superblock-straddle-%s", a.label),
			src:  straddleSrc(),
			abi:  a.abi,
		})
	}
	for _, s := range testsuite.Suites {
		names := make([]string, 0, len(s.Programs))
		for name := range s.Programs {
			names = append(names, name)
		}
		sort.Strings(names)
		if short && len(names) > 1 {
			names = names[:1]
		}
		for _, name := range names {
			for _, a := range diffABIs {
				out = append(out, diffCase{
					name: fmt.Sprintf("%s-%s", name, a.label),
					src:  s.Programs[name], abi: a.abi,
					// Suite programs may legitimately crash under CheriABI
					// (Table 1 counts exactly that); the differential
					// comparison of the crash is the test.
					mayTrap: true,
				})
			}
		}
	}
	return out
}

// straddleSrc generates a program whose loop body unrolls to well over a
// page of instructions, guaranteeing cross-page fallthrough and a
// cross-page backward branch each iteration.
func straddleSrc() string {
	var b strings.Builder
	b.WriteString("int bump(int x) { return x + 1; }\n")
	b.WriteString("int main() {\n  int s = 0;\n  for (int i = 0; i < 40; i++) {\n")
	for j := 0; j < 1200; j++ {
		b.WriteString("    s += i;\n")
		if j%400 == 0 {
			b.WriteString("    s = bump(s);\n")
		}
	}
	b.WriteString("  }\n  printf(\"%d\\n\", s);\n  return 0;\n}\n")
	return b.String()
}

// bodiagCorpus assembles the bodiag differential corpus: overflow programs
// whose *faulting behaviour* (trap kind, faulting PC, signal) is the
// observable under test. In -short mode a strided subset with the min and
// ok variants runs; the full mode covers every case and every variant.
func bodiagCorpus(short bool) []diffCase {
	cases := bodiag.Generate()
	variants := []bodiag.Variant{bodiag.VarOK, bodiag.VarMin, bodiag.VarMed, bodiag.VarLarge}
	stride := 1
	if short {
		stride = 24
		variants = []bodiag.Variant{bodiag.VarOK, bodiag.VarMin}
	}
	var out []diffCase
	for i := 0; i < len(cases); i += stride {
		c := cases[i]
		for _, v := range variants {
			for _, a := range diffABIs {
				out = append(out, diffCase{
					name:    fmt.Sprintf("%s-%s-%s", c.Name(), v, a.label),
					src:     bodiag.Source(c, v),
					abi:     a.abi,
					mayTrap: true,
				})
			}
		}
	}
	return out
}

// TestDifferentialMatrix is the determinism gate for the workload and
// test-suite corpora: the fast engine must be indistinguishable from the
// reference across every program and both ABIs.
func TestDifferentialMatrix(t *testing.T) {
	for _, tc := range corpus(testing.Short()) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { compare(t, tc) })
	}
}

// TestBodiagDifferential extends the determinism gate to the bodiag
// corpus: buffer-overflow programs that fault on purpose, so the exact
// trap kind, trap sequence, and termination signal are compared across
// both engines (an optimisation that altered *where or how* a
// violation traps would corrupt Table 3).
func TestBodiagDifferential(t *testing.T) {
	for _, tc := range bodiagCorpus(testing.Short()) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { compare(t, tc) })
	}
}

// TestSnapshotCloneDifferential is the determinism gate for machine
// snapshot/clone: for each case, a machine cloned from a shared post-boot
// snapshot must be bit-identical — output, Stats, termination, trap
// sequence, L2 misses — to a cold NewSystem boot of the reference, on
// both engines. One plain-boot template serves both: the engine is a CPU
// switch set on the clone. The corpora are the
// short workload + test-suite and bodiag sets under both ABIs (strided
// further in -short mode).
func TestSnapshotCloneDifferential(t *testing.T) {
	template := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20})
	template.Kernel.FS.Mkdir(bodiag.CwdPath)
	snap, err := template.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The timed-wait row is pinned at index 0 so it runs whatever the
	// stride: a clone must stay bit-identical to a cold boot when the
	// workload sleeps — the snapshot restores the clock offset, so every
	// virtual timestamp the guest reads matches.
	tw, ok := workload.ByName("posix-timers")
	if !ok {
		t.Fatal("posix-timers workload missing")
	}
	cases := append([]diffCase{{name: "timed-wait-cheriabi", src: tw.Src, abi: cheriabi.ABICheri}},
		append(corpus(true), bodiagCorpus(true)...)...)
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for i := 0; i < len(cases); i += stride {
		tc := cases[i]
		t.Run(tc.name, func(t *testing.T) {
			cold := runCase(t, tc, engines[0])
			for _, e := range engines {
				h := fnv.New64a()
				var traps uint64
				sys := snap.Clone(diffConfig(&traps, h))
				got := runCaseOn(t, sys, tc, e, &traps, h)
				if got != cold {
					t.Errorf("clone(%v) diverged from cold boot:\nclone: %+v\n cold: %+v", e, got, cold)
				}
			}
		})
	}
}

// TestBootRunsNothing pins what lets the differential suites switch the
// engine after boot: NewSystem and Snapshot.Clone retire no guest
// instruction, touch no decoded page and move no uaccess run, so a
// machine switched to the reference right after either is the machine a
// reference boot would have built.
func TestBootRunsNothing(t *testing.T) {
	cold := cheriabi.NewSystem(cheriabi.Config{MemBytes: 64 << 20})
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, sys := range map[string]*cheriabi.System{
		"NewSystem": cold,
		"Clone":     snap.Clone(cheriabi.Config{Seed: 7}),
	} {
		if n := sys.Machine.CPU.Stats.Instructions; n != 0 {
			t.Errorf("%s retired %d instructions", name, n)
		}
		if ds := sys.DecodeCacheStats(); ds != (cpu.DecodeStats{}) {
			t.Errorf("%s left decode stats %+v", name, ds)
		}
		if us := sys.Machine.UA.Stats; us != (uaccess.Stats{}) {
			t.Errorf("%s moved uaccess runs %+v", name, us)
		}
	}
}

// TestSnapshotRequiresQuiescence: capturing a machine with a live process
// must be refused — in-flight CPU context, wait queues, and address
// spaces are not checkpointable state — and must succeed again once the
// process is run to completion and reaped.
func TestSnapshotRequiresQuiescence(t *testing.T) {
	img, _, err := cheriabi.Compile(cheriabi.CompileOptions{Name: "quiet", ABI: cheriabi.ABICheri},
		`int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 64 << 20})
	path, err := sys.Install(img)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.Kernel.Spawn(path, []string{"quiet"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Fatal("snapshot of a machine with a live process must fail")
	}
	if err := sys.Kernel.RunUntilExit(p, 0); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.Reap(p)
	if _, err := sys.Snapshot(); err != nil {
		t.Fatalf("snapshot after reap: %v", err)
	}

	// A pending timer is likewise non-checkpointable state: a guest parked
	// mid-sleep must be refused — by the timer check specifically, since
	// the deadline heap references live thread state a clone cannot carry.
	img, _, err = cheriabi.Compile(cheriabi.CompileOptions{Name: "dozer", ABI: cheriabi.ABICheri},
		`int main() { poll(0, 0, 50); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	path, err = sys.Install(img)
	if err != nil {
		t.Fatal(err)
	}
	p, err = sys.Kernel.Spawn(path, []string{"dozer"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Kernel.Run(0, func() bool { return sys.Kernel.PendingTimers() > 0 }); err != nil {
		t.Fatal(err)
	}
	if sys.Kernel.PendingTimers() == 0 {
		t.Fatal("guest never armed a timer")
	}
	_, err = sys.Snapshot()
	if err == nil || !strings.Contains(err.Error(), "pending timers") {
		t.Fatalf("snapshot with a pending timer must fail with the timer reason, got: %v", err)
	}
	if err := sys.Kernel.RunUntilExit(p, 0); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.Reap(p)
	if _, err := sys.Snapshot(); err != nil {
		t.Fatalf("snapshot after the sleeper drained: %v", err)
	}
}

// TestDecodeCacheDeterministicAcrossRuns re-runs one fully-optimised
// workload and requires run-to-run determinism (the fast paths must not
// introduce any host-dependent variation).
func TestDecodeCacheDeterministicAcrossRuns(t *testing.T) {
	w, _ := workload.ByName("auto-qsort")
	first, err := workload.Run(w, workload.BuildOptions{ABI: cheriabi.ABICheri}, 3)
	if err != nil {
		t.Fatal(err)
	}
	second, err := workload.Run(w, workload.BuildOptions{ABI: cheriabi.ABICheri}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("same-seed runs diverged:\n1: %+v\n2: %+v", first, second)
	}
}
