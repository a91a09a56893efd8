// Package cheriabi is a simulation-based reproduction of "CheriABI:
// Enforcing Valid Pointer Provenance and Minimizing Pointer Privilege in
// the POSIX C Run-time Environment" (Davis et al., ASPLOS 2019).
//
// It bundles a CHERI-extended CPU simulator with a cycle model and cache
// hierarchy, a CheriBSD-flavoured kernel supporting both the legacy mips64
// ABI and CheriABI, a MiniC compiler with legacy / pure-capability /
// AddressSanitizer backends, a run-time linker, and a C runtime — enough
// of the paper's stack to regenerate every table and figure in its
// evaluation. DESIGN.md describes the simulator internals (including the
// decoded pages and their invalidation protocol); bench_test.go
// maps each benchmark to its table or figure.
//
// Quick start:
//
//	sys := cheriabi.NewSystem(cheriabi.Config{})
//	img, _, err := cheriabi.Compile(cheriabi.CompileOptions{
//	    Name: "hello", ABI: cheriabi.ABICheri,
//	}, `int main() { printf("hello\n"); return 0; }`)
//	...
//	res, err := sys.RunImage(img, "hello")
//	fmt.Print(res.Output)
package cheriabi

import (
	"fmt"
	"io"

	"cheriabi/internal/cap"
	"cheriabi/internal/cc"
	"cheriabi/internal/cpu"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/kernel"
	"cheriabi/internal/libc"
)

// ABI selects the process ABI.
type ABI = image.ABI

// ParseABI returns the ABI named s ("mips64" or "cheriabi"), the inverse
// of ABI.String.
func ParseABI(s string) (ABI, error) { return image.ParseABI(s) }

// Process ABIs.
const (
	// ABILegacy is the mips64 SysV ABI: pointers are 64-bit integers
	// checked only against the default data capability.
	ABILegacy = image.ABILegacy
	// ABICheri is CheriABI: every pointer is a bounded capability and DDC
	// is NULL.
	ABICheri = image.ABICheri
)

// Image is a compiled executable or shared library.
type Image = image.Image

// Finding is a compatibility-lint diagnostic in the paper's Table 2
// taxonomy.
type Finding = cc.Finding

// Stats are architectural event counts.
type Stats = cpu.Stats

// CompileOptions configure the MiniC compiler.
type CompileOptions struct {
	Name string
	ABI  ABI
	// Shared builds a library instead of an executable.
	Shared bool
	// ASan instruments the (legacy-ABI) build with AddressSanitizer-style
	// checks, the paper's software-only comparison baseline.
	ASan bool
	// NoBigCLC disables the large-immediate capability-load extension
	// (§5.2); used by the ablation benchmarks.
	NoBigCLC bool
	// SubObjectBounds enables the paper's §6 future-work extension:
	// capabilities to struct members are narrowed to the member. Catches
	// intra-object overflows at the cost of container_of-style idioms.
	SubObjectBounds bool
	// Needed lists shared-library dependencies by name.
	Needed []string
}

// Compile builds MiniC sources into an image, returning the image and the
// Table 2 lint findings.
func Compile(opt CompileOptions, sources ...string) (*Image, []Finding, error) {
	return cc.Compile(cc.Options{
		Name:            opt.Name,
		ABI:             opt.ABI,
		Shared:          opt.Shared,
		ASan:            opt.ASan,
		BigCLC:          !opt.NoBigCLC,
		SubObjectBounds: opt.SubObjectBounds,
		Needed:          opt.Needed,
	}, sources...)
}

// Lint runs only the compatibility analysis over sources for the given
// ABI, without requiring the program to be a complete executable.
func Lint(name string, abi ABI, sources ...string) ([]Finding, error) {
	_, findings, err := cc.Compile(cc.Options{Name: name, ABI: abi, Shared: true, BigCLC: true}, sources...)
	return findings, err
}

// Config configures a simulated machine.
type Config struct {
	// MemBytes is physical memory (default 256 MiB).
	MemBytes uint64
	// Seed perturbs layout (ASLR-style variance across runs).
	Seed int64
	// UrandomSeed seeds the deterministic /dev/urandom stream; zero
	// derives it from Seed, so equal-seed boots read identical bytes.
	UrandomSeed uint64
	// Console mirrors all process output when non-nil.
	Console io.Writer
	// Tracer observes user-code capability derivations (Figure 5).
	Tracer cpu.CapTracer
	// OnCapCreate observes kernel/linker/allocator-created capabilities.
	OnCapCreate func(label string, c cap.Capability)
	// OnTrap observes every trap the CPU delivers, in program order
	// (used by the differential determinism suite). The trap is valid only
	// during the call: copy it to keep it (see cpu.CPU.Run).
	OnTrap func(*cpu.Trap)
}

// System is a booted machine: hardware, kernel, and C runtime.
type System struct {
	Machine *kernel.Machine
	Kernel  *kernel.Kernel
	Runtime *libc.Runtime
}

// NewSystem boots a machine.
func NewSystem(cfg Config) *System { return newSystem(cfg, kernel.NewFS()) }

// newSystem boots a machine with fs as its file tree.
func newSystem(cfg Config, fs *kernel.FS) *System {
	m := kernel.NewMachineFS(kernel.Config{
		MemBytes:    cfg.MemBytes,
		Seed:        cfg.Seed,
		UrandomSeed: cfg.UrandomSeed,
		Console:     cfg.Console,
		Tracer:      cfg.Tracer,
		OnTrap:      cfg.OnTrap,
	}, fs)
	if cfg.OnCapCreate != nil {
		m.Kern.OnCapCreate = cfg.OnCapCreate
	}
	rt := libc.Install(m.Kern)
	return &System{Machine: m, Kernel: m.Kern, Runtime: rt}
}

// Snapshot is a boot template: a machine's memory size and a frozen copy
// of its file tree. Clone boots a fresh System with that size and gives it
// its own copy of the tree. Boot writes no guest memory, so this is all
// the state a never-run machine holds that NewSystem would not rebuild. Any number of goroutines may Clone the
// same Snapshot concurrently; driver.RunFleet, given one, stamps one
// clone per node.
type Snapshot struct {
	memBytes uint64
	fs       *kernel.FS
}

// Snapshot captures the machine as a boot template. A machine on which a
// process was ever spawned is refused, even after the process is reaped:
// running a program leaves state behind (memory, frames, the clock, the
// ledger) that a template does not carry. Edits to the file tree of a
// fresh boot are kept; later writes to the template's tree do not reach
// its clones.
func (s *System) Snapshot() (*Snapshot, error) {
	if s.Kernel.Spawned() {
		return nil, fmt.Errorf("cheriabi: snapshot requires a machine that has never spawned a process")
	}
	return &Snapshot{
		memBytes: s.Machine.Mem.Size(),
		fs:       s.Kernel.FS.Clone(),
	}, nil
}

// Clone boots a fresh System from the snapshot. cfg.MemBytes is fixed by
// the snapshot and ignored; every other field applies to the clone
// exactly as it would to NewSystem. A clone is a cold boot with the template's file tree, so it is bit-identical to
// NewSystem with the same Config and tree — the differential suite's
// TestSnapshotCloneDifferential enforces this on the reference and the
// fast engine.
func (s *Snapshot) Clone(cfg Config) *System {
	cfg.MemBytes = s.memBytes
	return newSystem(cfg, s.fs.Clone())
}

// Install places an image in the VFS: executables under /bin, libraries
// under /lib.
func (s *System) Install(img *Image) (string, error) {
	b, err := img.Marshal()
	if err != nil {
		return "", err
	}
	path := "/bin/" + img.Name
	if img.Entry == "" {
		path = "/lib/" + img.Name
	}
	if err := s.Kernel.FS.WriteFile(path, b); err != nil {
		return "", err
	}
	return path, nil
}

// RunResult reports a finished process.
type RunResult struct {
	ExitCode int // -1 if killed by a signal
	Signal   int // terminating signal, 0 for normal exit
	Output   string
	Stats    Stats // machine-wide deltas for the run
}

// RunImage installs img and runs it to completion with the given argv.
func (s *System) RunImage(img *Image, argv ...string) (*RunResult, error) {
	path, err := s.Install(img)
	if err != nil {
		return nil, err
	}
	return s.RunPath(path, argv...)
}

// RunPath runs an installed executable to completion.
func (s *System) RunPath(path string, argv ...string) (*RunResult, error) {
	if len(argv) == 0 {
		argv = []string{path}
	}
	before := s.Machine.CPU.Stats
	p, err := s.Kernel.Spawn(path, argv, nil)
	if err != nil {
		return nil, err
	}
	if err := s.Kernel.RunUntilExit(p, 0); err != nil {
		return nil, fmt.Errorf("cheriabi: %w (output so far: %q)", err, p.Stdout.String())
	}
	after := s.Machine.CPU.Stats
	res := &RunResult{
		ExitCode: p.ExitCode(),
		Signal:   p.TermSignal(),
		Output:   p.Stdout.String(),
		Stats:    after.Sub(before),
	}
	s.Kernel.Reap(p)
	return res, nil
}

// DeltaStats subtracts two Stats snapshots field-wise (b - a); fleet
// runners use it to report per-machine deltas.
func DeltaStats(a, b Stats) Stats { return b.Sub(a) }

// L2Misses returns the machine's cumulative L2 miss count.
func (s *System) L2Misses() uint64 { return s.Machine.Hier.L2.Stats().Misses }

// DecodeCacheStats reports the simulator's decoded-page and
// threaded-engine event counts (non-architectural). With
// Machine.CPU.Reference set, every field but Flushes stays zero; Flushes
// still counts every explicit sync.
func (s *System) DecodeCacheStats() cpu.DecodeStats { return s.Machine.CPU.DecodeStats }

// InstSize is the size of one instruction, exported for code-size metrics.
const InstSize = isa.InstSize
