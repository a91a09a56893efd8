package workload

import (
	"fmt"
	"sort"
	"sync"

	"cheriabi"
	"cheriabi/internal/driver"
)

// Workload is one runnable benchmark.
type Workload struct {
	Name string
	Src  string
	// Libs maps shared-library names to their sources (dynamic linking).
	Libs map[string]string
	Args []string
}

// Figure4 lists the benchmark set of the paper's Figure 4: the MiBench
// subset, the SPEC CPU2006 subset, and the dynamically-linked initdb
// macro-benchmark.
var Figure4 = []Workload{
	{Name: "security-sha", Src: SrcSHA},
	{Name: "office-stringsearch", Src: SrcStringsearch},
	{Name: "auto-qsort", Src: SrcQsort},
	{Name: "auto-basicmath", Src: SrcBasicmath},
	{Name: "network-dijkstra", Src: SrcDijkstra},
	{Name: "network-patricia", Src: SrcPatricia},
	{Name: "telco-adpcm-enc", Src: SrcADPCMEnc},
	{Name: "telco-adpcm-dec", Src: SrcADPCMDec},
	{Name: "spec2006-gobmk", Src: SrcGobmk},
	{Name: "spec2006-libquantum", Src: SrcLibquantum},
	{Name: "spec2006-astar", Src: SrcAstar},
	{Name: "spec2006-xalancbmk", Src: SrcXalancbmk},
	{Name: "initdb-dynamic", Src: SrcInitdb, Libs: map[string]string{"libcatalog.so": SrcLibCatalog}},
	{Name: "posix-vectorio", Src: SrcVectorIO},
	{Name: "posix-sockets", Src: SrcPosixSockets},
	{Name: "posix-timers", Src: SrcPosixTimers},
	{Name: "posix-inet", Src: SrcPosixInet},
}

// ShortCorpus is the representative Figure 4 subset used by -short test
// runs: static compute, library-heavy, the dynamically-linked
// macro-benchmark, the vectored-I/O scenario (so the readv/writev/
// pread/pwrite and device paths stay inside the short differential
// matrix), the socket/poll scenario (so the wait-queue scheduler,
// AF_UNIX stack, poll(2), O_NONBLOCK, and readdir paths do too), and the
// timed-wait scenario (virtual clock, deadline queue, finite poll/select
// timeouts, the sleep family), and the AF_INET scenario (the virtual NIC
// loopback path, backlog enforcement, getsockname/getpeername). The full
// corpus runs in the default mode.
func ShortCorpus() []Workload {
	var out []Workload
	for _, name := range []string{"auto-basicmath", "security-sha", "initdb-dynamic", "posix-vectorio", "posix-sockets", "posix-timers", "posix-inet"} {
		w, ok := ByName(name)
		if !ok {
			panic("workload: short corpus names unknown workload " + name)
		}
		out = append(out, w)
	}
	return out
}

// ByName returns the named Figure 4 workload.
func ByName(name string) (Workload, bool) {
	for _, w := range Figure4 {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Measurement is one run's architectural counters.
type Measurement struct {
	Instructions uint64
	Cycles       uint64
	L2Misses     uint64
	CodeBytes    uint64
	Output       string
}

// BuildOptions vary the toolchain per run.
type BuildOptions struct {
	ABI             cheriabi.ABI
	ASan            bool
	NoBigCLC        bool
	SubObjectBounds bool
}

// Build compiles a workload (and its libraries) for the given options.
func Build(w Workload, opt BuildOptions) (exe *cheriabi.Image, libs []*cheriabi.Image, err error) {
	var needed []string
	for name, src := range w.Libs {
		lib, _, err := cheriabi.Compile(cheriabi.CompileOptions{
			Name: name, ABI: opt.ABI, Shared: true,
			ASan: opt.ASan, NoBigCLC: opt.NoBigCLC, SubObjectBounds: opt.SubObjectBounds,
		}, src)
		if err != nil {
			return nil, nil, fmt.Errorf("workload %s lib %s: %w", w.Name, name, err)
		}
		libs = append(libs, lib)
		needed = append(needed, name)
	}
	sort.Strings(needed)
	exe, _, err = cheriabi.Compile(cheriabi.CompileOptions{
		Name: w.Name, ABI: opt.ABI,
		ASan: opt.ASan, NoBigCLC: opt.NoBigCLC, SubObjectBounds: opt.SubObjectBounds,
		Needed: needed,
	}, w.Src)
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return exe, libs, nil
}

// memBytes is the physical-memory size every workload machine boots with.
const memBytes = 128 << 20

// Run executes one workload on a cold-booted machine with the given layout
// seed and returns its counters. This is the uncached, snapshot-free
// reference path; sweeps go through an Engine.
func Run(w Workload, opt BuildOptions, seed int64) (Measurement, error) {
	exe, libs, err := Build(w, opt)
	if err != nil {
		return Measurement{}, err
	}
	sys := cheriabi.NewSystem(runConfig(seed))
	return runOn(sys, w, exe, libs)
}

// runConfig is the machine Config for one run.
func runConfig(seed int64) cheriabi.Config {
	return cheriabi.Config{MemBytes: memBytes, Seed: seed}
}

// runOn installs and executes one built workload on sys.
func runOn(sys *cheriabi.System, w Workload, exe *cheriabi.Image, libs []*cheriabi.Image) (Measurement, error) {
	var codeBytes uint64
	for _, lib := range libs {
		if _, err := sys.Install(lib); err != nil {
			return Measurement{}, err
		}
		codeBytes += lib.CodeSize()
	}
	codeBytes += exe.CodeSize()
	args := append([]string{w.Name}, w.Args...)
	res, err := sys.RunImage(exe, args...)
	if err != nil {
		return Measurement{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	if res.Signal != 0 {
		return Measurement{}, fmt.Errorf("workload %s died with signal %d (output %q)", w.Name, res.Signal, res.Output)
	}
	if res.ExitCode != 0 {
		return Measurement{}, fmt.Errorf("workload %s exited %d (output %q)", w.Name, res.ExitCode, res.Output)
	}
	return Measurement{
		Instructions: res.Stats.Instructions,
		Cycles:       res.Stats.Cycles,
		L2Misses:     sys.L2Misses(),
		CodeBytes:    codeBytes,
		Output:       res.Output,
	}, nil
}

// buildKey identifies one cached toolchain output: everything
// BuildOptions says.
type buildKey struct {
	name            string
	abi             cheriabi.ABI
	asan            bool
	noBigCLC        bool
	subObjectBounds bool
}

type buildVal struct {
	exe  *cheriabi.Image
	libs []*cheriabi.Image
}

// Engine executes workloads for a sweep. With snapshots enabled it boots
// one Seed-0 template machine, captures it, and stamps every run's machine
// as a copy-on-write clone — the per-run seed is a clone-time Config
// field, so a single snapshot serves every
// row and seed of a sweep. Builds are cached by their compile-relevant
// options (the compiler is deterministic, and images are immutable once
// built). An Engine is safe for concurrent use by the driver's worker
// pools; the shared snapshot is read-only after capture.
type Engine struct {
	snapshot bool

	mu     sync.Mutex
	snap   *cheriabi.Snapshot
	builds map[buildKey]buildVal
}

// NewEngine returns an Engine. snapshot selects machine provisioning:
// clone-from-snapshot (the fleet-runner fast path) or cold boot per run
// (the differential reference; still build-cached).
func NewEngine(snapshot bool) *Engine {
	return &Engine{snapshot: snapshot, builds: map[buildKey]buildVal{}}
}

// build returns the cached toolchain output for (w, opt), compiling on
// first use.
func (e *Engine) build(w Workload, opt BuildOptions) (*cheriabi.Image, []*cheriabi.Image, error) {
	key := buildKey{
		name:            w.Name,
		abi:             opt.ABI,
		asan:            opt.ASan,
		noBigCLC:        opt.NoBigCLC,
		subObjectBounds: opt.SubObjectBounds,
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.builds[key]; ok {
		return v.exe, v.libs, nil
	}
	exe, libs, err := Build(w, opt)
	if err != nil {
		return nil, nil, err
	}
	e.builds[key] = buildVal{exe: exe, libs: libs}
	return exe, libs, nil
}

// system provisions the machine for one run.
func (e *Engine) system(seed int64) (*cheriabi.System, error) {
	cfg := runConfig(seed)
	if !e.snapshot {
		return cheriabi.NewSystem(cfg), nil
	}
	e.mu.Lock()
	if e.snap == nil {
		snap, err := cheriabi.NewSystem(cheriabi.Config{MemBytes: memBytes}).Snapshot()
		if err != nil {
			e.mu.Unlock()
			return nil, err
		}
		e.snap = snap
	}
	snap := e.snap
	e.mu.Unlock()
	return snap.Clone(cfg), nil
}

// Run executes one workload on a machine provisioned by the engine.
// Results are bit-identical to the package-level Run — the differential
// suite's TestSnapshotCloneDifferential enforces this.
func (e *Engine) Run(w Workload, opt BuildOptions, seed int64) (Measurement, error) {
	exe, libs, err := e.build(w, opt)
	if err != nil {
		return Measurement{}, err
	}
	sys, err := e.system(seed)
	if err != nil {
		return Measurement{}, err
	}
	return runOn(sys, w, exe, libs)
}

// Overhead is one Figure 4 data point: median percentage overhead of the
// CheriABI build over the mips64 baseline, with interquartile ranges.
type Overhead struct {
	Name                         string
	InstPct, CyclePct, L2Pct     float64
	InstIQR, CycleIQR, L2IQR     float64
	BaseInstructions, BaseCycles uint64
}

func pct(base, v uint64) float64 {
	if base == 0 {
		return 0
	}
	return (float64(v) - float64(base)) / float64(base) * 100
}

func medianIQR(vals []float64) (med, iqr float64) {
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	med = vals[n/2]
	if n%2 == 0 {
		med = (vals[n/2-1] + vals[n/2]) / 2
	}
	return med, vals[n*3/4] - vals[n/4]
}

// Figure4Row measures one workload across the given seeds and reports the
// overhead shape (median of per-seed overheads, IQR across seeds). The
// package-level form cold-boots every machine; sweeps use the Engine
// method.
func Figure4Row(w Workload, seeds []int64) (Overhead, error) {
	return figure4Row(Run, w, seeds)
}

// Figure4Row is the Engine form of the package-level Figure4Row; with
// snapshots enabled, every measurement's machine is a clone.
func (e *Engine) Figure4Row(w Workload, seeds []int64) (Overhead, error) {
	return figure4Row(e.Run, w, seeds)
}

func figure4Row(run func(Workload, BuildOptions, int64) (Measurement, error), w Workload, seeds []int64) (Overhead, error) {
	var instPcts, cyclePcts, l2Pcts []float64
	var baseInst, baseCycles uint64
	for _, seed := range seeds {
		base, err := run(w, BuildOptions{ABI: cheriabi.ABILegacy}, seed)
		if err != nil {
			return Overhead{}, err
		}
		cheri, err := run(w, BuildOptions{ABI: cheriabi.ABICheri}, seed)
		if err != nil {
			return Overhead{}, err
		}
		instPcts = append(instPcts, pct(base.Instructions, cheri.Instructions))
		cyclePcts = append(cyclePcts, pct(base.Cycles, cheri.Cycles))
		l2Pcts = append(l2Pcts, pct(base.L2Misses, cheri.L2Misses))
		baseInst, baseCycles = base.Instructions, base.Cycles
	}
	row := Overhead{Name: w.Name, BaseInstructions: baseInst, BaseCycles: baseCycles}
	row.InstPct, row.InstIQR = medianIQR(instPcts)
	row.CyclePct, row.CycleIQR = medianIQR(cyclePcts)
	row.L2Pct, row.L2IQR = medianIQR(l2Pcts)
	return row, nil
}

// Figure4Rows measures the given workloads across a pool of workers and
// returns the rows in input order, provisioning machines from a shared
// snapshot. The per-row measurements are deterministic for a given seed
// list — and identical between snapshot and cold provisioning — so the
// result is independent of the worker count and the mode; the
// parallel-driver determinism test enforces the former and the
// differential suite the latter.
func Figure4Rows(ws []Workload, seeds []int64, workers int) ([]Overhead, error) {
	return Figure4RowsMode(ws, seeds, workers, true)
}

// Figure4RowsMode is Figure4Rows with explicit machine provisioning:
// snapshot=true clones every machine from one shared template, false
// cold-boots per measurement (the differential reference).
func Figure4RowsMode(ws []Workload, seeds []int64, workers int, snapshot bool) ([]Overhead, error) {
	e := NewEngine(snapshot)
	return driver.Map(workers, ws, func(w Workload) (Overhead, error) {
		return e.Figure4Row(w, seeds)
	})
}

// SyscallResult is one §5.2 micro-benchmark row: per-call cycles under
// each ABI and the CheriABI overhead.
type SyscallResult struct {
	Name         string
	LegacyCycles float64
	CheriCycles  float64
	DeltaPct     float64
}

// syscallPerCall measures per-call cost by differencing two iteration
// counts, cancelling startup cost.
func syscallPerCall(name string, abi cheriabi.ABI, seed int64) (float64, error) {
	measure := func(n int) (uint64, error) {
		w := Workload{
			Name: "syscall-micro",
			Src:  SrcSyscallMicro,
			Args: []string{name, fmt.Sprint(n)},
		}
		m, err := Run(w, BuildOptions{ABI: abi}, seed)
		if err != nil {
			return 0, err
		}
		return m.Cycles, nil
	}
	lo, err := measure(40)
	if err != nil {
		return 0, err
	}
	hi, err := measure(240)
	if err != nil {
		return 0, err
	}
	return (float64(hi) - float64(lo)) / 200, nil
}

// SyscallMicro runs the syscall timing benchmarks (§5.2): "Performance
// impact varies from 3.4% slower for fork, to 9.8% faster for select."
func SyscallMicro(names []string, seed int64) ([]SyscallResult, error) {
	var out []SyscallResult
	for _, name := range names {
		leg, err := syscallPerCall(name, cheriabi.ABILegacy, seed)
		if err != nil {
			return nil, fmt.Errorf("syscall %s legacy: %w", name, err)
		}
		che, err := syscallPerCall(name, cheriabi.ABICheri, seed)
		if err != nil {
			return nil, fmt.Errorf("syscall %s cheriabi: %w", name, err)
		}
		out = append(out, SyscallResult{
			Name:         name,
			LegacyCycles: leg,
			CheriCycles:  che,
			DeltaPct:     (che - leg) / leg * 100,
		})
	}
	return out, nil
}

// InitdbResult is the §5.2 macro-benchmark: CheriABI and ASan cycle ratios
// against the mips64 baseline (paper: 1.068× and 3.29×).
type InitdbResult struct {
	BaseCycles  uint64
	CheriCycles uint64
	ASanCycles  uint64
	CheriRatio  float64
	ASanRatio   float64
}

// Initdb measures the initdb-dynamic workload in its three builds.
func Initdb(seed int64) (InitdbResult, error) {
	w, _ := ByName("initdb-dynamic")
	base, err := Run(w, BuildOptions{ABI: cheriabi.ABILegacy}, seed)
	if err != nil {
		return InitdbResult{}, err
	}
	cheri, err := Run(w, BuildOptions{ABI: cheriabi.ABICheri}, seed)
	if err != nil {
		return InitdbResult{}, err
	}
	asan, err := Run(w, BuildOptions{ABI: cheriabi.ABILegacy, ASan: true}, seed)
	if err != nil {
		return InitdbResult{}, err
	}
	return InitdbResult{
		BaseCycles:  base.Cycles,
		CheriCycles: cheri.Cycles,
		ASanCycles:  asan.Cycles,
		CheriRatio:  float64(cheri.Cycles) / float64(base.Cycles),
		ASanRatio:   float64(asan.Cycles) / float64(base.Cycles),
	}, nil
}

// CLCResult is the §5.2 ISA-extension ablation: code size and cycles with
// and without the large-immediate capability load.
type CLCResult struct {
	Name             string
	SmallCodeBytes   uint64
	BigCodeBytes     uint64
	CodeReductionPct float64
	SmallCycles      uint64
	BigCycles        uint64
	OverheadSmallPct float64 // vs. legacy baseline
	OverheadBigPct   float64
}

// CLCAblation measures the large-immediate CLC extension on a workload
// ("This reduces the code size of most binaries by over 10%, and reduces
// the initdb overhead from 11% to 6.8%").
func CLCAblation(name string, seed int64) (CLCResult, error) {
	w, ok := ByName(name)
	if !ok {
		return CLCResult{}, fmt.Errorf("unknown workload %q", name)
	}
	base, err := Run(w, BuildOptions{ABI: cheriabi.ABILegacy}, seed)
	if err != nil {
		return CLCResult{}, err
	}
	small, err := Run(w, BuildOptions{ABI: cheriabi.ABICheri, NoBigCLC: true}, seed)
	if err != nil {
		return CLCResult{}, err
	}
	big, err := Run(w, BuildOptions{ABI: cheriabi.ABICheri}, seed)
	if err != nil {
		return CLCResult{}, err
	}
	return CLCResult{
		Name:             name,
		SmallCodeBytes:   small.CodeBytes,
		BigCodeBytes:     big.CodeBytes,
		CodeReductionPct: (float64(small.CodeBytes) - float64(big.CodeBytes)) / float64(small.CodeBytes) * 100,
		SmallCycles:      small.Cycles,
		BigCycles:        big.Cycles,
		OverheadSmallPct: pct(base.Cycles, small.Cycles),
		OverheadBigPct:   pct(base.Cycles, big.Cycles),
	}, nil
}
