package kernel

import (
	"strings"
	"testing"

	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
)

// asm assembles instructions into encoded words.
func asm(insts []isa.Inst) []uint32 {
	out := make([]uint32, len(insts))
	for i, in := range insts {
		out[i] = isa.MustEncode(in)
	}
	return out
}

// boot creates a machine and installs img as /bin/prog.
func boot(t *testing.T, img *image.Image) *Machine {
	t.Helper()
	m := NewMachine(Config{MemBytes: 64 << 20})
	b, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.FS.WriteFile("/bin/prog", b); err != nil {
		t.Fatal(err)
	}
	return m
}

func spawnRun(t *testing.T, m *Machine, argv ...string) *Proc {
	t.Helper()
	if argv == nil {
		argv = []string{"prog"}
	}
	p, err := m.Kern.Spawn("/bin/prog", argv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.RunUntilExit(p, 10_000_000); err != nil {
		t.Fatalf("run: %v (output %q)", err, p.Stdout.String())
	}
	return p
}

// helloImage writes "hello" to stdout and exits with code 7.
func helloImage(abi image.ABI) *image.Image {
	var code []isa.Inst
	if abi == image.ABICheri {
		code = []isa.Inst{
			{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 1},      // fd = 1
			{Op: isa.CLC, Ra: isa.CA0, Rb: isa.CGP, Imm: 0}, // buf = GOT[0]
			{Op: isa.ADDI, Ra: isa.RA1, Rb: 0, Imm: 5},      // n = 5
			{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysWrite},
			{Op: isa.SYSCALL},
			{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 7},
			{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
			{Op: isa.SYSCALL},
		}
	} else {
		code = []isa.Inst{
			{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 1},
			{Op: isa.LD, Ra: isa.RA1, Rb: isa.RGP, Imm: 0}, // buf = GOT[0]
			{Op: isa.ADDI, Ra: isa.RA2, Rb: 0, Imm: 5},
			{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysWrite},
			{Op: isa.SYSCALL},
			{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 7},
			{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
			{Op: isa.SYSCALL},
		}
	}
	return &image.Image{
		Name:   "hello",
		ABI:    abi,
		Code:   asm(code),
		ROData: []byte("hello"),
		Entry:  "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: 32, Global: true},
			"$msg":   {Name: "$msg", Kind: image.SymObject, Sec: image.SecROData, Size: 5},
		},
		GOT:      []image.GOTEntry{{Sym: "$msg", Kind: image.GOTData, Slot: 0}},
		GOTSlots: 1,
	}
}

func TestHelloCheriABI(t *testing.T) {
	m := boot(t, helloImage(image.ABICheri))
	p := spawnRun(t, m)
	if p.Stdout.String() != "hello" {
		t.Fatalf("output %q", p.Stdout.String())
	}
	if p.ExitCode() != 7 {
		t.Fatalf("exit code %d (status %#x)", p.ExitCode(), p.Status)
	}
	if p.ABI != image.ABICheri {
		t.Fatal("ABI not set")
	}
}

func TestHelloLegacy(t *testing.T) {
	m := boot(t, helloImage(image.ABILegacy))
	p := spawnRun(t, m)
	if p.Stdout.String() != "hello" || p.ExitCode() != 7 {
		t.Fatalf("output %q code %d", p.Stdout.String(), p.ExitCode())
	}
}

// TestCheriABIHasNullDDC: a CheriABI process attempting a legacy load dies
// with SIGPROT.
func TestCheriABIHasNullDDC(t *testing.T) {
	img := &image.Image{
		Name: "ddc",
		ABI:  image.ABICheri,
		Code: asm([]isa.Inst{
			{Op: isa.LD, Ra: 8, Rb: 0, Imm: 0}, // legacy load through DDC
			{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
			{Op: isa.SYSCALL},
		}),
		Entry: "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: 12, Global: true},
		},
	}
	m := boot(t, img)
	p := spawnRun(t, m)
	if p.TermSignal() != SIGPROT {
		t.Fatalf("want SIGPROT death, got status %#x", p.Status)
	}
}

// TestLegacyHasFullDDC: the same load succeeds for a legacy process.
func TestLegacyHasFullDDC(t *testing.T) {
	img := &image.Image{
		Name: "ddc2",
		ABI:  image.ABILegacy,
		Code: asm([]isa.Inst{
			{Op: isa.LUI, Ra: 8, Imm: ExecBase >> 14},
			{Op: isa.LD, Ra: 9, Rb: 8, Imm: 0}, // read own text through DDC
			{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 0},
			{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
			{Op: isa.SYSCALL},
		}),
		Entry: "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: 20, Global: true},
		},
	}
	m := boot(t, img)
	p := spawnRun(t, m)
	if p.ExitCode() != 0 {
		t.Fatalf("status %#x", p.Status)
	}
}

// forkImage forks; the child exits 3, the parent waits and exits with the
// child's code plus one.
func forkImage() *image.Image {
	code := []isa.Inst{
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysFork},
		{Op: isa.SYSCALL},
		{Op: isa.BNE, Ra: isa.RV0, Rb: 0, Imm: 4}, // parent jumps ahead
		// child:
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 3},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
		{Op: isa.SYSCALL},
		{Op: isa.NOP},
		// parent: wait4(childpid, NULL, 0)
		{Op: isa.OR, Ra: isa.RA0, Rb: isa.RV0, Rc: 0},
		{Op: isa.ADDI, Ra: isa.RA1, Rb: 0, Imm: 0}, // status ptr NULL (legacy reg; harmless for cheri)
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysWait4},
		{Op: isa.SYSCALL},
		// exit(4)
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 4},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
		{Op: isa.SYSCALL},
	}
	return &image.Image{
		Name:  "fork",
		ABI:   image.ABICheri,
		Code:  asm(code),
		Entry: "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: uint64(len(code) * 4), Global: true},
		},
	}
}

func TestForkWait(t *testing.T) {
	m := boot(t, forkImage())
	p := spawnRun(t, m)
	if p.ExitCode() != 4 {
		t.Fatalf("status %#x", p.Status)
	}
}

// mmapImage maps a page, stores/loads through the returned capability,
// then munmaps with it and exits 0.
func mmapImage() *image.Image {
	code := []isa.Inst{
		// mmap(NULL, 4096, RW, 0) -> c3
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 4096},
		{Op: isa.ADDI, Ra: isa.RA1, Rb: 0, Imm: ProtReadFlag | ProtWriteFlag},
		{Op: isa.ADDI, Ra: isa.RA2, Rb: 0, Imm: 0},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysMmap},
		{Op: isa.SYSCALL},
		// store/load through the returned capability
		{Op: isa.ADDI, Ra: 9, Rb: 0, Imm: 99},
		{Op: isa.CSD, Ra: 9, Rb: isa.CA0, Imm: 8},
		{Op: isa.CLD, Ra: 10, Rb: isa.CA0, Imm: 8},
		{Op: isa.BNE, Ra: 9, Rb: 10, Imm: 7}, // mismatch -> exit 1 path below
		// munmap(c3, 4096)
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 4096},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysMunmap},
		{Op: isa.SYSCALL},
		{Op: isa.BNE, Ra: isa.RV1, Rb: 0, Imm: 3},
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 0},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
		{Op: isa.SYSCALL},
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 1},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
		{Op: isa.SYSCALL},
	}
	return &image.Image{
		Name:  "mmap",
		ABI:   image.ABICheri,
		Code:  asm(code),
		Entry: "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: uint64(len(code) * 4), Global: true},
		},
	}
}

func TestMmapReturnsVMMapCapability(t *testing.T) {
	m := boot(t, mmapImage())
	p := spawnRun(t, m)
	if p.ExitCode() != 0 {
		t.Fatalf("status %#x output %q", p.Status, p.Stdout.String())
	}
}

// TestMmapCapOutOfBoundsFaults: access past the mmap bounds dies.
func TestMmapCapOutOfBoundsFaults(t *testing.T) {
	code := []isa.Inst{
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 4096},
		{Op: isa.ADDI, Ra: isa.RA1, Rb: 0, Imm: ProtReadFlag | ProtWriteFlag},
		{Op: isa.ADDI, Ra: isa.RA2, Rb: 0, Imm: 0},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysMmap},
		{Op: isa.SYSCALL},
		{Op: isa.CINCOFFI, Ra: isa.CA0, Rb: isa.CA0, Imm: 4096},
		{Op: isa.CSD, Ra: 9, Rb: isa.CA0, Imm: 0}, // one page past: bounds fault
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
		{Op: isa.SYSCALL},
	}
	img := &image.Image{
		Name: "oob", ABI: image.ABICheri, Code: asm(code), Entry: "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: uint64(len(code) * 4), Global: true},
		},
	}
	m := boot(t, img)
	p := spawnRun(t, m)
	if p.TermSignal() != SIGPROT {
		t.Fatalf("want SIGPROT, got status %#x", p.Status)
	}
}

// TestSbrkRejectedUnderCheriABI: "we do not support it in our prototype".
func TestSbrkRejectedUnderCheriABI(t *testing.T) {
	code := []isa.Inst{
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 4096},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysSbrk},
		{Op: isa.SYSCALL},
		{Op: isa.OR, Ra: isa.RA0, Rb: isa.RV1, Rc: 0}, // exit(errno)
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
		{Op: isa.SYSCALL},
	}
	img := &image.Image{
		Name: "sbrk", ABI: image.ABICheri, Code: asm(code), Entry: "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: uint64(len(code) * 4), Global: true},
		},
	}
	m := boot(t, img)
	p := spawnRun(t, m)
	if p.ExitCode() != int(ENOSYS) {
		t.Fatalf("sbrk errno = %d, want ENOSYS", p.ExitCode())
	}
}

// TestSwapRederivation: a CheriABI process stores a capability to the
// stack, forces itself to swap, and dereferences the capability after
// swap-in. The tag must survive via rederivation.
func TestSwapRederivation(t *testing.T) {
	code := []isa.Inst{
		// Store a bounded stack-derived capability to the stack.
		{Op: isa.ADDI, Ra: 8, Rb: 0, Imm: 64},
		{Op: isa.CSETBNDS, Ra: isa.CT0, Rb: isa.CSP, Rc: 8},
		{Op: isa.CINCOFFI, Ra: isa.CSP, Rb: isa.CSP, Imm: -32},
		{Op: isa.CSC, Ra: isa.CT0, Rb: isa.CSP, Imm: 0},
		// Write a sentinel through it first.
		{Op: isa.ADDI, Ra: 9, Rb: 0, Imm: 1234},
		{Op: isa.CSD, Ra: 9, Rb: isa.CT0, Imm: 0},
		// Force swap of the whole address space.
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysSwapSelf},
		{Op: isa.SYSCALL},
		// Reload the capability and dereference it.
		{Op: isa.CLC, Ra: isa.CT1, Rb: isa.CSP, Imm: 0},
		{Op: isa.CBTU, Ra: isa.CT1, Imm: 5}, // tag lost -> exit 9
		{Op: isa.CLD, Ra: 10, Rb: isa.CT1, Imm: 0},
		{Op: isa.ADDI, Ra: 11, Rb: 0, Imm: 1234},
		{Op: isa.BNE, Ra: 10, Rb: 11, Imm: 3}, // data lost -> exit 9
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 0},
		{Op: isa.J, Imm: 2},
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 9},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
		{Op: isa.SYSCALL},
	}
	img := &image.Image{
		Name: "swap", ABI: image.ABICheri, Code: asm(code), Entry: "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: uint64(len(code) * 4), Global: true},
		},
	}
	m := boot(t, img)
	p := spawnRun(t, m)
	if p.ExitCode() != 0 {
		t.Fatalf("status %#x: capability did not survive swap", p.Status)
	}
	if p.AS.Stats.SwapOuts == 0 {
		t.Fatal("nothing was swapped")
	}
	if len(m.Kern.Ledger.ByOrigin(4)) == 0 { // OriginMmap would be 4? use length check below instead
		_ = p
	}
}

func TestLedgerRecordsExecCapabilities(t *testing.T) {
	m := boot(t, helloImage(image.ABICheri))
	p := spawnRun(t, m)
	if len(m.Kern.Ledger.Violations()) != 0 {
		t.Fatalf("ledger violations: %v", m.Kern.Ledger.Violations())
	}
	caps := m.Kern.Ledger.ForPrincipal(p.Prin.ID)
	if len(caps) == 0 {
		t.Fatal("no abstract capabilities recorded for the process")
	}
}

func TestKernelPointerLeakMitigated(t *testing.T) {
	build := func(abi image.ABI) *image.Image {
		var code []isa.Inst
		if abi == image.ABICheri {
			code = []isa.Inst{
				{Op: isa.CINCOFFI, Ra: isa.CT0, Rb: isa.CSP, Imm: -64},
				{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: SysctlKernPtr},
				{Op: isa.CMOVE, Ra: isa.CA0, Rb: isa.CT0}, // oldp
				{Op: isa.CMOVE, Ra: isa.CA1, Rb: isa.CNULL},
				{Op: isa.CMOVE, Ra: isa.CA2, Rb: isa.CNULL},
				{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysSysctl},
				{Op: isa.SYSCALL},
				{Op: isa.CLD, Ra: 9, Rb: isa.CT0, Imm: -64},
				{Op: isa.SRLI, Ra: isa.RA0, Rb: 9, Imm: 60}, // high nibble: 0xF for kernel addrs
				{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
				{Op: isa.SYSCALL},
			}
		} else {
			code = []isa.Inst{
				{Op: isa.ADDI, Ra: 8, Rb: isa.RSP, Imm: -64},
				{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: SysctlKernPtr},
				{Op: isa.OR, Ra: isa.RA1, Rb: 8, Rc: 0},
				{Op: isa.ADDI, Ra: isa.RA2, Rb: 0, Imm: 0},
				{Op: isa.ADDI, Ra: isa.RA3, Rb: 0, Imm: 0},
				{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysSysctl},
				{Op: isa.SYSCALL},
				{Op: isa.LD, Ra: 9, Rb: 8, Imm: 0},
				{Op: isa.SRLI, Ra: isa.RA0, Rb: 9, Imm: 60},
				{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
				{Op: isa.SYSCALL},
			}
		}
		return &image.Image{
			Name: "leak", ABI: abi, Code: asm(code), Entry: "_start",
			Symbols: map[string]*image.Symbol{
				"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: uint64(len(code) * 4), Global: true},
			},
		}
	}
	// Legacy: the exported value is a kernel address (top nibble 0xF).
	m := boot(t, build(image.ABILegacy))
	p := spawnRun(t, m)
	if p.ExitCode() != 0xF {
		t.Fatalf("legacy sysctl should leak a kernel address, exit=%d", p.ExitCode())
	}
	// CheriABI: opaque identifier.
	m2 := boot(t, build(image.ABICheri))
	p2 := spawnRun(t, m2)
	if p2.ExitCode() == 0xF {
		t.Fatal("CheriABI sysctl leaked a kernel address")
	}
}

func TestStdoutGoesToConsole(t *testing.T) {
	var sb strings.Builder
	m := NewMachine(Config{MemBytes: 64 << 20, Console: &sb})
	b, _ := helloImage(image.ABICheri).Marshal()
	m.Kern.FS.WriteFile("/bin/prog", b)
	p, err := m.Kern.Spawn("/bin/prog", []string{"prog"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.RunUntilExit(p, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "hello" {
		t.Fatalf("console got %q", sb.String())
	}
}

func TestArgvDelivered(t *testing.T) {
	// Program prints argv[1] (length 3) to stdout.
	code := []isa.Inst{
		// c3 (CA0) = argv at entry; argv[1] at offset 16
		{Op: isa.CLC, Ra: isa.CA0, Rb: isa.CA0, Imm: 16},
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 1}, // fd
		{Op: isa.ADDI, Ra: isa.RA1, Rb: 0, Imm: 3}, // n
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysWrite},
		{Op: isa.SYSCALL},
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 0},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
		{Op: isa.SYSCALL},
	}
	img := &image.Image{
		Name: "argv", ABI: image.ABICheri, Code: asm(code), Entry: "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: uint64(len(code) * 4), Global: true},
		},
	}
	m := boot(t, img)
	p := spawnRun(t, m, "prog", "abc")
	if p.Stdout.String() != "abc" {
		t.Fatalf("argv output %q", p.Stdout.String())
	}
}

func TestArgvCapabilityIsBounded(t *testing.T) {
	// Reading past the end of argv[1] ("abc\0" = 4 bytes) must fault.
	code := []isa.Inst{
		{Op: isa.CLC, Ra: isa.CT0, Rb: isa.CA0, Imm: 16},
		{Op: isa.CLBU, Ra: 9, Rb: isa.CT0, Imm: 4}, // one past NUL
		{Op: isa.ADDI, Ra: isa.RA0, Rb: 0, Imm: 0},
		{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit},
		{Op: isa.SYSCALL},
	}
	img := &image.Image{
		Name: "argvb", ABI: image.ABICheri, Code: asm(code), Entry: "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: uint64(len(code) * 4), Global: true},
		},
	}
	m := boot(t, img)
	p := spawnRun(t, m, "prog", "abc")
	if p.TermSignal() != SIGPROT {
		t.Fatalf("argv capability not bounded: status %#x", p.Status)
	}
}

func TestFreshPrincipalsPerExec(t *testing.T) {
	m := boot(t, helloImage(image.ABICheri))
	p1 := spawnRun(t, m)
	p2 := spawnRun(t, m)
	if p1.Prin.ID == p2.Prin.ID {
		t.Fatal("process principals must be fresh per execve")
	}
}
