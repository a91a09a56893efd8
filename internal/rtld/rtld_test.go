package rtld

import (
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

// testEnv builds an address space and a linker for the given ABI.
func testEnv(t *testing.T, abi image.ABI) (*Linker, *mem.Physical) {
	t.Helper()
	m := mem.New(32 << 20)
	sys := vm.NewSystem(m, 1<<20)
	ld := &Linker{
		AS:       sys.NewAddressSpace(),
		Mem:      m,
		ABI:      abi,
		UserRoot: cap.Root(0, 1<<40, cap.PermAll),
		NextBase: 0x100000,
	}
	return ld, m
}

// libImage defines a library exporting a function `add` and a variable
// `counter` (8 bytes, initialised to 7).
func libImage(abi image.ABI) *image.Image {
	code := []uint32{
		isa.MustEncode(isa.Inst{Op: isa.ADD, Ra: 2, Rb: 4, Rc: 5}),
		isa.MustEncode(isa.Inst{Op: isa.JR, Ra: 31}),
	}
	return &image.Image{
		Name: "libadd.so",
		ABI:  abi,
		Code: code,
		Data: []byte{7, 0, 0, 0, 0, 0, 0, 0},
		Symbols: map[string]*image.Symbol{
			"add":     {Name: "add", Kind: image.SymFunc, Sec: image.SecText, Off: 0, Size: 8, Global: true},
			"counter": {Name: "counter", Kind: image.SymObject, Sec: image.SecData, Off: 0, Size: 8, Global: true},
		},
	}
}

// exeImage references add and counter from libadd.so and has a global
// pointer initialiser (cap_reloc) for a local string.
func exeImage(abi image.ABI) *image.Image {
	ptr := 16
	if abi == image.ABILegacy {
		ptr = 8
	}
	return &image.Image{
		Name:   "main",
		ABI:    abi,
		Code:   []uint32{isa.MustEncode(isa.Inst{Op: isa.BREAK})},
		ROData: []byte("hi\x00"),
		Data:   make([]byte, ptr), // holds the relocated pointer
		BSS:    32,
		Entry:  "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Off: 0, Size: 4, Global: true},
			"$str0":  {Name: "$str0", Kind: image.SymObject, Sec: image.SecROData, Off: 0, Size: 3},
			"msgp":   {Name: "msgp", Kind: image.SymObject, Sec: image.SecData, Off: 0, Size: uint64(ptr), Global: true},
			"buf":    {Name: "buf", Kind: image.SymObject, Sec: image.SecBSS, Off: 0, Size: 32, Global: true},
		},
		GOT: []image.GOTEntry{
			{Sym: "add", Kind: image.GOTFunc, Slot: 0},
			{Sym: "counter", Kind: image.GOTData, Slot: 2},
			{Sym: "$str0", Kind: image.GOTData, Slot: 3},
			{Sym: "buf", Kind: image.GOTData, Slot: 4},
		},
		GOTSlots:  5,
		CapRelocs: []image.CapReloc{{Off: 0, Target: "$str0"}},
		Needed:    []string{"libadd.so"},
	}
}

func load(t *testing.T, abi image.ABI) (*Linker, *Linked, *mem.Physical) {
	t.Helper()
	ld, m := testEnv(t, abi)
	lib := libImage(abi)
	ld.Resolve = func(name string) (*image.Image, error) {
		if name != "libadd.so" {
			t.Fatalf("unexpected dep %q", name)
		}
		return lib, nil
	}
	ln, err := ld.Load(exeImage(abi))
	if err != nil {
		t.Fatal(err)
	}
	return ld, ln, m
}

func (ld *Linker) readCap(t *testing.T, va uint64) cap.Capability {
	t.Helper()
	pa, pf := ld.AS.Translate(va, vm.ProtRead)
	if pf != nil {
		t.Fatal(pf)
	}
	buf := make([]byte, cap.Bytes)
	tag := ld.Mem.LoadCap(pa, buf)
	return cap.Decode(buf, tag)
}

func (ld *Linker) readWord(t *testing.T, va uint64) uint64 {
	t.Helper()
	pa, pf := ld.AS.Translate(va, vm.ProtRead)
	if pf != nil {
		t.Fatal(pf)
	}
	return ld.Mem.Load(pa, 8)
}

func TestLoadCheriABI(t *testing.T) {
	ld, ln, _ := load(t, image.ABICheri)
	if len(ln.Order) != 2 {
		t.Fatalf("loaded %d images", len(ln.Order))
	}
	exe, lib := ln.Exec, ln.Images["libadd.so"]

	// Function descriptor: slot 0 = code cap bounded to lib text, slot 1 =
	// lib's GOT cap.
	fc := ld.readCap(t, ld.slotVA(exe, 0))
	if !fc.Tag() || !fc.HasPerm(cap.PermExecute) {
		t.Fatalf("descriptor code cap: %v", fc)
	}
	if fc.Addr() != lib.SymbolVA(lib.Img.Lookup("add")) {
		t.Fatalf("descriptor addr %x", fc.Addr())
	}
	if fc.Base() != lib.Base+lib.Layout.TextOff || fc.Len() != lib.Layout.TextSize {
		t.Fatalf("function bounds should cover the defining object: %v", fc)
	}
	gc := ld.readCap(t, ld.slotVA(exe, 1))
	if !gc.Equal(lib.GOTCap) {
		t.Fatalf("descriptor GOT cap: %v vs %v", gc, lib.GOTCap)
	}

	// Data entry: per-symbol bounds.
	cc := ld.readCap(t, ld.slotVA(exe, 2))
	if !cc.Tag() || cc.Len() != 8 || cc.Base() != lib.SymbolVA(lib.Img.Lookup("counter")) {
		t.Fatalf("counter cap: %v", cc)
	}
	if cc.HasPerm(cap.PermExecute) || cc.HasPerm(cap.PermVMMap) {
		t.Fatalf("data cap over-privileged: %v", cc)
	}

	// RO literal: read-only perms.
	sc := ld.readCap(t, ld.slotVA(exe, 3))
	if sc.HasPerm(cap.PermStore) {
		t.Fatalf("rodata cap writable: %v", sc)
	}
	if sc.Len() != 3 {
		t.Fatalf("literal bounds: %v", sc)
	}

	// BSS symbol.
	bc := ld.readCap(t, ld.slotVA(exe, 4))
	if bc.Len() != 32 {
		t.Fatalf("bss cap: %v", bc)
	}

	// cap_reloc wrote a tagged capability into data[0].
	pc := ld.readCap(t, exe.Base+exe.Layout.DataOff)
	if !pc.Tag() || pc.Len() != 3 {
		t.Fatalf("cap reloc: %v", pc)
	}
}

func TestLoadLegacy(t *testing.T) {
	ld, ln, _ := load(t, image.ABILegacy)
	exe, lib := ln.Exec, ln.Images["libadd.so"]
	if got := ld.readWord(t, ld.slotVA(exe, 0)); got != lib.SymbolVA(lib.Img.Lookup("add")) {
		t.Fatalf("legacy func slot = %x", got)
	}
	if got := ld.readWord(t, ld.slotVA(exe, 1)); got != lib.Base+lib.Layout.GOTOff {
		t.Fatalf("legacy callee-gp slot = %x", got)
	}
	if got := ld.readWord(t, ld.slotVA(exe, 2)); got != lib.SymbolVA(lib.Img.Lookup("counter")) {
		t.Fatalf("legacy counter slot = %x", got)
	}
	// Legacy cap_reloc wrote a plain address.
	if got := ld.readWord(t, exe.Base+exe.Layout.DataOff); got != exe.Base+exe.Layout.ROOff {
		t.Fatalf("legacy reloc = %x", got)
	}
}

func TestDataContentsCopied(t *testing.T) {
	ld, ln, _ := load(t, image.ABICheri)
	lib := ln.Images["libadd.so"]
	if got := ld.readWord(t, lib.SymbolVA(lib.Img.Lookup("counter"))); got != 7 {
		t.Fatalf("counter initial value = %d", got)
	}
}

func TestUndefinedSymbol(t *testing.T) {
	ld, _ := testEnv(t, image.ABICheri)
	exe := exeImage(image.ABICheri)
	exe.Needed = nil // lib not loaded -> add unresolved
	ld.Resolve = func(string) (*image.Image, error) { t.Fatal("no deps expected"); return nil, nil }
	if _, err := ld.Load(exe); err == nil {
		t.Fatal("undefined symbol not reported")
	}
}

func TestABIMismatchRejected(t *testing.T) {
	ld, _ := testEnv(t, image.ABICheri)
	exe := exeImage(image.ABILegacy)
	if _, err := ld.Load(exe); err == nil {
		t.Fatal("ABI mismatch not rejected")
	}
}

func TestEntryPoint(t *testing.T) {
	ld, ln, _ := load(t, image.ABICheri)
	pc, pcc, cgp, gotAddr, err := ld.EntryPoint(ln)
	if err != nil {
		t.Fatal(err)
	}
	if pc != ln.Exec.Base {
		t.Fatalf("entry pc = %x", pc)
	}
	if !pcc.Tag() || !pcc.HasPerm(cap.PermExecute) || pcc.Addr() != pc {
		t.Fatalf("entry pcc: %v", pcc)
	}
	if !cgp.Equal(ln.Exec.GOTCap) {
		t.Fatal("entry cgp wrong")
	}
	if gotAddr != ln.Exec.Base+ln.Exec.Layout.GOTOff {
		t.Fatalf("got addr = %x", gotAddr)
	}
}

func TestTraceHookSeesLinkerCaps(t *testing.T) {
	ld, m := testEnv(t, image.ABICheri)
	_ = m
	lib := libImage(image.ABICheri)
	ld.Resolve = func(string) (*image.Image, error) { return lib, nil }
	counts := map[string]int{}
	ld.Trace = func(kind string, c cap.Capability) { counts[kind]++ }
	if _, err := ld.Load(exeImage(image.ABICheri)); err != nil {
		t.Fatal(err)
	}
	if counts["glob relocs"] == 0 || counts["exec"] == 0 || counts["cap relocs"] == 0 {
		t.Fatalf("trace counts: %v", counts)
	}
}

func TestGuardPagesBetweenImages(t *testing.T) {
	ld, ln, _ := load(t, image.ABICheri)
	exe := ln.Exec
	lib := ln.Images["libadd.so"]
	if lib.Base < exe.Base+exe.Layout.Total+vm.PageSize {
		t.Fatalf("no guard page: exe ends %x, lib at %x", exe.Base+exe.Layout.Total, lib.Base)
	}
	if ld.AS.Mapped(exe.Base+exe.Layout.Total, vm.PageSize) {
		t.Fatal("guard page is mapped")
	}
}
