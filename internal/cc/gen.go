package cc

import (
	"fmt"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
)

// Options configure a compilation.
type Options struct {
	Name   string
	ABI    image.ABI
	Shared bool // build a library (no _start)
	// ASan instruments the legacy build with AddressSanitizer-style shadow
	// checks and redzones (the paper's comparison baseline).
	ASan bool
	// BigCLC lets the code generator use the large-immediate capability
	// loads (the §5.2 ISA extension). Without it, far GOT slots cost an
	// address-construction sequence.
	BigCLC bool
	// SubObjectBounds narrows capabilities derived for struct members to
	// the member itself — the paper's §6 future-work extension ("Most
	// references to struct members could be bounded safely, but the
	// exceptions require exploration"): container_of-style code breaks
	// under it, which is exactly the compatibility cost the paper
	// anticipates.
	SubObjectBounds bool
	// Needed lists shared-library dependencies.
	Needed []string
}

// Temp register pools.
var intTempRegs = []uint8{8, 9, 10, 11, 12, 13, 14, 15, isa.RT8, isa.RT9}
var capTempRegs = []uint8{isa.CT2, 13, 14, 15, 16, isa.CT3, 28, 29}

// ASan shadow parameters: shadow byte for address a lives at
// ShadowBase + a/8.
const (
	ShadowBase  = 0x6000_0000
	ShadowScale = 3
)

type localVar struct {
	off  int64
	typ  *ctype
	line int
}

type gen struct {
	opt     Options
	unit    *unit
	lints   []Finding
	cheri   bool
	ptrSize int64

	code      []isa.Inst
	ro        []byte
	data      []byte
	bss       uint64
	symbols   map[string]*image.Symbol
	gotIndex  map[string]int // symbol -> GOT entry index
	got       []image.GOTEntry
	gotSlots  int
	capRelocs []image.CapReloc
	strCount  int

	globals     map[string]*ctype // global variable types
	funcs       map[string]*funcDecl
	funcStart   map[string]int // name -> instruction index
	callFix     []fixup        // cross-function call fixups
	usesErrno   bool
	asanGlobals []string // globals needing startup redzone poisoning

	// per-function state
	fn        *funcDecl
	locals    []map[string]localVar
	allLocals []localVar
	frameSize int64
	localOff  int64
	retLabel  int
	labels    []int // label -> inst index (-1 unbound)
	branchFix []fixup
	breakLbl  []int
	contLbl   []int
	intLive   []uint8
	capLive   []uint8
}

type fixup struct {
	idx   int    // instruction index
	label int    // branch target label
	fn    string // call target function (callFix)
}

// Frame layout offsets (from csp/sp after the prologue).
const (
	frameRAOff  = 0 // saved return capability/address
	nIntSpill   = 10
	nCapSpill   = 8
	maxVarargsN = 10
)

func (g *gen) frameGPOff() int64  { return g.ptrSize }                  // saved cgp/gp
func (g *gen) intSpillOff() int64 { return g.frameGPOff() + g.ptrSize } // 10 int slots
func (g *gen) capSpillOff() int64 { return g.intSpillOff() + nIntSpill*8 }
func (g *gen) varargOff() int64 {
	off := g.capSpillOff()
	if g.cheri {
		off += nCapSpill * cap.Bytes
	}
	return off
}
func (g *gen) localBase() int64 {
	return align64(g.varargOff()+maxVarargsN*16, 16)
}

func align64(v, a int64) int64 { return (v + a - 1) &^ (a - 1) }

func (g *gen) errf(line int, format string, args ...interface{}) error {
	return fmt.Errorf("%s:%d: %s", g.opt.Name, line, fmt.Sprintf(format, args...))
}

// ---- type layout (ABI dependent: the "pointer shape" category) ----

func (g *gen) sizeOf(t *ctype) int64 {
	switch t.kind {
	case tVoid:
		return 1
	case tInt:
		if t.capInt && g.cheri {
			return cap.Bytes
		}
		return int64(t.size)
	case tPtr:
		return g.ptrSize
	case tArray:
		return g.sizeOf(t.elem) * int64(t.arrayLen)
	case tStruct:
		size := int64(0)
		for _, f := range t.sdef.fields {
			a := g.alignOf(f.typ)
			size = align64(size, a) + g.sizeOf(f.typ)
		}
		return align64(size, g.alignOf(t))
	}
	return 8
}

func (g *gen) alignOf(t *ctype) int64 {
	switch t.kind {
	case tInt:
		if t.capInt && g.cheri {
			return cap.Bytes
		}
		return int64(t.size)
	case tPtr:
		return g.ptrSize
	case tArray:
		return g.alignOf(t.elem)
	case tStruct:
		a := int64(1)
		for _, f := range t.sdef.fields {
			if fa := g.alignOf(f.typ); fa > a {
				a = fa
			}
		}
		return a
	}
	return 1
}

func (g *gen) fieldOffset(sd *structDef, name string) (int64, *ctype, bool) {
	off := int64(0)
	for _, f := range sd.fields {
		off = align64(off, g.alignOf(f.typ))
		if f.name == name {
			return off, f.typ, true
		}
		off += g.sizeOf(f.typ)
	}
	return 0, nil, false
}

// ---- emission ----

func (g *gen) emit(in isa.Inst) int {
	g.code = append(g.code, in)
	return len(g.code) - 1
}

func (g *gen) newLabel() int {
	g.labels = append(g.labels, -1)
	return len(g.labels) - 1
}

func (g *gen) bind(l int) { g.labels[l] = len(g.code) }

// emitBranch emits a conditional branch or jump to a label, fixed up at
// function end.
func (g *gen) emitBranch(in isa.Inst, label int) {
	idx := g.emit(in)
	g.branchFix = append(g.branchFix, fixup{idx: idx, label: label})
}

// emitJump emits an unconditional jump to a label.
func (g *gen) emitJump(label int) {
	g.emitBranch(isa.Inst{Op: isa.J}, label)
}

// resolveBranches patches branch offsets after a function body is emitted.
func (g *gen) resolveBranches() error {
	for _, f := range g.branchFix {
		target := g.labels[f.label]
		if target < 0 {
			return fmt.Errorf("cc: unbound label in %s", g.fn.name)
		}
		delta := target - f.idx
		g.code[f.idx].Imm = int32(delta)
	}
	g.branchFix = g.branchFix[:0]
	g.labels = g.labels[:0]
	return nil
}

// emitConst materialises a 64-bit constant into integer register rd using
// LUI/ORI/SLLI chains (MIPS-style constant synthesis).
func (g *gen) emitConst(rd uint8, v int64) {
	if v >= -8192 && v <= 8191 {
		g.emit(isa.Inst{Op: isa.ADDI, Ra: rd, Rb: 0, Imm: int32(v)})
		return
	}
	u := uint64(v)
	if v >= 0 && u < 1<<33 {
		// LUI (19-bit << 14) + ORI covers positive values below 2^33.
		g.emit(isa.Inst{Op: isa.LUI, Ra: rd, Imm: int32(u >> 14)})
		if low := u & 0x3FFF; low != 0 {
			g.emit(isa.Inst{Op: isa.ORI, Ra: rd, Rb: rd, Imm: int32(low)})
		}
		return
	}
	// General case: build in 14-bit chunks from the top.
	g.emit(isa.Inst{Op: isa.ADDI, Ra: rd, Rb: 0, Imm: int32(u >> 56 & 0xFF)})
	for shift := 42; shift >= 0; shift -= 14 {
		g.emit(isa.Inst{Op: isa.SLLI, Ra: rd, Rb: rd, Imm: 14})
		if chunk := u >> uint(shift) & 0x3FFF; chunk != 0 {
			g.emit(isa.Inst{Op: isa.ORI, Ra: rd, Rb: rd, Imm: int32(chunk)})
		}
	}
}

// ---- temp registers ----

func allocFrom(pool []uint8, live *[]uint8) (uint8, bool) {
	for _, r := range pool {
		used := false
		for _, l := range *live {
			if l == r {
				used = true
				break
			}
		}
		if !used {
			*live = append(*live, r)
			return r, true
		}
	}
	return 0, false
}

func releaseFrom(live *[]uint8, reg uint8) {
	l := *live
	for i := len(l) - 1; i >= 0; i-- {
		if l[i] == reg {
			*live = append(l[:i], l[i+1:]...)
			return
		}
	}
}

func (g *gen) allocInt(line int) (uint8, error) {
	r, ok := allocFrom(intTempRegs, &g.intLive)
	if !ok {
		return 0, g.errf(line, "expression too complex (integer temporaries exhausted)")
	}
	return r, nil
}

func (g *gen) allocCap(line int) (uint8, error) {
	r, ok := allocFrom(capTempRegs, &g.capLive)
	if !ok {
		return 0, g.errf(line, "expression too complex (capability temporaries exhausted)")
	}
	return r, nil
}

func (g *gen) release(v val) {
	if v.kind == vkNone {
		return
	}
	if v.isCap {
		releaseFrom(&g.capLive, v.reg)
	} else {
		releaseFrom(&g.intLive, v.reg)
	}
}

// spillLive saves the live temps allocated before a call's arguments
// (those below the intMark/capMark watermarks) and returns them for
// restoreLive.
func (g *gen) spillLive(intMark, capMark int) (ints, caps []uint8) {
	ints = append(ints, g.intLive[:intMark]...)
	caps = append(caps, g.capLive[:capMark]...)
	for i, r := range ints {
		g.storeLocalSlot(g.intSpillOff()+int64(i)*8, r, 8)
	}
	for i, r := range caps {
		g.storeLocalCapSlot(g.capSpillOff()+int64(i)*cap.Bytes, r)
	}
	return ints, caps
}

// restoreLive reloads the temps spillLive saved.
func (g *gen) restoreLive(ints, caps []uint8) {
	for i, r := range ints {
		g.loadLocalSlot(g.intSpillOff()+int64(i)*8, r, 8, false)
	}
	for i, r := range caps {
		g.loadLocalCapSlot(g.capSpillOff()+int64(i)*cap.Bytes, r)
	}
}

// ---- frame slot access ----

// stackBase returns the register addressing the frame (csp or sp).
func (g *gen) loadLocalSlot(off int64, rd uint8, size int64, signed bool) {
	var op isa.Op
	switch {
	case size == 1 && signed:
		op = isa.CLB
	case size == 1:
		op = isa.CLBU
	case size == 2 && signed:
		op = isa.CLH
	case size == 2:
		op = isa.CLHU
	case size == 4 && signed:
		op = isa.CLW
	case size == 4:
		op = isa.CLWU
	default:
		op = isa.CLD
	}
	if !g.cheri {
		switch op {
		case isa.CLB:
			op = isa.LB
		case isa.CLBU:
			op = isa.LBU
		case isa.CLH:
			op = isa.LH
		case isa.CLHU:
			op = isa.LHU
		case isa.CLW:
			op = isa.LW
		case isa.CLWU:
			op = isa.LWU
		default:
			op = isa.LD
		}
		g.emit(isa.Inst{Op: op, Ra: rd, Rb: isa.RSP, Imm: int32(off)})
		return
	}
	g.emit(isa.Inst{Op: op, Ra: rd, Rb: isa.CSP, Imm: int32(off)})
}

func (g *gen) storeLocalSlot(off int64, rs uint8, size int64) {
	var op isa.Op
	switch size {
	case 1:
		op = isa.CSB
	case 2:
		op = isa.CSH
	case 4:
		op = isa.CSW
	default:
		op = isa.CSD
	}
	if !g.cheri {
		switch op {
		case isa.CSB:
			op = isa.SB
		case isa.CSH:
			op = isa.SH
		case isa.CSW:
			op = isa.SW
		default:
			op = isa.SD
		}
		g.emit(isa.Inst{Op: op, Ra: rs, Rb: isa.RSP, Imm: int32(off)})
		return
	}
	g.emit(isa.Inst{Op: op, Ra: rs, Rb: isa.CSP, Imm: int32(off)})
}

func (g *gen) loadLocalCapSlot(off int64, cd uint8) {
	if !g.cheri {
		g.emit(isa.Inst{Op: isa.LD, Ra: cd, Rb: isa.RSP, Imm: int32(off)})
		return
	}
	switch {
	case off >= isa.CLCShortRangeMin && off <= isa.CLCShortRangeMax:
		g.emit(isa.Inst{Op: isa.CLC, Ra: cd, Rb: isa.CSP, Imm: int32(off)})
	case g.opt.BigCLC:
		g.emit(isa.Inst{Op: isa.CLCB, Ra: cd, Rb: isa.CSP, Imm: int32(off)})
	default:
		// Pre-extension encoding: construct the address explicitly.
		g.emitConst(isa.RAT, off)
		g.emit(isa.Inst{Op: isa.CINCOFF, Ra: isa.CT0, Rb: isa.CSP, Rc: isa.RAT})
		g.emit(isa.Inst{Op: isa.CLC, Ra: cd, Rb: isa.CT0, Imm: 0})
	}
}

func (g *gen) storeLocalCapSlot(off int64, cs uint8) {
	if !g.cheri {
		g.emit(isa.Inst{Op: isa.SD, Ra: cs, Rb: isa.RSP, Imm: int32(off)})
		return
	}
	switch {
	case off >= isa.CLCShortRangeMin && off <= isa.CLCShortRangeMax:
		g.emit(isa.Inst{Op: isa.CSC, Ra: cs, Rb: isa.CSP, Imm: int32(off)})
	case g.opt.BigCLC:
		g.emit(isa.Inst{Op: isa.CSCB, Ra: cs, Rb: isa.CSP, Imm: int32(off)})
	default:
		g.emitConst(isa.RAT, off)
		g.emit(isa.Inst{Op: isa.CINCOFF, Ra: isa.CT0, Rb: isa.CSP, Rc: isa.RAT})
		g.emit(isa.Inst{Op: isa.CSC, Ra: cs, Rb: isa.CT0, Imm: 0})
	}
}

// ---- scopes ----

func (g *gen) pushScope() { g.locals = append(g.locals, map[string]localVar{}) }
func (g *gen) popScope()  { g.locals = g.locals[:len(g.locals)-1] }

func (g *gen) lookupLocal(name string) (localVar, bool) {
	for i := len(g.locals) - 1; i >= 0; i-- {
		if lv, ok := g.locals[i][name]; ok {
			return lv, true
		}
	}
	return localVar{}, false
}

// defineLocal allocates frame space for a local, with ASan redzones when
// instrumenting.
func (g *gen) defineLocal(name string, typ *ctype, line int) (localVar, error) {
	size := g.sizeOf(typ)
	a := g.alignOf(typ)
	if g.cheri && (typ.isArray() || typ.kind == tStruct) {
		// Address-taken aggregates get bounded capabilities; align them so
		// small-object bounds stay exact under compression.
		if a < 16 {
			a = 16
		}
		size = int64(cap.RepresentableLength(uint64(size)))
	}
	if g.opt.ASan {
		g.localOff = align64(g.localOff, 8) + asanRedzone
	}
	g.localOff = align64(g.localOff, a)
	lv := localVar{off: g.localOff, typ: typ, line: line}
	g.localOff += size
	if g.localOff+g.localBase() > 1<<20 {
		return lv, g.errf(line, "stack frame too large")
	}
	g.locals[len(g.locals)-1][name] = lv
	g.allLocals = append(g.allLocals, lv)
	return lv, nil
}

const asanRedzone = 32
