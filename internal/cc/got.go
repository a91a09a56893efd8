package cc

import (
	"fmt"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
)

// GOT management. Every global object access goes through the GOT (both
// ABIs: classic PIC for legacy, per-symbol bounded capabilities for
// CheriABI). Function descriptors occupy two consecutive slots.

// gotEntryFor returns the slot index of the entry for sym, creating it on
// first use.
func (g *gen) gotEntryFor(sym string, kind image.GOTKind) int {
	if slot, ok := g.gotIndex[sym]; ok {
		return slot
	}
	slot := g.gotSlots
	e := image.GOTEntry{Sym: sym, Kind: kind, Slot: slot}
	g.gotSlots += e.Slots()
	g.got = append(g.got, e)
	g.gotIndex[sym] = slot
	return slot
}

// slotByteOff converts a slot index to a byte offset for this ABI.
func (g *gen) slotByteOff(slot int) int64 {
	return int64(slot) * g.ptrSize
}

// emitGOTLoadCap loads GOT[byte offset] into capability register cd,
// choosing between the short CLC, the large-immediate CLCB (the §5.2
// extension), and an explicit address-construction sequence.
func (g *gen) emitGOTLoadCap(cd uint8, off int64) {
	switch {
	case off >= isa.CLCShortRangeMin && off <= isa.CLCShortRangeMax:
		g.emit(isa.Inst{Op: isa.CLC, Ra: cd, Rb: isa.CGP, Imm: int32(off)})
	case g.opt.BigCLC && off >= isa.CLCBigRangeMin && off <= isa.CLCBigRangeMax:
		g.emit(isa.Inst{Op: isa.CLCB, Ra: cd, Rb: isa.CGP, Imm: int32(off)})
	default:
		// Expensive far-GOT access: build the offset and indirect.
		g.emitConst(isa.RAT, off)
		g.emit(isa.Inst{Op: isa.CINCOFF, Ra: isa.CT0, Rb: isa.CGP, Rc: isa.RAT})
		g.emit(isa.Inst{Op: isa.CLC, Ra: cd, Rb: isa.CT0, Imm: 0})
	}
}

// emitGOTLoadWord is the legacy equivalent: an 8-byte slot load.
func (g *gen) emitGOTLoadWord(rd uint8, off int64) {
	if off >= -8192 && off <= 8191 {
		g.emit(isa.Inst{Op: isa.LD, Ra: rd, Rb: isa.RGP, Imm: int32(off)})
		return
	}
	g.emitConst(isa.RAT, off)
	g.emit(isa.Inst{Op: isa.ADD, Ra: isa.RAT, Rb: isa.RGP, Rc: isa.RAT})
	g.emit(isa.Inst{Op: isa.LD, Ra: rd, Rb: isa.RAT, Imm: 0})
}

// loadGOTValue loads the GOT entry for a data symbol as a value of the
// given pointer type.
func (g *gen) loadGOTValue(sym string, typ *ctype, line int) (val, error) {
	slot := g.gotEntryFor(sym, image.GOTData)
	off := g.slotByteOff(slot)
	if g.cheri {
		cd, err := g.allocCap(line)
		if err != nil {
			return val{}, err
		}
		g.emitGOTLoadCap(cd, off)
		return val{kind: vkTemp, typ: typ, reg: cd, isCap: true}, nil
	}
	rd, err := g.allocInt(line)
	if err != nil {
		return val{}, err
	}
	g.emitGOTLoadWord(rd, off)
	return val{kind: vkTemp, typ: typ, reg: rd}, nil
}

// globalLval produces the location of a global variable: the per-symbol
// capability (or address) loaded from the GOT.
func (g *gen) globalLval(name string, typ *ctype, line int) (lval, error) {
	v, err := g.loadGOTValue(name, ptrTo(typ), line)
	if err != nil {
		return lval{}, err
	}
	return lval{reg: v.reg, typ: typ, temp: true}, nil
}

// funcGOTOffset returns the byte offset of a function's descriptor.
func (g *gen) funcGOTOffset(name string) (int64, error) {
	slot := g.gotEntryFor(name, image.GOTFunc)
	return g.slotByteOff(slot), nil
}

// funcPointer yields a function-pointer value: a pointer to the two-slot
// descriptor in this image's GOT.
func (g *gen) funcPointer(name string, fd *funcDecl, line int) (val, error) {
	off, err := g.funcGOTOffset(name)
	if err != nil {
		return val{}, err
	}
	ftyp := ptrTo(&ctype{kind: tFunc, fn: fd.sig})
	if g.cheri {
		cd, err := g.allocCap(line)
		if err != nil {
			return val{}, err
		}
		if off >= -8192 && off <= 8191 {
			g.emit(isa.Inst{Op: isa.CINCOFFI, Ra: cd, Rb: isa.CGP, Imm: int32(off)})
		} else {
			g.emitConst(isa.RAT, off)
			g.emit(isa.Inst{Op: isa.CINCOFF, Ra: cd, Rb: isa.CGP, Rc: isa.RAT})
		}
		g.emit(isa.Inst{Op: isa.ADDI, Ra: isa.RAT, Rb: 0, Imm: 2 * cap.Bytes})
		g.emit(isa.Inst{Op: isa.CSETBNDS, Ra: cd, Rb: cd, Rc: isa.RAT})
		return val{kind: vkTemp, typ: ftyp, reg: cd, isCap: true}, nil
	}
	rd, err := g.allocInt(line)
	if err != nil {
		return val{}, err
	}
	// Legacy: descriptor address = gp + off. gp register holds the GOT VA.
	if off >= -8192 && off <= 8191 {
		g.emit(isa.Inst{Op: isa.ADDI, Ra: rd, Rb: isa.RGP, Imm: int32(off)})
	} else {
		g.emitConst(rd, off)
		g.emit(isa.Inst{Op: isa.ADD, Ra: rd, Rb: isa.RGP, Rc: rd})
	}
	return val{kind: vkTemp, typ: ftyp, reg: rd}, nil
}

// internString adds a string literal to rodata and returns its symbol.
func (g *gen) internString(s string) string {
	name := fmt.Sprintf("$str%d", g.strCount)
	g.strCount++
	off := uint64(len(g.ro))
	g.ro = append(g.ro, s...)
	g.ro = append(g.ro, 0)
	g.symbols[name] = &image.Symbol{
		Name: name, Kind: image.SymObject, Sec: image.SecROData,
		Off: off, Size: uint64(len(s)) + 1,
	}
	return name
}

// errnoSymbol is the hidden global backing errno().
const errnoSymbol = "$__errno"

func (g *gen) ensureErrno() {
	if _, ok := g.symbols[errnoSymbol]; ok {
		return
	}
	g.bss = align64u(g.bss, 8)
	g.symbols[errnoSymbol] = &image.Symbol{
		Name: errnoSymbol, Kind: image.SymObject, Sec: image.SecBSS,
		Off: g.bss, Size: 8,
	}
	g.bss += 8
	g.globals[errnoSymbol] = typeLong
}

// emitErrnoStore saves RV1 into the errno global after a syscall.
func (g *gen) emitErrnoStore() {
	g.ensureErrno()
	slot := g.gotEntryFor(errnoSymbol, image.GOTData)
	off := g.slotByteOff(slot)
	if g.cheri {
		g.emitGOTLoadCap(isa.CK0, off)
		g.emit(isa.Inst{Op: isa.CSD, Ra: isa.RV1, Rb: isa.CK0, Imm: 0})
	} else {
		g.emitGOTLoadWord(isa.RK0, off)
		g.emit(isa.Inst{Op: isa.SD, Ra: isa.RV1, Rb: isa.RK0, Imm: 0})
	}
}

// loadErrno reads the errno global.
func (g *gen) loadErrno(line int) (val, error) {
	g.ensureErrno()
	glv, err := g.globalLval(errnoSymbol, typeLong, line)
	if err != nil {
		return val{}, err
	}
	v, err := g.loadLval(glv, line)
	g.releaseLval(glv)
	return v, err
}

func align64u(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
