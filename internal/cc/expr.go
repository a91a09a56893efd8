package cc

import (
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
)

// val is an expression result held in a register. Under CheriABI,
// pointer-typed (and intptr_t-typed) values live in capability registers.
type valKind int

const (
	vkNone valKind = iota
	vkTemp
)

type val struct {
	kind  valKind
	typ   *ctype
	reg   uint8
	isCap bool
}

// lval is an assignable location: either a frame slot (local) or a
// computed address held in a register.
type lval struct {
	local bool
	off   int64 // frame offset for locals
	reg   uint8 // address register (capability under CheriABI)
	typ   *ctype
	temp  bool // reg is a temp this lval owns
}

func (g *gen) releaseLval(lv lval) {
	if lv.temp {
		g.release(val{kind: vkTemp, reg: lv.reg, isCap: g.cheri})
	}
}

// loadAndRelease loads an lvalue and releases its address register, unless
// the loaded value aliases it (array decay returns the address itself).
func (g *gen) loadAndRelease(lv lval, line int) (val, error) {
	v, err := g.loadLval(lv, line)
	if err != nil {
		return v, err
	}
	if !(lv.temp && !lv.local && v.reg == lv.reg) {
		g.releaseLval(lv)
	}
	return v, nil
}

// loadLval reads an lvalue into a fresh temp.
func (g *gen) loadLval(lv lval, line int) (val, error) {
	t := lv.typ
	if t.isArray() {
		// Arrays decay to pointers: the "value" is the address.
		return g.addrOf(lv, line)
	}
	if t.kind == tStruct {
		return val{}, g.errf(line, "struct values are not first-class; use pointers")
	}
	capLike := g.cheri && (t.isCapLike() || t.kind == tPtr && t.elem.kind == tFunc)
	if capLike {
		cd, err := g.allocCap(line)
		if err != nil {
			return val{}, err
		}
		if lv.local {
			g.loadLocalCapSlot(lv.off, cd)
		} else {
			g.emit(isa.Inst{Op: isa.CLC, Ra: cd, Rb: lv.reg, Imm: 0})
		}
		return val{kind: vkTemp, typ: t.decay(), reg: cd, isCap: true}, nil
	}
	rd, err := g.allocInt(line)
	if err != nil {
		return val{}, err
	}
	size := g.sizeOf(t)
	if lv.local {
		g.loadLocalSlot(lv.off, rd, size, t.isInt() && t.signed)
	} else {
		if g.opt.ASan {
			g.emitASanCheck(lv.reg, size)
		}
		op := memLoadOp(g.cheri, size, t.isInt() && t.signed)
		g.emit(isa.Inst{Op: op, Ra: rd, Rb: lv.reg, Imm: 0})
	}
	return val{kind: vkTemp, typ: t.decay(), reg: rd, isCap: false}, nil
}

// storeLval writes v into an lvalue.
func (g *gen) storeLval(lv lval, v val) {
	t := lv.typ
	if v.isCap {
		if lv.local {
			g.storeLocalCapSlot(lv.off, v.reg)
		} else {
			g.emit(isa.Inst{Op: isa.CSC, Ra: v.reg, Rb: lv.reg, Imm: 0})
		}
		return
	}
	size := g.sizeOf(t)
	if lv.local {
		g.storeLocalSlot(lv.off, v.reg, size)
		return
	}
	if g.opt.ASan {
		g.emitASanCheck(lv.reg, size)
	}
	g.emit(isa.Inst{Op: memStoreOp(g.cheri, size), Ra: v.reg, Rb: lv.reg, Imm: 0})
}

func memLoadOp(cheri bool, size int64, signed bool) isa.Op {
	if cheri {
		switch {
		case size == 1 && signed:
			return isa.CLB
		case size == 1:
			return isa.CLBU
		case size == 2 && signed:
			return isa.CLH
		case size == 2:
			return isa.CLHU
		case size == 4 && signed:
			return isa.CLW
		case size == 4:
			return isa.CLWU
		}
		return isa.CLD
	}
	switch {
	case size == 1 && signed:
		return isa.LB
	case size == 1:
		return isa.LBU
	case size == 2 && signed:
		return isa.LH
	case size == 2:
		return isa.LHU
	case size == 4 && signed:
		return isa.LW
	case size == 4:
		return isa.LWU
	}
	return isa.LD
}

func memStoreOp(cheri bool, size int64) isa.Op {
	if cheri {
		switch size {
		case 1:
			return isa.CSB
		case 2:
			return isa.CSH
		case 4:
			return isa.CSW
		}
		return isa.CSD
	}
	switch size {
	case 1:
		return isa.SB
	case 2:
		return isa.SH
	case 4:
		return isa.SW
	}
	return isa.SD
}

// addrOf materialises the address of an lvalue. For frame locals under
// CheriABI this derives a *bounded* capability from the stack capability —
// the compiler-inserted derivation the paper describes ("compiler-generated
// code derives bounded capabilities to those objects from the stack
// capability").
func (g *gen) addrOf(lv lval, line int) (val, error) {
	ptrTyp := ptrTo(lv.typ)
	if lv.typ.isArray() {
		ptrTyp = ptrTo(lv.typ.elem)
	}
	if !lv.local {
		// The address register already holds the location (bounds inherit
		// from the object capability it was computed from).
		if lv.temp {
			return val{kind: vkTemp, typ: ptrTyp, reg: lv.reg, isCap: g.cheri}, nil
		}
		// Copy into a fresh temp.
		if g.cheri {
			cd, err := g.allocCap(line)
			if err != nil {
				return val{}, err
			}
			g.emit(isa.Inst{Op: isa.CMOVE, Ra: cd, Rb: lv.reg})
			return val{kind: vkTemp, typ: ptrTyp, reg: cd, isCap: true}, nil
		}
		rd, err := g.allocInt(line)
		if err != nil {
			return val{}, err
		}
		g.emit(isa.Inst{Op: isa.OR, Ra: rd, Rb: lv.reg, Rc: 0})
		return val{kind: vkTemp, typ: ptrTyp, reg: rd, isCap: false}, nil
	}
	size := g.sizeOf(lv.typ)
	if g.cheri {
		cd, err := g.allocCap(line)
		if err != nil {
			return val{}, err
		}
		g.emit(isa.Inst{Op: isa.CINCOFFI, Ra: cd, Rb: isa.CSP, Imm: int32(lv.off)})
		g.emit(isa.Inst{Op: isa.ADDI, Ra: isa.RAT, Rb: 0, Imm: int32(size)})
		g.emit(isa.Inst{Op: isa.CSETBNDS, Ra: cd, Rb: cd, Rc: isa.RAT})
		return val{kind: vkTemp, typ: ptrTyp, reg: cd, isCap: true}, nil
	}
	rd, err := g.allocInt(line)
	if err != nil {
		return val{}, err
	}
	g.emit(isa.Inst{Op: isa.ADDI, Ra: rd, Rb: isa.RSP, Imm: int32(lv.off)})
	return val{kind: vkTemp, typ: ptrTyp, reg: rd, isCap: false}, nil
}

// coerce converts v to type want, implementing the CHERI C provenance
// rules: only intptr_t/uintptr_t round-trips preserve capabilities; plain
// integers carry the address but lose the tag.
func (g *gen) coerce(v val, want *ctype, line int) (val, error) {
	want = want.decay()
	if want.kind == tVoid {
		return v, nil
	}
	wantCap := g.cheri && want.isCapLike()
	switch {
	case v.isCap == wantCap:
		v.typ = want
		return v, nil
	case v.isCap && !wantCap:
		// Capability to plain integer: take the address (CGetAddr mode).
		// The register files are disjoint, so releasing the capability
		// temp before allocating the integer one is safe.
		g.release(v)
		rd, err := g.allocInt(line)
		if err != nil {
			return val{}, err
		}
		g.emit(isa.Inst{Op: isa.CGETADDR, Ra: rd, Rb: v.reg})
		return val{kind: vkTemp, typ: want, reg: rd, isCap: false}, nil
	default:
		// Plain integer to capability type: an untagged capability — the
		// provenance is gone, and dereferencing will trap.
		g.release(v)
		cd, err := g.allocCap(line)
		if err != nil {
			return val{}, err
		}
		g.emit(isa.Inst{Op: isa.CSETADDR, Ra: cd, Rb: isa.CNULL, Rc: v.reg})
		return val{kind: vkTemp, typ: want, reg: cd, isCap: true}, nil
	}
}

// genExpr evaluates an expression into a fresh temp.
func (g *gen) genExpr(e expr) (val, error) {
	switch x := e.(type) {
	case *numExpr:
		rd, err := g.allocInt(x.line())
		if err != nil {
			return val{}, err
		}
		g.emitConst(rd, x.val)
		return val{kind: vkTemp, typ: typeLong, reg: rd}, nil

	case *strExpr:
		sym := g.internString(x.val)
		return g.loadGOTValue(sym, ptrTo(typeChar), x.line())

	case *identExpr:
		if lv, ok := g.lookupLocal(x.name); ok {
			return g.loadLval(lval{local: true, off: g.localBase() + lv.off, typ: lv.typ}, x.line())
		}
		if typ, ok := g.globals[x.name]; ok {
			glv, err := g.globalLval(x.name, typ, x.line())
			if err != nil {
				return val{}, err
			}
			return g.loadAndRelease(glv, x.line())
		}
		if fd, ok := g.funcs[x.name]; ok {
			// Function name as a value: pointer to its GOT descriptor.
			return g.funcPointer(x.name, fd, x.line())
		}
		return val{}, g.errf(x.line(), "undefined identifier %q", x.name)

	case *unaryExpr:
		return g.genUnary(x)

	case *postfixExpr:
		lv, err := g.genLval(x.x)
		if err != nil {
			return val{}, err
		}
		old, err := g.loadLval(lv, x.line())
		if err != nil {
			return val{}, err
		}
		delta := int64(1)
		if old.typ.isPtr() {
			delta = g.sizeOf(old.typ.elem)
		}
		if x.op == "--" {
			delta = -delta
		}
		upd, err := g.addImmediate(old, delta, x.line())
		if err != nil {
			return val{}, err
		}
		g.storeLval(lv, upd)
		// Undo the update on the returned value to yield the old one.
		out, err := g.addImmediate(upd, -delta, x.line())
		if err != nil {
			return val{}, err
		}
		g.releaseLval(lv)
		return out, nil

	case *binExpr:
		return g.genBinary(x)

	case *assignExpr:
		return g.genAssign(x)

	case *callExpr:
		return g.genCall(x)

	case *indexExpr, *memberExpr:
		lv, err := g.genLval(e)
		if err != nil {
			return val{}, err
		}
		return g.loadAndRelease(lv, e.line())

	case *castExpr:
		g.lintCast(x)
		v, err := g.genExpr(x.x)
		if err != nil {
			return val{}, err
		}
		return g.coerce(v, x.typ, x.line())

	case *sizeofExpr:
		rd, err := g.allocInt(x.line())
		if err != nil {
			return val{}, err
		}
		t := x.typ
		if t == nil {
			var err error
			t, err = g.typeOf(x.x)
			if err != nil {
				return val{}, err
			}
		}
		g.emitConst(rd, g.sizeOf(t))
		return val{kind: vkTemp, typ: typeULong, reg: rd}, nil

	case *condExpr:
		elseL := g.newLabel()
		endL := g.newLabel()
		if err := g.genCondBranch(x.c, elseL, false); err != nil {
			return val{}, err
		}
		tv, err := g.genExpr(x.t)
		if err != nil {
			return val{}, err
		}
		// Result register: reuse tv's slot; the else arm must land in the
		// same register class.
		g.emitJump(endL)
		g.bind(elseL)
		g.release(tv)
		fv, err := g.genExpr(x.f)
		if err != nil {
			return val{}, err
		}
		fv, err = g.coerce(fv, tv.typ, x.line())
		if err != nil {
			return val{}, err
		}
		if fv.reg != tv.reg || fv.isCap != tv.isCap {
			if tv.isCap {
				g.emit(isa.Inst{Op: isa.CMOVE, Ra: tv.reg, Rb: fv.reg})
			} else {
				g.emit(isa.Inst{Op: isa.OR, Ra: tv.reg, Rb: fv.reg, Rc: 0})
			}
		}
		g.release(fv)
		// Reclaim tv's register slot.
		if tv.isCap {
			g.capLive = append(g.capLive, tv.reg)
		} else {
			g.intLive = append(g.intLive, tv.reg)
		}
		g.bind(endL)
		return tv, nil
	}
	return val{}, g.errf(e.line(), "unsupported expression %T", e)
}

// addImmediate adds a constant to a value (pointer-aware).
func (g *gen) addImmediate(v val, delta int64, line int) (val, error) {
	if delta == 0 {
		return v, nil
	}
	if v.isCap {
		if delta >= -8192 && delta <= 8191 {
			g.emit(isa.Inst{Op: isa.CINCOFFI, Ra: v.reg, Rb: v.reg, Imm: int32(delta)})
		} else {
			g.emitConst(isa.RAT, delta)
			g.emit(isa.Inst{Op: isa.CINCOFF, Ra: v.reg, Rb: v.reg, Rc: isa.RAT})
		}
		return v, nil
	}
	if delta >= -8192 && delta <= 8191 {
		g.emit(isa.Inst{Op: isa.ADDI, Ra: v.reg, Rb: v.reg, Imm: int32(delta)})
	} else {
		g.emitConst(isa.RAT, delta)
		g.emit(isa.Inst{Op: isa.ADD, Ra: v.reg, Rb: v.reg, Rc: isa.RAT})
	}
	return v, nil
}

func (g *gen) genUnary(x *unaryExpr) (val, error) {
	switch x.op {
	case "-", "~", "!":
		v, err := g.genExpr(x.x)
		if err != nil {
			return val{}, err
		}
		if v.isCap {
			v, err = g.coerce(v, typeLong, x.line())
			if err != nil {
				return val{}, err
			}
		}
		switch x.op {
		case "-":
			g.emit(isa.Inst{Op: isa.SUB, Ra: v.reg, Rb: 0, Rc: v.reg})
		case "~":
			g.emit(isa.Inst{Op: isa.NOR, Ra: v.reg, Rb: v.reg, Rc: 0})
		case "!":
			g.emit(isa.Inst{Op: isa.SLTIU, Ra: v.reg, Rb: v.reg, Imm: 1})
		}
		v.typ = typeLong
		return v, nil

	case "*":
		lv, err := g.genLval(x)
		if err != nil {
			return val{}, err
		}
		return g.loadAndRelease(lv, x.line())

	case "&":
		// &function yields the descriptor pointer directly.
		if id, ok := x.x.(*identExpr); ok {
			if fd, isFn := g.funcs[id.name]; isFn {
				if _, isLocal := g.lookupLocal(id.name); !isLocal {
					return g.funcPointer(id.name, fd, x.line())
				}
			}
		}
		lv, err := g.genLval(x.x)
		if err != nil {
			return val{}, err
		}
		v, err := g.addrOf(lv, x.line())
		if err != nil {
			return val{}, err
		}
		if !lv.temp {
			return v, nil
		}
		return v, nil

	case "++", "--":
		lv, err := g.genLval(x.x)
		if err != nil {
			return val{}, err
		}
		v, err := g.loadLval(lv, x.line())
		if err != nil {
			return val{}, err
		}
		delta := int64(1)
		if v.typ.isPtr() {
			delta = g.sizeOf(v.typ.elem)
		}
		if x.op == "--" {
			delta = -delta
		}
		v, err = g.addImmediate(v, delta, x.line())
		if err != nil {
			return val{}, err
		}
		g.storeLval(lv, v)
		g.releaseLval(lv)
		return v, nil
	}
	return val{}, g.errf(x.line(), "unsupported unary %q", x.op)
}

func (g *gen) genAssign(x *assignExpr) (val, error) {
	lv, err := g.genLval(x.l)
	if err != nil {
		return val{}, err
	}
	if x.op == "=" {
		v, err := g.genExpr(x.r)
		if err != nil {
			return val{}, err
		}
		v, err = g.coerce(v, lv.typ, x.line())
		if err != nil {
			return val{}, err
		}
		g.storeLval(lv, v)
		g.releaseLval(lv)
		return v, nil
	}
	// Compound assignment: load, apply, store.
	cur, err := g.loadLval(lv, x.line())
	if err != nil {
		return val{}, err
	}
	r, err := g.genExpr(x.r)
	if err != nil {
		return val{}, err
	}
	op := x.op[:len(x.op)-1]
	res, err := g.applyBinary(op, cur, r, x.line())
	if err != nil {
		return val{}, err
	}
	res, err = g.coerce(res, lv.typ, x.line())
	if err != nil {
		return val{}, err
	}
	g.storeLval(lv, res)
	g.releaseLval(lv)
	return res, nil
}

// genLval resolves an expression to an assignable location.
func (g *gen) genLval(e expr) (lval, error) {
	switch x := e.(type) {
	case *identExpr:
		if lv, ok := g.lookupLocal(x.name); ok {
			return lval{local: true, off: g.localBase() + lv.off, typ: lv.typ}, nil
		}
		if typ, ok := g.globals[x.name]; ok {
			return g.globalLval(x.name, typ, x.line())
		}
		return lval{}, g.errf(x.line(), "undefined identifier %q", x.name)

	case *unaryExpr:
		if x.op != "*" {
			return lval{}, g.errf(x.line(), "cannot assign to unary %q", x.op)
		}
		v, err := g.genExpr(x.x)
		if err != nil {
			return lval{}, err
		}
		if !v.typ.isPtr() {
			if v.typ.isInt() {
				g.lint(CatPP, x.line(), "dereference of integer value")
				v, err = g.coerce(v, ptrTo(typeChar), x.line())
				if err != nil {
					return lval{}, err
				}
				return lval{reg: v.reg, typ: typeChar, temp: true}, nil
			}
			return lval{}, g.errf(x.line(), "dereference of non-pointer %s", v.typ)
		}
		return lval{reg: v.reg, typ: v.typ.elem, temp: true}, nil

	case *indexExpr:
		return g.genIndexLval(x)

	case *memberExpr:
		return g.genMemberLval(x)
	}
	return lval{}, g.errf(e.line(), "expression is not assignable (%T)", e)
}

func (g *gen) genIndexLval(x *indexExpr) (lval, error) {
	if v, ok := g.constEval(x.idx); ok && v < 0 {
		g.lint(CatM, x.line(), "negative array index reaches outside object bounds")
	}
	base, err := g.genExpr(x.x) // arrays decay to pointers
	if err != nil {
		return lval{}, err
	}
	if !base.typ.isPtr() {
		return lval{}, g.errf(x.line(), "indexing non-pointer %s", base.typ)
	}
	elem := base.typ.elem
	esz := g.sizeOf(elem)
	idx, err := g.genExpr(x.idx)
	if err != nil {
		return lval{}, err
	}
	if idx.isCap {
		idx, err = g.coerce(idx, typeLong, x.line())
		if err != nil {
			return lval{}, err
		}
	}
	// Scale the index.
	if esz != 1 {
		if esz&(esz-1) == 0 {
			sh := 0
			for v := esz; v > 1; v >>= 1 {
				sh++
			}
			g.emit(isa.Inst{Op: isa.SLLI, Ra: idx.reg, Rb: idx.reg, Imm: int32(sh)})
		} else {
			g.emitConst(isa.RAT, esz)
			g.emit(isa.Inst{Op: isa.MUL, Ra: idx.reg, Rb: idx.reg, Rc: isa.RAT})
		}
	}
	if base.isCap {
		g.emit(isa.Inst{Op: isa.CINCOFF, Ra: base.reg, Rb: base.reg, Rc: idx.reg})
	} else {
		g.emit(isa.Inst{Op: isa.ADD, Ra: base.reg, Rb: base.reg, Rc: idx.reg})
	}
	g.release(idx)
	return lval{reg: base.reg, typ: elem, temp: true}, nil
}

func (g *gen) genMemberLval(x *memberExpr) (lval, error) {
	var sd *structDef
	if x.arrow {
		base, err := g.genExpr(x.x)
		if err != nil {
			return lval{}, err
		}
		if !base.typ.isPtr() || base.typ.elem.kind != tStruct {
			return lval{}, g.errf(x.line(), "-> on non-struct-pointer %s", base.typ)
		}
		sd = base.typ.elem.sdef
		off, ftyp, ok := g.fieldOffset(sd, x.name)
		if !ok {
			return lval{}, g.errf(x.line(), "no field %q in struct %s", x.name, sd.name)
		}
		v, err := g.addImmediate(base, off, x.line())
		if err != nil {
			return lval{}, err
		}
		if g.cheri && g.opt.SubObjectBounds {
			g.emitConst(isa.RAT, g.sizeOf(ftyp))
			g.emit(isa.Inst{Op: isa.CSETBNDS, Ra: v.reg, Rb: v.reg, Rc: isa.RAT})
		}
		return lval{reg: v.reg, typ: ftyp, temp: true}, nil
	}
	// x.f: x must itself be an lvalue of struct type.
	blv, err := g.genLval(x.x)
	if err != nil {
		return lval{}, err
	}
	if blv.typ.kind != tStruct {
		return lval{}, g.errf(x.line(), ". on non-struct %s", blv.typ)
	}
	off, ftyp, ok := g.fieldOffset(blv.typ.sdef, x.name)
	if !ok {
		return lval{}, g.errf(x.line(), "no field %q in struct %s", x.name, blv.typ.sdef.name)
	}
	if blv.local {
		blv.off += off
		blv.typ = ftyp
		return blv, nil
	}
	if g.cheri {
		g.emit(isa.Inst{Op: isa.CINCOFFI, Ra: blv.reg, Rb: blv.reg, Imm: int32(off)})
		if g.opt.SubObjectBounds {
			g.emitConst(isa.RAT, g.sizeOf(ftyp))
			g.emit(isa.Inst{Op: isa.CSETBNDS, Ra: blv.reg, Rb: blv.reg, Rc: isa.RAT})
		}
	} else {
		g.emit(isa.Inst{Op: isa.ADDI, Ra: blv.reg, Rb: blv.reg, Imm: int32(off)})
	}
	blv.typ = ftyp
	return blv, nil
}

// emitASanCheck instruments one memory access with a shadow lookup (legacy
// ASan builds only). Shadow semantics: 0 = fully addressable; 1..7 = only
// the first k bytes of the granule are addressable; >= 8 = poisoned.
func (g *gen) emitASanCheck(addrReg uint8, size int64) {
	ok := g.newLabel()
	fail := g.newLabel()
	g.emit(isa.Inst{Op: isa.SRLI, Ra: isa.RAT, Rb: addrReg, Imm: ShadowScale})
	g.emit(isa.Inst{Op: isa.LUI, Ra: isa.RK1, Imm: ShadowBase >> 14})
	g.emit(isa.Inst{Op: isa.ADD, Ra: isa.RAT, Rb: isa.RAT, Rc: isa.RK1})
	g.emit(isa.Inst{Op: isa.LBU, Ra: isa.RAT, Rb: isa.RAT, Imm: 0})
	g.emitBranch(isa.Inst{Op: isa.BEQ, Ra: isa.RAT, Rb: 0}, ok)
	// Poison values fault outright.
	g.emit(isa.Inst{Op: isa.ADDI, Ra: isa.RK1, Rb: 0, Imm: 8})
	g.emitBranch(isa.Inst{Op: isa.BGEU, Ra: isa.RAT, Rb: isa.RK1}, fail)
	// Partial granule: fault unless (addr&7)+size <= k.
	g.emit(isa.Inst{Op: isa.ANDI, Ra: isa.RK1, Rb: addrReg, Imm: 7})
	g.emit(isa.Inst{Op: isa.ADDI, Ra: isa.RK1, Rb: isa.RK1, Imm: int32(size)})
	g.emitBranch(isa.Inst{Op: isa.BGE, Ra: isa.RAT, Rb: isa.RK1}, ok)
	g.bind(fail)
	g.emit(isa.Inst{Op: isa.NCALL, Imm: int32(nat.AsanReport)})
	g.bind(ok)
}
