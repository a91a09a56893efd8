package cc

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
)

// genCall compiles a function call: user functions (direct or cross-image
// via descriptors), function pointers, syscall and native builtins, and
// the variadic printf family.
func (g *gen) genCall(x *callExpr) (val, error) {
	if id, ok := x.fn.(*identExpr); ok {
		if _, isLocalVar := g.lookupLocal(id.name); !isLocalVar {
			if _, isGlobalVar := g.globals[id.name]; !isGlobalVar {
				if fd, ok := g.funcs[id.name]; ok {
					return g.genDirectCall(id.name, fd, x)
				}
				if b, ok := builtins[id.name]; ok {
					return g.genBuiltinCall(id.name, b, x)
				}
				g.lint(CatCC, x.line(), "call to undeclared function "+id.name)
				return val{}, g.errf(x.line(), "call to undeclared function %q", id.name)
			}
		}
	}
	// Indirect call through a function-pointer value.
	fv, err := g.genExpr(x.fn)
	if err != nil {
		return val{}, err
	}
	var sig *funcSig
	if fv.typ.isPtr() && fv.typ.elem.kind == tFunc {
		sig = fv.typ.elem.fn
	}
	return g.emitCall(callPlan{indirect: &fv, sig: sig}, x)
}

// callPlan describes how to reach the callee.
type callPlan struct {
	local    string // directly reachable function in this image
	extern   string // imported function: call via own GOT descriptor
	indirect *val   // function-pointer value (descriptor pointer)
	sig      *funcSig
}

func (g *gen) genDirectCall(name string, fd *funcDecl, x *callExpr) (val, error) {
	if fd.body != nil || g.definedInUnit(name) {
		return g.emitCall(callPlan{local: name, sig: fd.sig}, x)
	}
	return g.emitCall(callPlan{extern: name, sig: fd.sig}, x)
}

func (g *gen) definedInUnit(name string) bool {
	for _, fn := range g.unit.funcs {
		if fn.name == name && fn.body != nil {
			return true
		}
	}
	return false
}

// emitCall evaluates arguments, marshals them into registers, spills live
// temporaries, and emits the call sequence.
func (g *gen) emitCall(plan callPlan, x *callExpr) (val, error) {
	intMark, capMark := len(g.intLive), len(g.capLive)

	// Evaluate arguments into temps (left to right), coercing to
	// parameter types where declared.
	args := make([]val, 0, len(x.args))
	for i, a := range x.args {
		v, err := g.genExpr(a)
		if err != nil {
			return val{}, err
		}
		if plan.sig != nil && i < len(plan.sig.params) {
			v, err = g.coerce(v, plan.sig.params[i], a.line())
			if err != nil {
				return val{}, err
			}
		}
		args = append(args, v)
	}
	if plan.sig != nil && !plan.sig.variadic && len(args) != len(plan.sig.params) {
		// K&R-style: a declaration with an empty parameter list accepts
		// any arguments, but depends on calling-convention overlap the
		// pure-capability ABI does not provide (Table 2's CC category).
		if len(plan.sig.params) == 0 && plan.extern != "" {
			g.lint(CatCC, x.line(), "call through declaration without argument types")
		} else {
			g.lint(CatCC, x.line(), "argument count mismatch")
			return val{}, g.errf(x.line(), "wrong number of arguments (%d, want %d)", len(args), len(plan.sig.params))
		}
	}

	// Spill the caller's live temps (those allocated before this call).
	savedInt, savedCap := g.spillLive(intMark, capMark)

	// Move argument temps into ABI registers.
	if err := g.marshalArgs(args, x.line()); err != nil {
		return val{}, err
	}
	for i := len(args) - 1; i >= 0; i-- {
		g.release(args[i])
	}

	// Emit the transfer.
	switch {
	case plan.local != "":
		if g.cheri {
			idx := g.emit(isa.Inst{Op: isa.CJAL})
			g.callFix = append(g.callFix, fixup{idx: idx, fn: plan.local})
		} else {
			idx := g.emit(isa.Inst{Op: isa.JAL})
			g.callFix = append(g.callFix, fixup{idx: idx, fn: plan.local})
		}
	case plan.extern != "":
		slotOff, err := g.funcGOTOffset(plan.extern)
		if err != nil {
			return val{}, err
		}
		g.emitDescriptorCall(func() {
			// Load the descriptor's two slots from our own GOT.
			if g.cheri {
				g.emitGOTLoadCap(isa.CK0, slotOff)
				g.emitGOTLoadCap(isa.CK1, slotOff+cap.Bytes)
			} else {
				g.emitGOTLoadWord(isa.RK0, slotOff)
				g.emitGOTLoadWord(isa.RK1, slotOff+8)
			}
		})
	case plan.indirect != nil:
		fp := *plan.indirect
		g.emitDescriptorCall(func() {
			if g.cheri {
				g.emit(isa.Inst{Op: isa.CLC, Ra: isa.CK0, Rb: fp.reg, Imm: 0})
				g.emit(isa.Inst{Op: isa.CLC, Ra: isa.CK1, Rb: fp.reg, Imm: cap.Bytes})
			} else {
				g.emit(isa.Inst{Op: isa.LD, Ra: isa.RK0, Rb: fp.reg, Imm: 0})
				g.emit(isa.Inst{Op: isa.LD, Ra: isa.RK1, Rb: fp.reg, Imm: 8})
			}
		})
		g.release(fp)
	}

	// Restore spilled temps.
	g.restoreLive(savedInt, savedCap)

	// Capture the return value.
	retPtr := plan.sig != nil && plan.sig.ret.isCapLike()
	retVoid := plan.sig != nil && plan.sig.ret.kind == tVoid
	return g.captureReturn(retPtr, retVoid, plan.retType(), x.line())
}

func (p callPlan) retType() *ctype {
	if p.sig != nil {
		return p.sig.ret
	}
	return typeLong
}

// emitDescriptorCall wraps the cross-image calling convention: the caller
// saves its GOT register, installs the callee's (from the descriptor), and
// restores afterwards. loadDesc must leave the code target in CK0/RK0 and
// the callee GOT in CK1/RK1.
func (g *gen) emitDescriptorCall(loadDesc func()) {
	if g.cheri {
		g.storeLocalCapSlot(g.frameGPOff(), isa.CGP)
		loadDesc()
		g.emit(isa.Inst{Op: isa.CMOVE, Ra: isa.CGP, Rb: isa.CK1})
		g.emit(isa.Inst{Op: isa.CJALR, Ra: isa.CRA, Rb: isa.CK0})
		g.loadLocalCapSlot(g.frameGPOff(), isa.CGP)
		return
	}
	g.storeLocalSlot(g.frameGPOff(), isa.RGP, 8)
	loadDesc()
	g.emit(isa.Inst{Op: isa.OR, Ra: isa.RGP, Rb: isa.RK1, Rc: 0})
	g.emit(isa.Inst{Op: isa.JALR, Ra: isa.RRA, Rb: isa.RK0})
	g.loadLocalSlot(g.frameGPOff(), isa.RGP, 8, false)
}

// marshalArgs moves evaluated arguments into the ABI argument registers:
// CheriABI splits integers (r4..) and capabilities (c3..); the legacy ABI
// packs everything into r4.. in order.
func (g *gen) marshalArgs(args []val, line int) error {
	intIdx, ptrIdx := 0, 0
	for i, a := range args {
		if g.cheri && a.isCap {
			if ptrIdx >= 8 {
				return g.errf(line, "too many pointer arguments")
			}
			g.emit(isa.Inst{Op: isa.CMOVE, Ra: uint8(isa.CA0 + ptrIdx), Rb: a.reg})
			ptrIdx++
			continue
		}
		idx := intIdx
		if !g.cheri {
			idx = i
		}
		if idx >= 8 {
			return g.errf(line, "too many arguments")
		}
		g.emit(isa.Inst{Op: isa.OR, Ra: uint8(isa.RA0 + idx), Rb: a.reg, Rc: 0})
		intIdx++
	}
	return nil
}

// captureReturn copies the ABI return register into a fresh temp.
func (g *gen) captureReturn(retPtr, retVoid bool, typ *ctype, line int) (val, error) {
	if retVoid {
		return val{kind: vkNone, typ: typeVoid}, nil
	}
	if retPtr && g.cheri {
		cd, err := g.allocCap(line)
		if err != nil {
			return val{}, err
		}
		g.emit(isa.Inst{Op: isa.CMOVE, Ra: cd, Rb: isa.CA0})
		return val{kind: vkTemp, typ: typ.decay(), reg: cd, isCap: true}, nil
	}
	rd, err := g.allocInt(line)
	if err != nil {
		return val{}, err
	}
	g.emit(isa.Inst{Op: isa.OR, Ra: rd, Rb: isa.RV0, Rc: 0})
	return val{kind: vkTemp, typ: typ.decay(), reg: rd, isCap: false}, nil
}

// genBuiltinCall dispatches syscall wrappers, natives, CHERI intrinsics,
// errno, and the variadic printf family.
func (g *gen) genBuiltinCall(name string, b builtin, x *callExpr) (val, error) {
	switch b.kind {
	case bErrno:
		return g.loadErrno(x.line())
	case bCheri:
		return g.genCheriBuiltin(b, x)
	case bVariadic:
		return g.genVariadicCall(b, x)
	}

	if len(x.args) != len(b.spec) {
		return val{}, g.errf(x.line(), "%s takes %d arguments, got %d", name, len(b.spec), len(x.args))
	}
	intMark, capMark := len(g.intLive), len(g.capLive)
	args := make([]val, 0, len(x.args))
	for i, a := range x.args {
		v, err := g.genExpr(a)
		if err != nil {
			return val{}, err
		}
		// Coerce to the spec: pointers as capabilities, ints as ints.
		if b.spec[i] == 'p' {
			v, err = g.coerce(v, ptrTo(typeChar), a.line())
		} else {
			v, err = g.coerce(v, typeLong, a.line())
		}
		if err != nil {
			return val{}, err
		}
		args = append(args, v)
	}
	savedInt, savedCap := g.spillLive(intMark, capMark)
	if err := g.marshalArgs(args, x.line()); err != nil {
		return val{}, err
	}
	for i := len(args) - 1; i >= 0; i-- {
		g.release(args[i])
	}

	if b.kind == bSyscall {
		g.emit(isa.Inst{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: int32(b.num)})
		g.emit(isa.Inst{Op: isa.SYSCALL})
		if g.usesErrno {
			g.emitErrnoStore()
		}
	} else {
		g.emit(isa.Inst{Op: isa.NCALL, Imm: int32(b.num)})
	}

	g.restoreLive(savedInt, savedCap)
	retType := typeLong
	if b.retPtr {
		retType = ptrTo(typeChar)
	}
	return g.captureReturn(b.retPtr, b.retVoid, retType, x.line())
}

// genVariadicCall implements the printf family: fixed arguments in
// registers, variadic tail spilled to the frame's vararg area and passed
// as a trailing pointer.
func (g *gen) genVariadicCall(b builtin, x *callExpr) (val, error) {
	nFixed := len(b.spec)
	if len(x.args) < nFixed {
		return val{}, g.errf(x.line(), "too few arguments")
	}
	varargs := x.args[nFixed:]
	if len(varargs) > maxVarargsN {
		return val{}, g.errf(x.line(), "too many variadic arguments (max %d)", maxVarargsN)
	}
	// Spill varargs first: each slot is 16 bytes; pointer slots hold
	// capabilities under CheriABI.
	for i, a := range varargs {
		v, err := g.genExpr(a)
		if err != nil {
			return val{}, err
		}
		off := g.varargOff() + int64(i)*16
		if v.isCap {
			g.storeLocalCapSlot(off, v.reg)
		} else {
			g.storeLocalSlot(off, v.reg, 8)
		}
		g.release(v)
	}
	// Fixed args + the vararg-area pointer.
	intMark, capMark := len(g.intLive), len(g.capLive)
	args := make([]val, 0, nFixed+1)
	for i := 0; i < nFixed; i++ {
		v, err := g.genExpr(x.args[i])
		if err != nil {
			return val{}, err
		}
		if b.spec[i] == 'p' {
			v, err = g.coerce(v, ptrTo(typeChar), x.args[i].line())
		} else {
			v, err = g.coerce(v, typeLong, x.args[i].line())
		}
		if err != nil {
			return val{}, err
		}
		args = append(args, v)
	}
	// The vararg capability: bounded to the spill area.
	if g.cheri {
		cd, err := g.allocCap(x.line())
		if err != nil {
			return val{}, err
		}
		g.emit(isa.Inst{Op: isa.CINCOFFI, Ra: cd, Rb: isa.CSP, Imm: int32(g.varargOff())})
		g.emit(isa.Inst{Op: isa.ADDI, Ra: isa.RAT, Rb: 0, Imm: int32(maxVarargsN * 16)})
		g.emit(isa.Inst{Op: isa.CSETBNDS, Ra: cd, Rb: cd, Rc: isa.RAT})
		args = append(args, val{kind: vkTemp, typ: ptrTo(typeChar), reg: cd, isCap: true})
	} else {
		rd, err := g.allocInt(x.line())
		if err != nil {
			return val{}, err
		}
		g.emit(isa.Inst{Op: isa.ADDI, Ra: rd, Rb: isa.RSP, Imm: int32(g.varargOff())})
		args = append(args, val{kind: vkTemp, typ: ptrTo(typeChar), reg: rd})
	}

	savedInt, savedCap := g.spillLive(intMark, capMark)
	if err := g.marshalArgs(args, x.line()); err != nil {
		return val{}, err
	}
	for i := len(args) - 1; i >= 0; i-- {
		g.release(args[i])
	}
	g.emit(isa.Inst{Op: isa.NCALL, Imm: int32(b.num)})
	g.restoreLive(savedInt, savedCap)
	return g.captureReturn(false, false, typeLong, x.line())
}

// genCheriBuiltin inlines capability introspection. Under the legacy ABI
// these degrade to address arithmetic (tag reads as 0, bounds as infinite).
func (g *gen) genCheriBuiltin(b builtin, x *callExpr) (val, error) {
	if len(x.args) != len(b.spec) {
		return val{}, g.errf(x.line(), "builtin takes %d arguments", len(b.spec))
	}
	v, err := g.genExpr(x.args[0])
	if err != nil {
		return val{}, err
	}
	var second val
	if len(b.spec) > 1 {
		second, err = g.genExpr(x.args[1])
		if err != nil {
			return val{}, err
		}
		second, err = g.coerce(second, typeLong, x.line())
		if err != nil {
			return val{}, err
		}
	}
	op := b.cheriOp
	if op == "crrl" || op == "cram" {
		v, err = g.coerce(v, typeLong, x.line())
		if err != nil {
			return val{}, err
		}
		if g.cheri {
			instOp := isa.CRRL
			if op == "cram" {
				instOp = isa.CRAM
			}
			g.emit(isa.Inst{Op: instOp, Ra: v.reg, Rb: v.reg})
		} else if op == "cram" {
			g.emitConst(v.reg, -1)
		}
		return v, nil
	}
	if !g.cheri {
		// Legacy degradations.
		switch op {
		case "tag":
			g.release(v)
			rd, err := g.allocInt(x.line())
			if err != nil {
				return val{}, err
			}
			g.emit(isa.Inst{Op: isa.ADDI, Ra: rd, Rb: 0, Imm: 0})
			return val{kind: vkTemp, typ: typeLong, reg: rd}, nil
		case "len", "base", "perms":
			g.release(v)
			rd, err := g.allocInt(x.line())
			if err != nil {
				return val{}, err
			}
			g.emitConst(rd, 0)
			return val{kind: vkTemp, typ: typeLong, reg: rd}, nil
		case "addr":
			return g.coerce(v, typeLong, x.line())
		default: // setbounds/andperm/cleartag are identity
			g.release(second)
			return v, nil
		}
	}
	v, err = g.coerce(v, ptrTo(typeChar), x.line())
	if err != nil {
		return val{}, err
	}
	switch op {
	case "tag", "len", "base", "addr", "perms":
		g.release(v)
		rd, err := g.allocInt(x.line())
		if err != nil {
			return val{}, err
		}
		var instOp isa.Op
		switch op {
		case "tag":
			instOp = isa.CGETTAG
		case "len":
			instOp = isa.CGETLEN
		case "base":
			instOp = isa.CGETBASE
		case "addr":
			instOp = isa.CGETADDR
		case "perms":
			instOp = isa.CGETPERM
		}
		g.emit(isa.Inst{Op: instOp, Ra: rd, Rb: v.reg})
		return val{kind: vkTemp, typ: typeLong, reg: rd}, nil
	case "setbounds":
		g.emit(isa.Inst{Op: isa.CSETBNDS, Ra: v.reg, Rb: v.reg, Rc: second.reg})
		g.release(second)
		return v, nil
	case "andperm":
		g.emit(isa.Inst{Op: isa.CANDPERM, Ra: v.reg, Rb: v.reg, Rc: second.reg})
		g.release(second)
		return v, nil
	case "cleartag":
		g.emit(isa.Inst{Op: isa.CCLRTAG, Ra: v.reg, Rb: v.reg})
		return v, nil
	}
	return val{}, g.errf(x.line(), "unknown cheri builtin")
}
