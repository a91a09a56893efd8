package cc

import (
	"fmt"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
)

// Compile builds the given MiniC sources into a single image (an
// executable, or a shared library with Options.Shared). It returns the
// image and the compatibility-lint findings (the Table 2 taxonomy).
func Compile(opt Options, sources ...string) (*image.Image, []Finding, error) {
	merged := &unit{structs: map[string]*structDef{}}
	for i, src := range sources {
		u, err := parse(fmt.Sprintf("%s:%d", opt.Name, i), src)
		if err != nil {
			return nil, nil, err
		}
		merged.funcs = append(merged.funcs, u.funcs...)
		merged.vars = append(merged.vars, u.vars...)
		for name, sd := range u.structs {
			merged.structs[name] = sd
		}
	}

	g := &gen{
		opt:       opt,
		unit:      merged,
		cheri:     opt.ABI == image.ABICheri,
		symbols:   map[string]*image.Symbol{},
		gotIndex:  map[string]int{},
		globals:   map[string]*ctype{},
		funcs:     map[string]*funcDecl{},
		funcStart: map[string]int{},
	}
	g.ptrSize = 8
	if g.cheri {
		g.ptrSize = cap.Bytes
	}
	if opt.ASan && g.cheri {
		return nil, nil, fmt.Errorf("cc: ASan instrumentation is a legacy-ABI baseline")
	}

	// Register functions (definitions shadow declarations).
	for _, fn := range merged.funcs {
		if prev, ok := g.funcs[fn.name]; ok && prev.body != nil && fn.body != nil {
			return nil, nil, fmt.Errorf("cc: %s redefined", fn.name)
		}
		if prev, ok := g.funcs[fn.name]; !ok || prev.body == nil {
			g.funcs[fn.name] = fn
		}
	}
	// Detect errno usage (syscall wrappers then maintain the global).
	for _, fn := range merged.funcs {
		if fn.body != nil && usesErrnoStmt(fn.body) {
			g.usesErrno = true
		}
	}

	// Lay out globals and apply initialisers.
	for _, vd := range merged.vars {
		if err := g.layoutGlobal(vd); err != nil {
			return nil, nil, err
		}
	}

	// Lints over every function body.
	for _, fn := range merged.funcs {
		if fn.body != nil {
			g.lintFunc(fn)
		}
	}

	// Generate code.
	for _, fn := range merged.funcs {
		if fn.body == nil {
			continue
		}
		if err := g.genFunc(fn); err != nil {
			return nil, nil, err
		}
	}

	entry := ""
	if !opt.Shared {
		if _, ok := g.funcStart["main"]; !ok {
			return nil, nil, fmt.Errorf("cc: executable %s has no main", opt.Name)
		}
		g.synthesizeStart()
		entry = "_start"
	}

	// Resolve direct-call fixups.
	for _, f := range g.callFix {
		target, ok := g.funcStart[f.fn]
		if !ok {
			return nil, nil, fmt.Errorf("cc: call to undefined function %s", f.fn)
		}
		g.code[f.idx].Imm = int32(target - f.idx)
	}

	// Function symbols.
	starts := make([]int, 0, len(g.funcStart))
	for name, start := range g.funcStart {
		starts = append(starts, start)
		g.symbols[name] = &image.Symbol{
			Name: name, Kind: image.SymFunc, Sec: image.SecText,
			Off: uint64(start) * isa.InstSize, Global: !g.isStatic(name),
		}
	}
	// Sizes: distance to the next function start.
	for name, sym := range g.symbols {
		if sym.Kind != image.SymFunc {
			continue
		}
		start := int(sym.Off / isa.InstSize)
		end := len(g.code)
		for _, s := range starts {
			if s > start && s < end {
				end = s
			}
		}
		g.symbols[name].Size = uint64(end-start) * isa.InstSize
	}

	// Encode.
	code := make([]uint32, len(g.code))
	for i, in := range g.code {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, nil, fmt.Errorf("cc: encoding %v at %d: %w", in, i, err)
		}
		code[i] = w
	}

	img := &image.Image{
		Name:      opt.Name,
		ABI:       opt.ABI,
		Code:      code,
		ROData:    g.ro,
		Data:      g.data,
		BSS:       g.bss,
		Entry:     entry,
		Symbols:   g.symbols,
		GOT:       g.got,
		GOTSlots:  g.gotSlots,
		CapRelocs: g.capRelocs,
		Needed:    opt.Needed,
		ASan:      opt.ASan,
	}
	return img, g.lints, nil
}

func (g *gen) isStatic(name string) bool {
	if fd, ok := g.funcs[name]; ok {
		return fd.static
	}
	return false
}

// synthesizeStart emits the C runtime entry: poison global redzones (ASan
// builds), call main(argc, argv, envp) with the registers execve
// installed, then exit with its result.
func (g *gen) synthesizeStart() {
	g.funcStart["_start"] = len(g.code)
	if g.opt.ASan {
		for _, name := range g.asanGlobals {
			g.emitASanGlobalPoison(name)
		}
	}
	callOp := isa.JAL
	if g.cheri {
		callOp = isa.CJAL
	}
	idx := g.emit(isa.Inst{Op: callOp})
	g.callFix = append(g.callFix, fixup{idx: idx, fn: "main"})
	g.emit(isa.Inst{Op: isa.OR, Ra: isa.RA0, Rb: isa.RV0, Rc: 0})
	g.emit(isa.Inst{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysExit})
	g.emit(isa.Inst{Op: isa.SYSCALL})
}

// layoutGlobal assigns section space to one global and records its
// initialiser (constants inline; pointers as capability relocations, since
// tags cannot live in the on-disk image).
func (g *gen) layoutGlobal(vd *varDecl) error {
	if _, dup := g.globals[vd.name]; dup {
		// Tolerate repeated extern declarations.
		if vd.extern && vd.init == nil {
			return nil
		}
		return g.errf(vd.ln, "global %s redefined", vd.name)
	}
	g.globals[vd.name] = vd.typ
	if vd.extern && vd.init == nil {
		return nil // imported from another image
	}

	size := g.sizeOf(vd.typ)
	alignv := g.alignOf(vd.typ)
	if g.cheri {
		// Pad and align so per-symbol bounds are exactly representable
		// ("Some objects must be enlarged or more strongly aligned").
		size = int64(cap.RepresentableLength(uint64(size)))
		mask := cap.RepresentableAlignmentMask(uint64(size))
		if a := int64(^mask + 1); a > alignv {
			alignv = a
		}
		if alignv < cap.Bytes && (vd.typ.isPtr() || vd.typ.isArray() || vd.typ.kind == tStruct || vd.typ.capInt) {
			alignv = cap.Bytes
		}
	}

	if g.opt.ASan {
		// Redzone gap before each global; poisoned by _start.
		g.asanGlobals = append(g.asanGlobals, vd.name)
		if vd.init == nil {
			g.bss += asanRedzone
		} else {
			g.data = append(g.data, make([]byte, asanRedzone)...)
		}
	}
	if vd.init == nil {
		g.bss = align64u(g.bss, uint64(alignv))
		g.symbols[vd.name] = &image.Symbol{
			Name: vd.name, Kind: image.SymObject, Sec: image.SecBSS,
			Off: g.bss, Size: uint64(size), Global: !vd.static,
		}
		g.bss += uint64(size)
		if g.opt.ASan {
			g.bss += asanRedzone
		}
		return nil
	}

	// Initialised data.
	for int64(len(g.data))%alignv != 0 {
		g.data = append(g.data, 0)
	}
	off := uint64(len(g.data))
	g.data = append(g.data, make([]byte, size)...)
	g.symbols[vd.name] = &image.Symbol{
		Name: vd.name, Kind: image.SymObject, Sec: image.SecData,
		Off: off, Size: uint64(size), Global: !vd.static,
	}
	return g.writeGlobalInit(vd, off, vd.typ, vd.init)
}

// writeGlobalInit fills the data image for one initialiser.
func (g *gen) writeGlobalInit(vd *varDecl, off uint64, typ *ctype, init expr) error {
	switch iv := init.(type) {
	case *strExpr:
		if typ.isArray() && typ.elem.size == 1 {
			// char buf[N] = "...": inline bytes.
			if int64(len(iv.val))+1 > g.sizeOf(typ) {
				return g.errf(vd.ln, "string too long for %s", vd.name)
			}
			copy(g.data[off:], iv.val)
			return nil
		}
		// char *p = "...": capability relocation to an interned literal.
		sym := g.internString(iv.val)
		g.capRelocs = append(g.capRelocs, image.CapReloc{Off: off, Target: sym})
		return nil

	case *unaryExpr:
		if iv.op == "&" {
			id, ok := iv.x.(*identExpr)
			if !ok {
				return g.errf(vd.ln, "unsupported address initialiser for %s", vd.name)
			}
			g.capRelocs = append(g.capRelocs, image.CapReloc{Off: off, Target: id.name})
			return nil
		}

	case *identExpr:
		// Function pointer initialiser: point at the descriptor.
		if _, ok := g.funcs[iv.name]; ok {
			g.gotEntryFor(iv.name, image.GOTFunc)
			g.capRelocs = append(g.capRelocs, image.CapReloc{Off: off, Target: iv.name})
			return nil
		}

	case *callExpr:
		if id, ok := iv.fn.(*identExpr); ok && id.name == "$braces" {
			if !typ.isArray() {
				return g.errf(vd.ln, "brace initialiser for non-array %s", vd.name)
			}
			esz := g.sizeOf(typ.elem)
			for i, item := range iv.args {
				if err := g.writeGlobalInit(vd, off+uint64(int64(i)*esz), typ.elem, item); err != nil {
					return err
				}
			}
			return nil
		}
	}
	// Scalar constant.
	v, ok := g.constEval(init)
	if !ok {
		return g.errf(vd.ln, "unsupported initialiser for %s", vd.name)
	}
	size := g.sizeOf(typ)
	if typ.isPtr() || typ.capInt {
		if v != 0 {
			g.lint(CatI, vd.ln, "pointer initialised from integer constant")
		}
		size = 8 // write the address bits; the tag stays clear
	}
	for i := int64(0); i < size && i < 8; i++ {
		g.data[off+uint64(i)] = byte(uint64(v) >> (8 * i))
	}
	return nil
}

// constEval folds constant expressions for initialisers and case labels.
func (g *gen) constEval(e expr) (int64, bool) {
	switch x := e.(type) {
	case *numExpr:
		return x.val, true
	case *unaryExpr:
		v, ok := g.constEval(x.x)
		if !ok {
			return 0, false
		}
		switch x.op {
		case "-":
			return -v, true
		case "~":
			return ^v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *binExpr:
		l, ok1 := g.constEval(x.l)
		r, ok2 := g.constEval(x.r)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r != 0 {
				return l / r, true
			}
		case "%":
			if r != 0 {
				return l % r, true
			}
		case "<<":
			return l << uint(r), true
		case ">>":
			return l >> uint(r), true
		case "&":
			return l & r, true
		case "|":
			return l | r, true
		case "^":
			return l ^ r, true
		}
	case *sizeofExpr:
		if x.typ != nil {
			return g.sizeOf(x.typ), true
		}
		if t, err := g.typeOf(x.x); err == nil {
			return g.sizeOf(t), true
		}
	case *castExpr:
		return g.constEval(x.x)
	}
	return 0, false
}

// usesErrnoStmt reports whether a function body calls errno().
func usesErrnoStmt(s stmt) bool {
	found := false
	var walkE func(expr)
	var walkS func(stmt)
	walkE = func(e expr) {
		if found || e == nil {
			return
		}
		switch x := e.(type) {
		case *callExpr:
			if id, ok := x.fn.(*identExpr); ok && id.name == "errno" {
				found = true
				return
			}
			walkE(x.fn)
			for _, a := range x.args {
				walkE(a)
			}
		case *unaryExpr:
			walkE(x.x)
		case *postfixExpr:
			walkE(x.x)
		case *binExpr:
			walkE(x.l)
			walkE(x.r)
		case *assignExpr:
			walkE(x.l)
			walkE(x.r)
		case *indexExpr:
			walkE(x.x)
			walkE(x.idx)
		case *memberExpr:
			walkE(x.x)
		case *castExpr:
			walkE(x.x)
		case *condExpr:
			walkE(x.c)
			walkE(x.t)
			walkE(x.f)
		}
	}
	walkS = func(s stmt) {
		if found || s == nil {
			return
		}
		switch x := s.(type) {
		case *blockStmt:
			for _, inner := range x.list {
				walkS(inner)
			}
		case *exprStmt:
			walkE(x.x)
		case *declStmt:
			walkE(x.init)
		case *ifStmt:
			walkE(x.cond)
			walkS(x.then)
			walkS(x.els)
		case *whileStmt:
			walkE(x.cond)
			walkS(x.body)
		case *forStmt:
			walkS(x.init)
			walkE(x.cond)
			walkE(x.step)
			walkS(x.body)
		case *returnStmt:
			walkE(x.x)
		case *switchStmt:
			walkE(x.cond)
			for _, c := range x.cases {
				for _, inner := range c.stmts {
					walkS(inner)
				}
			}
		}
	}
	walkS(s)
	return found
}
