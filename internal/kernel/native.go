package kernel

import (
	"fmt"

	"cheriabi/internal/cap"
	"cheriabi/internal/core"
	"cheriabi/internal/cpu"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
	"cheriabi/internal/vm"
)

// AsanShadowBase is where execve maps the shadow region for
// AddressSanitizer-instrumented binaries (shadow byte of address a is at
// AsanShadowBase + a>>3).
const AsanShadowBase = 0x6000_0000

// Support for fast-model run-time natives (package libc): dispatch with
// the ABI argument conventions, guest-memory mapping on behalf of a
// process, and synchronous calls back into guest code.

// native runs the registered body of native id for t's NCALL, writes its
// result and advances past it; an unregistered id raises SIGSYS.
// Arguments decode through the syscall register reader, but natives
// behave as user-level library code: under CheriABI a pointer is the
// caller's capability unchanged; under the legacy ABI it is accessed with
// DDC-equivalent authority, exactly as compiled library code would, and
// neither is charged as a kernel validation.
func (k *Kernel) native(t *Thread, id int) {
	if id <= 0 || id >= len(k.Natives) || k.Natives[id] == nil {
		k.deliverOrKill(t, SIGSYS)
		return
	}
	// The argument block syscalls use: a native is never dispatched while
	// another call is in flight (see Kernel.syscall).
	a := &k.args
	*a = SysArgs{}
	f := k.regs(t)
	np := readArgs(f, t.Proc.ABI, nat.Natives[id].Spec, a)
	if t.Proc.ABI == image.ABILegacy {
		for i := range np {
			a.ptrs[i] = k.dataAuth(t.Proc, a.ptrs[i].Addr())
		}
	}
	v, e := k.Natives[id](k, t, a)
	setResult(f, t.Proc.ABI, nat.Natives[id].Ret, v, e)
	f.PC += isa.InstSize
}

// MapAnon maps anonymous memory for a process and returns the region
// capability (page- and representability-rounded). The allocator uses this
// to grow its arena; the returned capability is the provenance root for
// the allocations carved from it.
func (k *Kernel) MapAnon(p *Proc, length uint64, prot vm.Prot) (cap.Capability, Errno) {
	if length > UserTop-UserBase {
		return cap.Null(), ENOMEM // larger than user space (see sysMmap)
	}
	rlen := cap.RepresentableLength((length + vm.PageSize - 1) &^ (vm.PageSize - 1))
	va, ok := p.AS.FindFree(p.MmapHint, rlen, UserTop)
	if !ok || !validUserRange(va, rlen) {
		return cap.Null(), ENOMEM
	}
	if err := p.AS.Map(va, rlen, prot, false); err != nil {
		return cap.Null(), ENOMEM
	}
	p.MmapHint = va + rlen + vm.PageSize // guard gap between regions
	c, err := cap.SetBounds(p.Root, va, rlen)
	if err != nil {
		return cap.Null(), ENOMEM
	}
	perms := cap.PermVMMap | cap.PermGlobal | cap.PermLoad | cap.PermLoadCap
	if prot&vm.ProtWrite != 0 {
		perms |= cap.PermStore | cap.PermStoreCap | cap.PermStoreLocalCap
	}
	c = c.AndPerms(perms)
	k.capCreated("syscall", c)
	k.Ledger.Derive(p.Prin, p.AbsRoot, c, core.OriginMmap)
	return c, OK
}

// CallGuest synchronously invokes a guest function from a native (used by
// qsort's comparator callbacks). fn is a function-pointer value: a
// descriptor pointer. Integer arguments go in r4.., capability arguments
// in c3.. (CheriABI). Returns the callee's integer result.
func (k *Kernel) CallGuest(t *Thread, fn cap.Capability, intArgs []uint64, capArgs []cap.Capability) (uint64, error) {
	p := t.Proc
	c := k.M.CPU
	cheri := p.ABI == image.ABICheri

	code, got, err := k.readFuncDesc(p, fn, k.dataAuth(p, fn.Addr()))
	if err != nil {
		return 0, fmt.Errorf("kernel: bad function descriptor: %w", err)
	}

	// Build a scratch activation below the thread's stack pointer, on t's
	// registers on the CPU, and put them back when the callback returns.
	k.switchTo(t)
	r := k.regs(t)
	save := *r
	for i, v := range intArgs {
		r.X[isa.RA0+i] = v
	}
	for i, v := range capArgs {
		r.C[isa.CA0+i] = v
	}
	retPC := uint64(TrampVA + callbackRetOff)
	if cheri {
		r.C[isa.CSP] = cap.IncAddr(r.C[isa.CSP], -256)
		r.C[isa.CGP] = got
		r.C[isa.CRA] = cap.SetAddr(p.sigTrampCap(k), retPC)
		r.PCC = code
		r.PC = code.Addr()
	} else {
		r.X[isa.RSP] -= 256
		r.X[isa.RGP] = got.Addr()
		r.X[isa.RRA] = retPC
		r.PC = code.Addr()
	}
	tr := c.Run(10_000_000)
	result := r.X[isa.RV0]
	*r = save
	if tr == nil || tr.Kind != cpu.TrapBreak || tr.PC != retPC {
		return 0, fmt.Errorf("kernel: guest callback misbehaved: %v", tr)
	}
	return result, nil
}

// readFuncDesc reads the function descriptor [code, GOT] that fn points
// to. Under CheriABI fn authorizes the two capability loads. A legacy
// process's pointer is an address, so the two words are loaded through
// the caller's authority legacy and returned as untagged addresses.
func (k *Kernel) readFuncDesc(p *Proc, fn, legacy cap.Capability) (code, got cap.Capability, err error) {
	c := k.M.CPU
	if p.ABI == image.ABICheri {
		if code, err = c.LoadCapVia(fn, fn.Addr()); err == nil {
			got, err = c.LoadCapVia(fn, fn.Addr()+cap.Bytes)
		}
		return code, got, err
	}
	var a, g uint64
	if a, err = c.LoadVia(legacy, fn.Addr(), 8); err == nil {
		g, err = c.LoadVia(legacy, fn.Addr()+8, 8)
	}
	return cap.NullWithAddr(a), cap.NullWithAddr(g), err
}

// sigTrampCap needs the trampoline length including the callback slot; it
// already covers len(sigTrampoline) instructions.
