package kernel

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/core"
	"cheriabi/internal/isa"
)

// ptrace requests.
const (
	PtAttach    = 10
	PtDetach    = 11
	PtRead      = 1
	PtWrite     = 2
	PtGetReg    = 3
	PtGetCapReg = 4
	PtSetCapReg = 5
	PtWriteCap  = 6
)

// sysPtrace implements debugging. "Two processes are involved ... and
// hence two different principal IDs. Abstract capabilities belong to one
// or the other, and must not be propagated between them": the debugger
// never hands its own capabilities to the target; every injected
// capability is *rederived* from the target's root.
//
// ptrace(req, pid, addrp, data): addrp is a pointer into the *tracer* for
// transfer buffers; addresses inside the target are plain integers in
// data/aux words, exactly as in the flat ptrace API the paper extends.
func sysPtrace(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	req := int(a.Int(0))
	pid := int(a.Int(1))
	addrp := a.Ptr(0)
	data := a.Int(2)

	target := k.procs[pid]
	if target == nil || target == p {
		return Err(ESRCH)
	}

	switch req {
	case PtAttach:
		target.Suspended = true
		return Ret(0)
	case PtDetach:
		target.Suspended = false
		k.resumeProc(target) // parked threads rejoin the scheduler ring
		return Ret(0)
	}
	if !target.Suspended {
		return Err(EBUSY)
	}
	tt := target.mainThread()
	if tt == nil {
		return Err(ESRCH)
	}

	// Access to target memory is authorized by the *target's* root
	// capability at the requested address, never by tracer capabilities.
	targetMem := func(va uint64) cap.Capability {
		return k.dataAuth(target, va)
	}
	// Kernel accesses to the target run under the target's address space.
	cur := k.M.CPU.AS
	k.M.CPU.AS = target.AS
	defer func() { k.M.CPU.AS = cur }()

	switch req {
	case PtRead: // data = target va; returns the word
		v, err := k.M.CPU.LoadVia(targetMem(data), data, 8)
		if err != nil {
			return Err(EFAULT)
		}
		return Ret(v)

	case PtWrite: // addrp = tracer buffer holding the word; data = target va
		k.M.CPU.AS = p.AS
		v, e := k.readUserWord(addrp, addrp.Addr(), 8)
		k.M.CPU.AS = target.AS
		if e != OK {
			return Err(e)
		}
		if err := k.M.CPU.StoreVia(targetMem(data), data, 8, v); err != nil {
			return Err(EFAULT)
		}
		return Ret(0)

	case PtGetReg: // data = register index
		if data >= isa.NumRegs {
			return Err(EINVAL)
		}
		return Ret(tt.Frame.X[data])

	case PtGetCapReg:
		// Extends ptrace "to permit reading the values of capability
		// registers": writes {tag, base, len, addr, perms} into the tracer
		// buffer.
		if data >= isa.NumRegs {
			return Err(EINVAL)
		}
		c := tt.Frame.C[data]
		k.M.CPU.AS = p.AS
		vals := []uint64{0, c.Base(), c.Len(), c.Addr(), uint64(c.Perms())}
		if c.Tag() {
			vals[0] = 1
		}
		for i, v := range vals {
			if e := k.writeUserWord(addrp, addrp.Addr()+uint64(i)*8, 8, v); e != OK {
				return Err(e)
			}
		}
		return Ret(0)

	case PtSetCapReg:
		// Injection: the tracer supplies {base, len, addr, perms}; the
		// kernel derives the capability from the target's root — "these
		// capabilities are derived from an appropriate extant target or
		// root architectural capability".
		if data >= isa.NumRegs {
			return Err(EINVAL)
		}
		k.M.CPU.AS = p.AS
		var vals [4]uint64
		for i := range vals {
			v, e := k.readUserWord(addrp, addrp.Addr()+uint64(i)*8, 8)
			if e != OK {
				return Err(e)
			}
			vals[i] = v
		}
		nc, err := cap.SetBounds(target.Root, vals[0], vals[1])
		if err != nil {
			return Err(EACCES)
		}
		nc = nc.AndPerms(cap.Perm(vals[3]) & target.Root.Perms())
		nc = cap.SetAddr(nc, vals[2])
		tt.Frame.C[data] = nc
		k.capCreated("ptrace", nc)
		k.Ledger.Derive(target.Prin, target.AbsRoot, nc, core.OriginPtrace)
		return Ret(0)

	case PtWriteCap:
		// Inject a rederived capability into target *memory* at data.
		k.M.CPU.AS = p.AS
		var vals [4]uint64
		for i := range vals {
			v, e := k.readUserWord(addrp, addrp.Addr()+uint64(i)*8, 8)
			if e != OK {
				return Err(e)
			}
			vals[i] = v
		}
		nc, err := cap.SetBounds(target.Root, vals[0], vals[1])
		if err != nil {
			return Err(EACCES)
		}
		nc = nc.AndPerms(cap.Perm(vals[3]) & target.Root.Perms())
		nc = cap.SetAddr(nc, vals[2])
		k.M.CPU.AS = target.AS
		if err := k.M.CPU.StoreCapVia(targetMem(data), data, nc); err != nil {
			return Err(EFAULT)
		}
		k.capCreated("ptrace", nc)
		k.Ledger.Derive(target.Prin, target.AbsRoot, nc, core.OriginPtrace)
		return Ret(0)

	}
	return Err(EINVAL)
}
