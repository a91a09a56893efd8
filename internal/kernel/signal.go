package kernel

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
)

// Signal numbers (FreeBSD numbering; SIGPROT is CheriBSD's
// capability-violation signal).
const (
	SIGHUP  = 1
	SIGINT  = 2
	SIGQUIT = 3
	SIGILL  = 4
	SIGTRAP = 5
	SIGABRT = 6
	SIGBUS  = 10
	SIGSEGV = 11
	SIGSYS  = 12
	SIGPIPE = 13
	SIGTERM = 15
	SIGCHLD = 20
	SIGUSR1 = 30
	SIGUSR2 = 31
	SIGPROT = 34

	// NSig is the size of the signal table.
	NSig = 64
)

// sigFrameWords is the number of 8-byte slots in the integer part of a
// signal frame: 32 GPRs + PC + the saved signal mask.
const sigFrameWords = 34

// sigFrameSize returns the signal-frame footprint for an ABI. CheriABI
// frames additionally hold the full capability register file plus PCC
// ("the register state is copied to the signal stack for modification").
func sigFrameSize(abi image.ABI) uint64 {
	n := uint64(sigFrameWords * 8)
	if abi == image.ABICheri {
		n += (isa.NumRegs + 1) * cap.Bytes
	}
	return (n + 15) &^ 15
}

// deliverPending delivers one pending, unmasked signal to t (already
// switched onto the CPU). It returns true if the thread should not run
// this quantum (killed, or no thread state left).
func (k *Kernel) deliverPending(t *Thread) bool {
	p := t.Proc
	pending := p.SigPending &^ p.SigMask
	if pending == 0 {
		return false
	}
	var sig int
	for s := 1; s < NSig; s++ {
		if pending&(1<<uint(s)) != 0 {
			sig = s
			break
		}
	}
	p.SigPending &^= 1 << uint(sig)
	if sig == SIGCHLD && !p.Sig[sig].Set {
		return false // default ignore
	}
	return k.deliverSignal(t, sig)
}

// deliverOrKill delivers a synchronous signal resulting from a trap.
func (k *Kernel) deliverOrKill(t *Thread, sig int) {
	k.deliverSignal(t, sig)
}

// deliverSignal pushes a signal frame and enters the handler, or applies
// the default action (termination). Returns true if the thread was killed.
func (k *Kernel) deliverSignal(t *Thread, sig int) bool {
	p := t.Proc
	act := p.Sig[sig]
	if !act.Set || !act.Handler.Tag() && act.Handler.Addr() == 0 {
		k.exitProc(p, sig) // default action: terminate, status = signal
		return true
	}
	k.charge(CostSignalDeliver)
	f := k.regs(t) // the interrupted state
	c := k.M.CPU
	cheri := p.ABI == image.ABICheri
	size := sigFrameSize(p.ABI)

	// Push the frame below the current stack pointer.
	var sp uint64
	var stackAuth cap.Capability
	if cheri {
		stackAuth = f.C[isa.CSP]
		sp = (stackAuth.Addr() - size) &^ 15
	} else {
		stackAuth = f.DDC
		sp = (f.X[isa.RSP] - size) &^ 15
	}

	write := func(off uint64, v uint64) error {
		return c.StoreVia(stackAuth, sp+off, 8, v)
	}
	var err error
	for i := 0; i < isa.NumRegs && err == nil; i++ {
		err = write(uint64(i)*8, f.X[i])
	}
	if err == nil {
		err = write(32*8, f.PC)
	}
	if err == nil {
		err = write(33*8, p.SigMask)
	}
	if cheri {
		capOff := uint64(sigFrameWords * 8)
		capOff = (capOff + cap.Bytes - 1) &^ (cap.Bytes - 1)
		for i := 0; i < isa.NumRegs && err == nil; i++ {
			err = c.StoreCapVia(stackAuth, sp+capOff+uint64(i)*cap.Bytes, f.C[i])
		}
		if err == nil {
			err = c.StoreCapVia(stackAuth, sp+capOff+uint64(isa.NumRegs)*cap.Bytes, f.PCC)
		}
	}
	if err != nil {
		// Stack overflow during delivery: fatal, as on real systems.
		k.exitProc(p, SIGSEGV)
		return true
	}

	// Resolve the handler descriptor [code, GOT].
	code, got, err := k.readFuncDesc(p, act.Handler, f.DDC)
	if err != nil {
		k.exitProc(p, SIGSEGV)
		return true
	}

	// Enter the handler: handler(sig, frame). Further instances of sig are
	// masked until sigreturn restores the saved mask. The interrupted mark
	// tells a restarted sleep that a handler ran during its park — the one
	// family that must fail EINTR instead of restarting (default-ignored
	// signals like an unhandled SIGCHLD wake the sleeper but deliver
	// nothing, so the sleep quietly re-parks).
	t.interrupted = true
	p.SigMask |= 1 << uint(sig)
	f.X[isa.RA0] = uint64(sig)
	if cheri {
		frameCap, berr := cap.SetBounds(stackAuth, sp, size)
		if berr != nil {
			k.exitProc(p, SIGSEGV)
			return true
		}
		k.capCreated("signal", frameCap)
		f.C[isa.CA0] = frameCap
		f.C[isa.CSP] = cap.SetAddr(stackAuth, sp)
		f.C[isa.CGP] = got
		f.C[isa.CRA] = p.sigTrampCap(k)
		f.PCC = code
		f.PC = code.Addr()
	} else {
		f.X[isa.RA1] = sp
		f.X[isa.RSP] = sp
		f.X[isa.RGP] = got.Addr()
		f.X[isa.RRA] = TrampVA
		f.PC = code.Addr()
	}
	return false
}

// sigTrampCap returns the tightly bounded capability to the sigreturn
// trampoline page.
func (p *Proc) sigTrampCap(k *Kernel) cap.Capability {
	c, err := cap.SetBounds(p.Root, TrampVA, uint64(len(sigTrampoline))*isa.InstSize)
	if err != nil {
		return cap.Null()
	}
	return c.AndPerms(cap.PermCode)
}

// sysSigreturn restores the interrupted context from the signal frame at
// the current stack pointer. Capabilities are reloaded through the stack
// capability, so "manipulation of saved capability state by the signal
// handler preserves the architectural capability chain". The frame is
// replaced, or the process killed, so it never returns a result.
func sysSigreturn(k *Kernel, t *Thread, _ *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	c := k.M.CPU
	cheri := p.ABI == image.ABICheri

	r := k.regs(t)
	var sp uint64
	var stackAuth cap.Capability
	if cheri {
		stackAuth = r.C[isa.CSP]
		sp = stackAuth.Addr()
	} else {
		stackAuth = r.DDC
		sp = r.X[isa.RSP]
	}

	var f Frame
	var err error
	read := func(off uint64) uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = c.LoadVia(stackAuth, sp+off, 8)
		return v
	}
	for i := 0; i < isa.NumRegs; i++ {
		f.X[i] = read(uint64(i) * 8)
	}
	f.PC = read(32 * 8)
	mask := read(33 * 8)
	if cheri {
		capOff := uint64(sigFrameWords * 8)
		capOff = (capOff + cap.Bytes - 1) &^ (cap.Bytes - 1)
		for i := 0; i < isa.NumRegs && err == nil; i++ {
			f.C[i], err = c.LoadCapVia(stackAuth, sp+capOff+uint64(i)*cap.Bytes)
		}
		if err == nil {
			f.PCC, err = c.LoadCapVia(stackAuth, sp+capOff+uint64(isa.NumRegs)*cap.Bytes)
		}
		f.DDC = cap.Null()
	} else {
		// The legacy frame holds no capabilities: the capability
		// registers, PCC and DDC stay as the handler left them.
		f.C = r.C
		f.PCC = r.PCC
		f.DDC = r.DDC
	}
	if err != nil {
		k.exitProc(p, SIGSEGV)
		return Err(EJUSTRETURN)
	}
	p.SigMask = mask
	*r = f
	return Err(EJUSTRETURN)
}

// Kill posts sig to process pid, waking any of its queued waiters (the
// interrupted syscall restarts after the handler runs, or termination).
func (k *Kernel) Kill(pid, sig int) Errno {
	p := k.procs[pid]
	if p == nil || p.State == ProcZombie {
		return ESRCH
	}
	if sig <= 0 || sig >= NSig {
		return EINVAL
	}
	k.PostSignal(p, sig)
	return OK
}
