package kernel

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
)

// Table-driven syscall dispatch. Package nat declares every syscall once
// (number, argument spec, return kind, audit signature); this file maps
// each number to its handler. The dispatcher performs the work common to
// all of them — argument decode under both ABI register conventions,
// capability validation and cost charging for pointer arguments
// (CostCheriCapCheck / CostLegacyCapConstruct, the asymmetry §5.2
// measures), copyin of string in-arguments, and the encoding of every
// result into registers — so the handler bodies are pure semantics.
// Natives (native.go) decode through the same register reader and
// return through the same result writer.
//
// The nat signature documents each pointer's direction (in/out) and, for
// copies whose extent a second argument claims to bound, the length
// binding. Direction and length are deliberately *not* enforced by the
// dispatcher: under CheriABI the copy is authorized by the capability's
// bounds at access time, never by a length argument — an over-stated
// length must fault at the capability boundary, not be pre-truncated
// (the BOdiagsuite getcwd cases), and under legacy the kernel's faithful
// use of its own authority is exactly the confused-deputy hazard the
// paper measures.

// SysArgs holds one call's decoded arguments: integers, pointer
// capabilities, and copied-in strings, each indexed in declaration order
// of its kind.
type SysArgs struct {
	ints [4]uint64
	ptrs [4]cap.Capability
	strs [2]string
}

// Int returns the i-th integer ('i') argument.
func (a *SysArgs) Int(i int) uint64 { return a.ints[i] }

// Ptr returns the i-th pointer ('p', 'r', or 's') argument.
func (a *SysArgs) Ptr(i int) cap.Capability { return a.ptrs[i] }

// Str returns the i-th copied-in string ('s') argument.
func (a *SysArgs) Str(i int) string { return a.strs[i] }

// Handler is the body of a syscall or of a run-time native. It returns
// the call's result and errno and writes no result register itself: the
// dispatcher encodes them (setResult). The result is capability-width,
// like CheriBSD's td_retval: a pointer result is the capability, an
// integer result an untagged capability holding the value (Ret). A
// failed call's value is ignored (Err). EJUSTRETURN leaves the frame,
// the PC and the timed-park state untouched.
type Handler func(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno)

// Ret is a successful integer result.
func Ret(v uint64) (cap.Capability, Errno) { return cap.NullWithAddr(v), OK }

// Err is a call that failed with e, or parked or replaced its frame
// (e == EJUSTRETURN).
func Err(e Errno) (cap.Capability, Errno) { return cap.Null(), e }

// setResult is the result writer: the one place a call's result reaches
// the guest's registers. It encodes v and e into f by the call's return
// kind (nat.Ret):
//
//	Int   v0 = the value, or ^0 on error
//	Ptr   v0 = the address and, under CheriABI, c3 = the capability;
//	      0 and NULL on error
//	Void  v0 = 0
//
// v1 is the errno in every case.
func setResult(f *Frame, abi image.ABI, kind nat.Ret, v cap.Capability, e Errno) {
	switch {
	case kind == nat.Void:
		v = cap.Null()
	case kind == nat.Ptr:
		if e != OK {
			v = cap.Null()
		}
		if abi == image.ABICheri {
			f.C[isa.CA0] = v
		}
	case e != OK:
		v = cap.NullWithAddr(^uint64(0))
	}
	f.X[isa.RV0] = v.Addr()
	f.X[isa.RV1] = uint64(e)
}

// sysTable maps each syscall number to its handler.
var sysTable = [...]Handler{
	nat.SysExit:         sysExit,
	nat.SysFork:         sysFork,
	nat.SysRead:         sysRead,
	nat.SysWrite:        sysWrite,
	nat.SysOpen:         sysOpen,
	nat.SysClose:        sysClose,
	nat.SysWait4:        sysWait4,
	nat.SysPipe:         sysPipe,
	nat.SysDup:          sysDup,
	nat.SysGetpid:       sysGetpid,
	nat.SysExecve:       sysExecve,
	nat.SysMmap:         sysMmap,
	nat.SysMunmap:       sysMunmap,
	nat.SysMprotect:     sysMprotect,
	nat.SysSbrk:         sysSbrk,
	nat.SysSelect:       sysSelect,
	nat.SysKqueue:       sysKqueue,
	nat.SysKevent:       sysKevent,
	nat.SysSigaction:    sysSigaction,
	nat.SysSigreturn:    sysSigreturn,
	nat.SysKill:         sysKill,
	nat.SysIoctl:        sysIoctl,
	nat.SysSysctl:       sysSysctl,
	nat.SysPtrace:       sysPtrace,
	nat.SysGetcwd:       sysGetcwd,
	nat.SysChdir:        sysChdir,
	nat.SysLseek:        sysLseek,
	nat.SysFstat:        sysFstat,
	nat.SysShmget:       sysShmget,
	nat.SysShmat:        sysShmat,
	nat.SysShmdt:        sysShmdt,
	nat.SysYield:        sysYield,
	nat.SysSigprocmask:  sysSigprocmask,
	nat.SysGetTime:      sysGetTime,
	nat.SysUnlink:       sysUnlink,
	nat.SysSwapSelf:     sysSwapSelf,
	nat.SysReadv:        sysReadv,
	nat.SysWritev:       sysWritev,
	nat.SysPread:        sysPread,
	nat.SysPwrite:       sysPwrite,
	nat.SysFtruncate:    sysFtruncate,
	nat.SysSocket:       sysSocket,
	nat.SysSocketpair:   sysSocketpair,
	nat.SysBind:         sysBind,
	nat.SysListen:       sysListen,
	nat.SysConnect:      sysConnect,
	nat.SysAccept:       sysAccept,
	nat.SysShutdown:     sysShutdown,
	nat.SysSend:         sysSend,
	nat.SysRecv:         sysRecv,
	nat.SysPoll:         sysPoll,
	nat.SysFcntl:        sysFcntl,
	nat.SysGetdents:     sysGetdents,
	nat.SysNanosleep:    sysNanosleep,
	nat.SysSleep:        sysSleep,
	nat.SysUsleep:       sysUsleep,
	nat.SysClockGettime: sysClockGettime,
	nat.SysGettimeofday: sysGettimeofday,
	nat.SysGetsockname:  sysGetsockname,
	nat.SysGetpeername:  sysGetpeername,
}

// readArgs reads a call's arguments from f per spec: integers into
// a.ints, and pointers, exactly as presented (a capability under
// CheriABI, an untagged address under legacy), into a.ptrs. It returns
// the number of pointers read. Both call kinds decode through it.
func readArgs(f *Frame, abi image.ABI, spec string, a *SysArgs) int {
	legacy := abi == image.ABILegacy
	ni, np := 0, 0
	for pos := 0; pos < len(spec); pos++ {
		if spec[pos] == 'i' {
			if legacy {
				a.ints[ni] = f.X[isa.RA0+pos]
			} else {
				a.ints[ni] = f.X[isa.RA0+ni]
			}
			ni++
			continue
		}
		if legacy {
			a.ptrs[np] = cap.NullWithAddr(f.X[isa.RA0+pos])
		} else {
			a.ptrs[np] = f.C[isa.CA0+np]
		}
		np++
	}
	return np
}

// decodeArgs decodes the in-flight syscall's arguments per spec. After
// the register read, pass one materializes (and charges) every validated
// pointer; pass two copies in 's' strings, so all pointer charges land
// before any string bytes are touched, even when a copyin fails.
func (k *Kernel) decodeArgs(t *Thread, spec string, a *SysArgs) Errno {
	readArgs(k.regs(t), t.Proc.ABI, spec, a)
	np := 0
	for pos := 0; pos < len(spec); pos++ {
		if spec[pos] == 'i' {
			continue
		}
		if spec[pos] != 'r' {
			a.ptrs[np] = k.materializePtr(t.Proc, a.ptrs[np])
		}
		np++
	}
	np, ns := 0, 0
	for pos := 0; pos < len(spec); pos++ {
		switch spec[pos] {
		case 'i':
		case 's':
			s, e := k.copyInStr(a.ptrs[np])
			if e != OK {
				return e
			}
			a.strs[ns] = s
			ns++
			np++
		default:
			np++
		}
	}
	return OK
}

// syscall dispatches the trapped syscall through the table and writes
// its result. A call that returns EJUSTRETURN (it parked, or replaced the
// frame) keeps its PC, so a parked call restarts on wake.
func (k *Kernel) syscall(t *Thread) {
	num := int(k.regs(t).X[isa.RV0])
	k.charge(CostSyscallBase)
	kind, v, e := nat.Int, cap.Null(), ENOSYS
	if num > 0 && num < len(sysTable) && sysTable[num] != nil {
		// The per-Kernel argument block, zeroed per call: a local would
		// escape to the heap through the indirect handler call. Reuse is
		// safe because handlers only read their arguments during the call
		// (none keeps the pointer) and calls never nest (CallGuest runs
		// callbacks that must end in BREAK, never a dispatched call).
		a := &k.args
		*a = SysArgs{}
		kind = nat.Syscalls[num].Ret
		if e = k.decodeArgs(t, nat.Syscalls[num].Spec, a); e == OK {
			v, e = sysTable[num](k, t, a)
		}
	}
	if e == EJUSTRETURN {
		// A re-park keeps deadline/timedOut/interrupted intact across
		// restarts.
		return
	}
	f := k.regs(t)
	setResult(f, t.Proc.ABI, kind, v, e)
	// A completed syscall consumes its timed-park state; the next timed
	// syscall arms a fresh deadline.
	t.deadline, t.timedOut, t.interrupted = 0, false, false
	if t.State != ThreadExited && t.Proc.State != ProcZombie {
		f.PC += isa.InstSize
	}
}
