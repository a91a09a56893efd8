package kernel

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/uaccess"
)

// materializePtr turns a raw pointer argument into the authorizing
// capability the kernel will access user memory through. This is where
// the two syscall paths diverge (§5.2):
//
//   - CheriABI: the user-presented capability *is* the authority; the
//     kernel validates and uses it, and "non-capability versions of
//     copyout and copyin return errors".
//   - Legacy: the kernel must construct a capability from the integer
//     address and its own record of the process address space — the
//     expensive path, and the confused-deputy hazard the paper closes.
func (k *Kernel) materializePtr(p *Proc, raw cap.Capability) cap.Capability {
	if p.ABI == image.ABICheri {
		k.charge(CostCheriCapCheck)
		return raw
	}
	k.charge(CostLegacyCapConstruct)
	return k.dataAuth(p, raw.Addr())
}

// dataAuth constructs a capability carrying p's full data authority with
// its cursor at va: how an integer address of a legacy-ABI process is
// accessed. The accessor faithfully reaches whatever address the integer
// names.
func (k *Kernel) dataAuth(p *Proc, va uint64) cap.Capability {
	return cap.SetAddr(p.Root.AndPerms(cap.PermData), va)
}

// staging returns the kernel's staging buffer cut to n bytes, n ≤
// ioChunk. Syscalls move bytes between user memory and a File through
// it, so it grows to the largest transfer seen and is then reused. The
// slice is valid until the next call; a File method handed it must not
// keep it.
func (k *Kernel) staging(n uint64) []byte {
	if n > uint64(len(k.stage)) {
		k.stage = make([]byte, max(n, min(2*uint64(len(k.stage)), ioChunk)))
	}
	return k.stage[:n]
}

// copyIn copies n bytes (n ≤ ioChunk) from user memory at auth's cursor
// through the uaccess page-run engine into the staging buffer.
func (k *Kernel) copyIn(auth cap.Capability, n uint64) ([]byte, Errno) {
	buf := k.staging(n)
	if err := k.M.UA.Read(auth, auth.Addr(), buf); err != nil {
		return nil, EFAULT
	}
	return buf, OK
}

// copyOut copies data to user memory at auth's cursor.
func (k *Kernel) copyOut(auth cap.Capability, data []byte) Errno {
	if err := k.M.UA.Write(auth, auth.Addr(), data); err != nil {
		return EFAULT
	}
	return OK
}

// copyInStrMax is the kernel's NUL-terminated string length limit.
const copyInStrMax = 4096

// copyInStr reads a NUL-terminated string (bounded at 4 KiB).
func (k *Kernel) copyInStr(auth cap.Capability) (string, Errno) {
	s, err := k.M.UA.CString(auth, auth.Addr(), copyInStrMax)
	if err == uaccess.ErrTooLong {
		return "", ERANGE
	}
	if err != nil {
		return "", EFAULT
	}
	return s, OK
}

// copyInPtr reads one user pointer (capability or legacy word) from user
// memory at va: used by interfaces whose *structures* contain pointers
// (ioctl, kevent, argv/envv vectors), the paper's "challenging" cases.
func (k *Kernel) copyInPtr(t *Thread, auth cap.Capability, va uint64) (cap.Capability, Errno) {
	if t.Proc.ABI == image.ABICheri {
		c, err := k.M.CPU.LoadCapVia(auth, va)
		if err != nil {
			return cap.Null(), EFAULT
		}
		return c, OK
	}
	v, err := k.M.CPU.LoadVia(auth, va, 8)
	if err != nil {
		return cap.Null(), EFAULT
	}
	k.charge(CostLegacyCapConstruct)
	return k.dataAuth(t.Proc, v), OK
}

// readStrVec marshals a NULL-terminated user pointer vector of
// NUL-terminated strings (execve's argv/envv): each entry is read with
// copyInPtr — a capability under CheriABI, a constructed authority under
// legacy — and each string through the uaccess engine. Vectors longer
// than 256 entries return E2BIG.
func (k *Kernel) readStrVec(t *Thread, vec cap.Capability) ([]string, Errno) {
	if vec.Addr() == 0 {
		return nil, OK
	}
	stride := k.ptrStride(t.Proc)
	var out []string
	for i := 0; i < 256; i++ {
		pc, e := k.copyInPtr(t, vec, vec.Addr()+uint64(i)*stride)
		if e != OK {
			return nil, e
		}
		if pc.Addr() == 0 {
			return out, OK
		}
		s, e := k.copyInStr(pc)
		if e != OK {
			return nil, e
		}
		out = append(out, s)
	}
	return nil, E2BIG
}

// ptrStride is the pointer stride for a process.
func (k *Kernel) ptrStride(p *Proc) uint64 { return p.ABI.PtrSize() }

// readUserWord loads a word-sized integer through auth.
func (k *Kernel) readUserWord(auth cap.Capability, va uint64, size uint64) (uint64, Errno) {
	v, err := k.M.CPU.LoadVia(auth, va, size)
	if err != nil {
		return 0, EFAULT
	}
	return v, OK
}

// writeUserWord stores a word-sized integer through auth.
func (k *Kernel) writeUserWord(auth cap.Capability, va uint64, size, v uint64) Errno {
	if err := k.M.CPU.StoreVia(auth, va, size, v); err != nil {
		return EFAULT
	}
	return OK
}

// validUserRange reports whether [va, va+n) lies in user space (the legacy
// kernel's only line of defence).
func validUserRange(va, n uint64) bool {
	return va >= UserBase && va+n <= UserTop && va+n >= va
}
