package kernel

import (
	"encoding/binary"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
)

// ioctl commands. GIFCONF is the pointer-carrying command modelled on the
// SIOCGIFCONF interface behind the paper's FreeBSD DHCP-client bug ("an
// out-of-bounds read by the kernel in the FreeBSD DHCP client due to
// underallocation of the data argument to an ioctl call").
const (
	IoctlTIOCGWINSZ = 0x40087468
	IoctlFIONREAD   = 0x4004667F
	IoctlGIFCONF    = 0xC0106924
)

// sysIoctl: ioctl(fd, cmd, argp). For struct arguments containing
// pointers, the nested pointer is read as a capability under CheriABI
// ("Where we have found them necessary, ioctl and sysctl interfaces
// involving structs containing pointers have been translated").
//
// Commands whose semantics are descriptor-generic (FIONREAD's byte count
// from Stat, GIFCONF's network query) are handled here; everything else
// dispatches to the File object's Ioctl method, so device-specific
// commands live with the device.
func sysIoctl(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	fd := int(a.Int(0))
	cmd := a.Int(1)
	argp := a.Ptr(0)

	f := p.fd(fd)
	if f == nil {
		return Err(EBADF)
	}
	switch cmd {
	case IoctlFIONREAD:
		st := f.file.Stat()
		avail := st.Size
		if st.Kind == StatFile {
			avail -= f.off
		}
		if avail < 0 {
			avail = 0
		}
		if e := k.writeUserWord(argp, argp.Addr(), 4, uint64(avail)); e != OK {
			return Err(e)
		}
		return Ret(0)

	case IoctlGIFCONF:
		// struct ifconf { i64 len; ptr buf }: the kernel writes interface
		// records into *buf. The caller-claimed len drives the legacy
		// path; the capability's bounds drive the CheriABI path.
		claimed, e := k.readUserWord(argp, argp.Addr(), 8)
		if e != OK {
			return Err(e)
		}
		bufPtr, e := k.copyInPtr(t, argp, argp.Addr()+8)
		if e != OK {
			return Err(e)
		}
		records := []byte("em0\x00inet 10.0.0.2\x00\x00lo0\x00inet 127.0.0.1\x00\x00bge0\x00inet 192.168.1.9\x00\x00")
		n := uint64(len(records))
		if n > claimed {
			n = claimed
		}
		// The confused-deputy moment: the legacy kernel trusts `claimed`
		// and writes through its own authority; CheriABI dereferences the
		// user capability and faults on underallocation.
		if e := k.copyOut(bufPtr, records[:n]); e != OK {
			return Err(e)
		}
		if e := k.writeUserWord(argp, argp.Addr(), 8, n); e != OK {
			return Err(e)
		}
		return Ret(0)

	default:
		// Object-specific commands (TIOCGWINSZ on the console, future
		// device controls) live with the File implementation.
		if e := f.file.Ioctl(k, t, f, cmd, argp); e != OK {
			return Err(e)
		}
		return Ret(0)
	}
}

// sysctl ids.
const (
	SysctlOSType   = 1
	SysctlPageSize = 2
	SysctlKernPtr  = 3 // the management-interface pointer-leak example
)

// sysSysctl: sysctl(id, oldp, oldlenp, newp). The declared-but-unused
// newp stays a raw pointer in the table, so no authority is constructed
// for it on the legacy path (and no charge taken) — exactly as before.
func sysSysctl(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	id := int(a.Int(0))
	oldp := a.Ptr(0)
	oldlenp := a.Ptr(1)

	writeOut := func(data []byte) (cap.Capability, Errno) {
		if oldp.Addr() != 0 {
			if e := k.copyOut(oldp, data); e != OK {
				return Err(e)
			}
		}
		if oldlenp.Addr() != 0 {
			if e := k.writeUserWord(oldlenp, oldlenp.Addr(), 8, uint64(len(data))); e != OK {
				return Err(e)
			}
		}
		return Ret(0)
	}

	switch id {
	case SysctlOSType:
		return writeOut(append([]byte("CheriBSD-sim"), 0))
	case SysctlPageSize:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], 4096)
		return writeOut(b[:])
	case SysctlKernPtr:
		// "Some management interfaces export kernel pointers. Where we
		// have encountered them, we have altered them to expose virtual
		// addresses rather than kernel capabilities." The legacy interface
		// leaks a raw kernel address; the CheriABI one exports an opaque
		// identifier.
		var b [8]byte
		if p.ABI == image.ABILegacy {
			binary.LittleEndian.PutUint64(b[:], 0xFFFFFFFF80201234)
		} else {
			binary.LittleEndian.PutUint64(b[:], uint64(p.PID)<<16|0x42)
		}
		return writeOut(b[:])
	}
	return Err(EINVAL)
}
