package kernel

import (
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/cpu"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
)

// The I/O paths of a steady-state syscall allocate nothing on the host:
// bytes are staged through the kernel's one staging buffer, pipes and
// sockets reuse their buffer's array, and the CPU reports the trap in a
// Trap it owns. These tests pin that at zero allocations under both
// ABIs, in the manner of TestSyscallDispatchDoesNotAllocate; the first
// call of each AllocsPerRun warms the buffers up.

// ioAllocLen is the byte count each transfer moves.
const ioAllocLen = 256

// ioProc is a stopped process under one ABI with a user buffer and an
// iovec array on its stack, whose syscalls a test issues directly
// through the dispatcher.
type ioProc struct {
	k   *Kernel
	th  *Thread
	buf cap.Capability // ioAllocLen bytes
	iov cap.Capability // two iovecs, each naming one half of buf
}

func newIOProc(t *testing.T, abi image.ABI) *ioProc {
	t.Helper()
	m, p := spawnStoppedCode(t, abi, isa.Inst{Op: isa.BREAK})
	k := m.Kern
	th := p.mainThread()
	k.switchTo(th)
	sp := k.regs(th).X[isa.RSP]
	if abi == image.ABICheri {
		sp = k.regs(th).C[isa.CSP].Addr()
	}
	at := func(va, n uint64) cap.Capability {
		c, err := cap.SetBounds(p.Root, va, n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	bufVA := (sp - 0x4000) &^ 0xFFF
	iovVA := bufVA - 0x1000
	h := &ioProc{k: k, th: th, buf: at(bufVA, ioAllocLen)}
	stride := k.ptrStride(p)
	h.iov = at(iovVA, 4*stride)
	for i := uint64(0); i < 2; i++ {
		base, half := bufVA+i*ioAllocLen/2, uint64(ioAllocLen/2)
		entry := iovVA + 2*i*stride
		var err error
		if abi == image.ABICheri {
			err = m.CPU.StoreCapVia(h.iov, entry, at(base, half))
		} else {
			err = m.CPU.StoreVia(h.iov, entry, 8, base)
		}
		if err == nil {
			err = m.CPU.StoreVia(h.iov, entry+stride, 8, half)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// call issues syscall num on h.th, switched onto the CPU as the
// scheduler does, with its integer and pointer arguments, each in
// declaration order, placed in registers as the process's ABI passes
// them, and returns the result and errno.
func (h *ioProc) call(num int, ints []uint64, ptrs []cap.Capability) (uint64, Errno) {
	h.k.switchTo(h.th)
	return h.dispatch(num, ints, ptrs)
}

// dispatch is call without the switch: the call runs on whichever
// thread's registers the CPU holds.
func (h *ioProc) dispatch(num int, ints []uint64, ptrs []cap.Capability) (uint64, Errno) {
	f := h.k.regs(h.th)
	legacy := h.th.Proc.ABI == image.ABILegacy
	ni, np := 0, 0
	for idx, c := range nat.Syscalls[num].Spec {
		switch {
		case c == 'i' && legacy:
			f.X[isa.RA0+idx] = ints[ni]
		case c == 'i':
			f.X[isa.RA0+ni] = ints[ni]
		case legacy:
			f.X[isa.RA0+idx] = ptrs[np].Addr()
		default:
			f.C[isa.CA0+np] = ptrs[np]
		}
		if c == 'i' {
			ni++
		} else {
			np++
		}
	}
	f.X[isa.RV0] = uint64(num)
	h.k.syscall(h.th)
	f = h.k.regs(h.th)
	return f.X[isa.RV0], Errno(f.X[isa.RV1])
}

// open installs f on a fresh descriptor.
func (h *ioProc) open(f File) uint64 {
	return uint64(h.th.Proc.allocFD(&FDesc{file: f, flags: ORdWr, refs: 1}))
}

// wantZeroAllocs runs setup and then op under AllocsPerRun, under both
// ABIs; op reports a failed call as an error string.
func wantZeroAllocs(t *testing.T, name string, setup func(h *ioProc), op func(h *ioProc) string) {
	t.Helper()
	for _, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
		h := newIOProc(t, abi)
		setup(h)
		var failed string
		allocs := testing.AllocsPerRun(100, func() {
			if msg := op(h); msg != "" && failed == "" {
				failed = msg
			}
		})
		if failed != "" {
			t.Fatalf("abi %v: %s: %s", abi, name, failed)
		}
		if allocs != 0 {
			t.Errorf("abi %v: %s allocates %v objects per call, want 0", abi, name, allocs)
		}
	}
}

// moved reports a transfer that did not move all n bytes.
func moved(what string, n uint64, e Errno) string {
	if e != OK || n != ioAllocLen {
		return what + " moved " + itoa(int(n)) + " bytes, errno " + itoa(int(e))
	}
	return ""
}

func TestFileReadWriteDoesNotAllocate(t *testing.T) {
	var fd uint64
	wantZeroAllocs(t, "write+lseek+read of a regular file", func(h *ioProc) {
		h.k.FS.WriteFile("/data", nil)
		fd = h.open(&vnodeFile{node: h.k.FS.lookup("/data")})
	}, func(h *ioProc) string {
		n, e := h.call(nat.SysWrite, []uint64{fd, ioAllocLen}, []cap.Capability{h.buf})
		if msg := moved("write", n, e); msg != "" {
			return msg
		}
		if _, e := h.call(nat.SysLseek, []uint64{fd, 0, 0}, nil); e != OK {
			return "lseek: errno " + itoa(int(e))
		}
		n, e = h.call(nat.SysRead, []uint64{fd, ioAllocLen}, []cap.Capability{h.buf})
		return moved("read", n, e)
	})
}

func TestPreadPwriteDoesNotAllocate(t *testing.T) {
	var fd uint64
	wantZeroAllocs(t, "pwrite+pread of a regular file", func(h *ioProc) {
		h.k.FS.WriteFile("/data", nil)
		fd = h.open(&vnodeFile{node: h.k.FS.lookup("/data")})
	}, func(h *ioProc) string {
		n, e := h.call(nat.SysPwrite, []uint64{fd, ioAllocLen, 64}, []cap.Capability{h.buf})
		if msg := moved("pwrite", n, e); msg != "" {
			return msg
		}
		n, e = h.call(nat.SysPread, []uint64{fd, ioAllocLen, 64}, []cap.Capability{h.buf})
		return moved("pread", n, e)
	})
}

func TestGetdentsDoesNotAllocate(t *testing.T) {
	var fd uint64
	wantZeroAllocs(t, "getdents+lseek of a directory", func(h *ioProc) {
		h.k.FS.Mkdir("/d")
		for i := 0; i < ioAllocLen/direntSize; i++ {
			h.k.FS.WriteFile("/d/"+itoa(i), nil)
		}
		fd = h.open(newDirFile(h.k.FS.lookup("/d")))
	}, func(h *ioProc) string {
		n, e := h.call(nat.SysGetdents, []uint64{fd, ioAllocLen}, []cap.Capability{h.buf})
		if msg := moved("getdents", n, e); msg != "" {
			return msg
		}
		if _, e := h.call(nat.SysLseek, []uint64{fd, 0, 0}, nil); e != OK {
			return "lseek: errno " + itoa(int(e))
		}
		return ""
	})
}

// pipePair opens the two ends of a pipe as descriptors r and w.
func (h *ioProc) pipePair() (r, w uint64) {
	pip := &pipe{readers: 1, writers: 1}
	return h.open(&pipeFile{pip: pip}), h.open(&pipeFile{pip: pip, writeEnd: true})
}

func TestPipeWriteReadDoesNotAllocate(t *testing.T) {
	var r, w uint64
	wantZeroAllocs(t, "pipe write+read", func(h *ioProc) { r, w = h.pipePair() }, func(h *ioProc) string {
		n, e := h.call(nat.SysWrite, []uint64{w, ioAllocLen}, []cap.Capability{h.buf})
		if msg := moved("write", n, e); msg != "" {
			return msg
		}
		n, e = h.call(nat.SysRead, []uint64{r, ioAllocLen}, []cap.Capability{h.buf})
		return moved("read", n, e)
	})
}

func TestReadvWritevDoesNotAllocate(t *testing.T) {
	var r, w uint64
	wantZeroAllocs(t, "writev+readv over a pipe", func(h *ioProc) { r, w = h.pipePair() }, func(h *ioProc) string {
		n, e := h.call(nat.SysWritev, []uint64{w, 2}, []cap.Capability{h.iov})
		if msg := moved("writev", n, e); msg != "" {
			return msg
		}
		n, e = h.call(nat.SysReadv, []uint64{r, 2}, []cap.Capability{h.iov})
		return moved("readv", n, e)
	})
}

// sendRecv sends ioAllocLen bytes on a and receives them on b.
func sendRecv(a, b *uint64) func(h *ioProc) string {
	return func(h *ioProc) string {
		n, e := h.call(nat.SysSend, []uint64{*a, ioAllocLen, 0}, []cap.Capability{h.buf})
		if msg := moved("send", n, e); msg != "" {
			return msg
		}
		n, e = h.call(nat.SysRecv, []uint64{*b, ioAllocLen, 0}, []cap.Capability{h.buf})
		return moved("recv", n, e)
	}
}

// mustCall issues a setup syscall that must succeed or, for a
// non-blocking connect, be in progress.
func (h *ioProc) mustCall(t *testing.T, num int, ints []uint64, ptrs []cap.Capability) uint64 {
	t.Helper()
	v, e := h.call(num, ints, ptrs)
	if e != OK && e != EINPROGRESS {
		t.Fatalf("%s: %v", nat.Syscalls[num].Name, e)
	}
	return v
}

func TestUnixSendRecvDoesNotAllocate(t *testing.T) {
	var a, b uint64
	wantZeroAllocs(t, "AF_UNIX send+recv", func(h *ioProc) {
		h.mustCall(t, nat.SysSocketpair, []uint64{AFUnix, SockStream, 0}, []cap.Capability{h.buf})
		a, b = h.peek(t, 0), h.peek(t, 8)
	}, sendRecv(&a, &b))
}

// TestInetLoopbackSendRecvDoesNotAllocate: an AF_INET connection to
// 127.0.0.1 carries each send as a Data packet and each recv's credit
// return as an Ack, both by value, the payload aliasing the staging
// buffer.
func TestInetLoopbackSendRecvDoesNotAllocate(t *testing.T) {
	var a, b uint64
	wantZeroAllocs(t, "AF_INET loopback send+recv", func(h *ioProc) {
		sa := []cap.Capability{h.buf}
		h.poke(t, 0, AFInet)
		h.poke(t, 8, 7000)
		h.poke(t, 16, 0)
		l := h.mustCall(t, nat.SysSocket, []uint64{AFInet, SockStream, 0}, nil)
		h.mustCall(t, nat.SysBind, []uint64{l}, sa)
		h.mustCall(t, nat.SysListen, []uint64{l, 1}, nil)
		a = h.mustCall(t, nat.SysSocket, []uint64{AFInet, SockStream, 0}, nil)
		h.mustCall(t, nat.SysFcntl, []uint64{a, FSetFl, ONonblock}, nil)
		h.poke(t, 16, NetLoopback)
		h.mustCall(t, nat.SysConnect, []uint64{a}, sa)
		b = h.mustCall(t, nat.SysAccept, []uint64{l}, nil)
		h.mustCall(t, nat.SysConnect, []uint64{a}, sa)
	}, sendRecv(&a, &b))
}

// TestSyscallTrapDoesNotAllocate: a SYSCALL instruction surfaces from
// CPU.Run without a heap Trap, on both engines. The kernel never handles
// the trap here, so PC stays on the SYSCALL and every Run retires it
// again.
func TestSyscallTrapDoesNotAllocate(t *testing.T) {
	for _, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
		for _, ref := range []bool{true, false} {
			m, p := spawnStoppedCode(t, abi, isa.Inst{Op: isa.SYSCALL})
			m.Kern.switchTo(p.mainThread())
			c := m.CPU
			c.Reference = ref
			var bad string
			allocs := testing.AllocsPerRun(100, func() {
				if tr := c.Run(10); tr == nil || tr.Kind != cpu.TrapSyscall {
					bad = "Run returned no syscall trap"
				}
			})
			if bad != "" {
				t.Fatalf("abi %v, reference %v: %s", abi, ref, bad)
			}
			if allocs != 0 {
				t.Errorf("abi %v, reference %v: a syscall trap allocates %v objects, want 0", abi, ref, allocs)
			}
		}
	}
}
