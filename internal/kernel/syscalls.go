package kernel

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/core"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/vm"
)

// Syscall numbers.
const (
	SysExit = iota + 1
	SysFork
	SysRead
	SysWrite
	SysOpen
	SysClose
	SysWait4
	SysPipe
	SysDup
	SysGetpid
	SysExecve
	SysMmap
	SysMunmap
	SysMprotect
	SysSbrk
	SysSelect
	SysKqueue
	SysKevent
	SysSigaction
	SysSigreturn
	SysKill
	SysIoctl
	SysSysctl
	SysPtrace
	SysGetcwd
	SysChdir
	SysLseek
	SysFstat
	SysShmget
	SysShmat
	SysShmdt
	SysYield
	SysSigprocmask
	SysGetTime
	SysUnlink
	SysSwapSelf // simulator-specific: force the process's pages to swap
	SysReadv
	SysWritev
	SysPread
	SysPwrite
	SysFtruncate
	SysSocket
	SysSocketpair
	SysBind
	SysListen
	SysConnect
	SysAccept
	SysShutdown
	SysSend
	SysRecv
	SysPoll
	SysFcntl
	SysGetdents
	SysNanosleep
	SysSleep
	SysUsleep
	SysClockGettime
	SysGettimeofday
	SysGetsockname
	SysGetpeername
)

// mmap prot/flags.
const (
	ProtReadFlag  = 1
	ProtWriteFlag = 2
	ProtExecFlag  = 4
	MapFixed      = 0x10
)

// Handler bodies. Argument decode, pointer validation, cost charging,
// and string copyin happen in the dispatcher (dispatch.go); these
// functions implement only the semantics. Each returns true to advance
// the PC past the syscall instruction.

func sysExit(k *Kernel, t *Thread, a *SysArgs) bool {
	k.exitProc(t.Proc, int(a.Int(0))<<8)
	return true
}

func sysGetpid(k *Kernel, t *Thread, a *SysArgs) bool {
	setRet(&t.Frame, uint64(t.Proc.PID), OK)
	return true
}

func sysYield(k *Kernel, t *Thread, a *SysArgs) bool {
	setRet(&t.Frame, 0, OK)
	return true
}

func sysGetTime(k *Kernel, t *Thread, a *SysArgs) bool {
	setRet(&t.Frame, k.Now(), OK)
	return true
}

func sysSwapSelf(k *Kernel, t *Thread, a *SysArgs) bool {
	n := k.SwapOutProc(t.Proc)
	setRet(&t.Frame, uint64(n), OK)
	return true
}

func sysKill(k *Kernel, t *Thread, a *SysArgs) bool {
	if e := k.Kill(int(a.Int(0)), int(a.Int(1))); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
	} else {
		setRet(&t.Frame, 0, OK)
	}
	return true
}

func sysSigreturnWrap(k *Kernel, t *Thread, a *SysArgs) bool {
	k.sigreturn(t)
	return false // frame replaced
}

func sysFork(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	pages := 0
	for _, r := range p.AS.Regions() {
		pages += int((r.End - r.Start) / vm.PageSize)
	}
	k.charge(CostForkBase + uint64(pages)*CostForkPerPage)
	if p.ABI == image.ABICheri {
		k.charge(CostForkCheriExtra)
	}

	child := k.newProc(p)
	child.Name = p.Name
	child.ABI = p.ABI
	child.AS = p.AS.Fork()
	child.Root = p.Root
	child.Prin = k.Ledger.NewPrincipal(core.ProcessPrincipal, child.Name)
	child.AbsRoot, _ = k.Ledger.Derive(child.Prin, k.resetAbs, child.Root, core.OriginExec)
	k.installRederive(child)
	child.CWD = p.CWD
	child.Sig = p.Sig
	child.SigMask = p.SigMask
	child.MmapHint = p.MmapHint
	child.Linked = p.Linked
	child.brk = p.brk
	child.FDs = make([]*FDesc, len(p.FDs))
	for i, f := range p.FDs {
		if f != nil {
			child.FDs[i] = f.incref()
		}
	}
	ct := k.newThread(child)
	ct.Frame = t.Frame
	setRet(&ct.Frame, 0, OK)    // child sees 0
	ct.Frame.PC += isa.InstSize // child resumes after the syscall
	setRet(&t.Frame, uint64(child.PID), OK)
	return true
}

// ioChunk caps one call's use of the kernel staging buffer: streams whose
// length is caller-invented (/dev/zero, /dev/urandom) are served in
// bounded chunks — a short read is POSIX-legal — and a runaway length
// never turns into a host-side allocation.
const ioChunk = 256 << 10

// ioScratch cuts the staging buffer for one read: the claimed length,
// clamped to the bytes the object can currently supply (regular files:
// size minus cursor; pipes: buffered bytes — so an EOF read stages zero
// bytes and needs no destination authority) and to ioChunk. Devices
// synthesize their stream, so only the chunk clamp applies.
func (k *Kernel) ioScratch(f *FDesc, n uint64) []byte {
	switch st := f.file.Stat(); st.Kind {
	case StatFile, StatDir:
		avail := st.Size - f.off
		if avail < 0 {
			avail = 0
		}
		if n > uint64(avail) {
			n = uint64(avail)
		}
	case StatPipe, StatSock:
		if n > uint64(st.Size) {
			n = uint64(st.Size)
		}
	}
	if n > ioChunk {
		n = ioChunk
	}
	return k.staging(n)
}

// precheckOut validates the destination capability for the bytes a read
// is about to supply, *before* the File object is consumed: a
// capability-level fault (tag, seal, permission, bounds — the check
// uaccess will repeat) must not drain pipe bytes or advance the cursor.
// It is a pure host-side check: no cycles are charged, exactly as
// uaccess charges nothing on a failed capability check.
func precheckOut(buf cap.Capability, n int) Errno {
	if n == 0 {
		return OK
	}
	if err := buf.CheckDeref(buf.Addr(), uint64(n), cap.PermStore); err != nil {
		return EFAULT
	}
	return OK
}

// doReadFD is the shared body of read(2), recv(2), and getdents(2) after
// descriptor validation: gate on the readiness predicate (EAGAIN for
// non-blocking descriptors, park on the object's wait queue otherwise),
// stage through uaccess into the guest buffer, and wake threads parked on
// the object (a drained pipe or socket has space for writers again).
func doReadFD(k *Kernel, t *Thread, f *FDesc, buf cap.Capability, n uint64) bool {
	if !f.file.Poll(PollIn) {
		if f.nonblock() {
			setRet(&t.Frame, ^uint64(0), EAGAIN)
			return true
		}
		k.blockFD(t, f)
		return false
	}
	scratch := k.ioScratch(f, n)
	if e := precheckOut(buf, len(scratch)); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	m, e := f.file.Read(f, scratch)
	if e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	if m > 0 {
		// Wake before attempting the copyout: the object was drained
		// either way, and a parked writer must learn about the space even
		// if the destination faults past the precheck (e.g. an unmapped
		// in-bounds page) — a skipped wake here is a lost wakeup.
		k.wakeFD(f)
		if e := k.copyOut(buf, scratch[:m]); e != OK {
			setRet(&t.Frame, ^uint64(0), e)
			return true
		}
	}
	setRet(&t.Frame, uint64(m), OK)
	return true
}

// doWriteFD is the shared body of write(2) and send(2) after descriptor
// validation; EPIPE raises SIGPIPE, and accepted bytes wake threads
// parked on the object (readers of the pipe or socket).
func doWriteFD(k *Kernel, t *Thread, f *FDesc, buf cap.Capability, n uint64) bool {
	if !f.file.Poll(PollOut) {
		if f.nonblock() {
			setRet(&t.Frame, ^uint64(0), EAGAIN)
			return true
		}
		k.blockFD(t, f)
		return false
	}
	if n > ioChunk {
		n = ioChunk // short write: bounds the staging buffer
	}
	data, e := k.copyIn(buf, n)
	if e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	m, e := f.file.Write(f, data)
	if e != OK {
		if e == EPIPE {
			k.PostSignal(t.Proc, SIGPIPE)
		}
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	if m > 0 {
		k.wakeFD(f)
	}
	setRet(&t.Frame, uint64(m), OK)
	return true
}

func sysRead(k *Kernel, t *Thread, a *SysArgs) bool {
	f := t.Proc.fd(int(a.Int(0)))
	if f == nil || !f.mayRead() {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	return doReadFD(k, t, f, a.Ptr(0), a.Int(1))
}

func sysWrite(k *Kernel, t *Thread, a *SysArgs) bool {
	f := t.Proc.fd(int(a.Int(0)))
	if f == nil || !f.mayWrite() {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	return doWriteFD(k, t, f, a.Ptr(0), a.Int(1))
}

// sysGetdents reads directory entries: read(2) semantics over a directory
// descriptor's dirent stream (fixed 64-byte records: an 8-byte kind word
// then a NUL-terminated name), in sorted-name order snapshotted at open.
func sysGetdents(k *Kernel, t *Thread, a *SysArgs) bool {
	f := t.Proc.fd(int(a.Int(0)))
	if f == nil || !f.mayRead() {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	if f.file.Stat().Kind != StatDir {
		setRet(&t.Frame, ^uint64(0), ENOTDIR)
		return true
	}
	return doReadFD(k, t, f, a.Ptr(0), a.Int(1))
}

func sysPread(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fd := int(a.Int(0))
	buf := a.Ptr(0)
	n := a.Int(1)
	off := int64(a.Int(2))
	f := p.fd(fd)
	if f == nil || !f.mayRead() {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	if n > ioChunk {
		n = ioChunk
	}
	scratch := k.staging(n)
	if e := precheckOut(buf, len(scratch)); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	m, e := f.file.Pread(scratch, off)
	if e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	if m > 0 {
		if e := k.copyOut(buf, scratch[:m]); e != OK {
			setRet(&t.Frame, ^uint64(0), e)
			return true
		}
	}
	setRet(&t.Frame, uint64(m), OK)
	return true
}

func sysPwrite(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fd := int(a.Int(0))
	buf := a.Ptr(0)
	n := a.Int(1)
	off := int64(a.Int(2))
	f := p.fd(fd)
	if f == nil || !f.mayWrite() {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	if n > ioChunk {
		n = ioChunk // short write: bounds the staging buffer
	}
	data, e := k.copyIn(buf, n)
	if e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	m, e := f.file.Pwrite(data, off)
	if e != OK {
		if e == EPIPE {
			k.PostSignal(p, SIGPIPE)
		}
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	setRet(&t.Frame, uint64(m), OK)
	return true
}

// iovMax bounds readv/writev vectors, like a small IOV_MAX.
const iovMax = 16

// readIovec reads the i-th struct iovec {base, len} from the user vector.
// The base pointer is read with copyInPtr — a capability under CheriABI,
// a constructed authority under legacy — so each segment's transfer is
// authorized by its own entry, and the length with readUserWord. The
// guest struct is {pointer, long} padded to pointer alignment, so the
// stride is twice the pointer size under both ABIs.
func (k *Kernel) readIovec(t *Thread, vec cap.Capability, i uint64) (cap.Capability, uint64, Errno) {
	stride := 2 * k.ptrStride(t.Proc)
	base := vec.Addr() + i*stride
	bp, e := k.copyInPtr(t, vec, base)
	if e != OK {
		return cap.Null(), 0, e
	}
	length, e := k.readUserWord(vec, base+stride/2, 8)
	if e != OK {
		return cap.Null(), 0, e
	}
	return bp, length, OK
}

func sysReadv(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fd := int(a.Int(0))
	vec := a.Ptr(0)
	cnt := a.Int(1)
	f := p.fd(fd)
	if f == nil || !f.mayRead() {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	if cnt > iovMax {
		setRet(&t.Frame, ^uint64(0), EINVAL)
		return true
	}
	if !f.file.Poll(PollIn) {
		if f.nonblock() {
			setRet(&t.Frame, ^uint64(0), EAGAIN)
			return true
		}
		k.blockFD(t, f)
		return false
	}
	// Once any segment has transferred, a later fault reports the partial
	// count (the bytes are already in the guest's buffers); an error with
	// nothing transferred reports the errno.
	total := uint64(0)
	fail := func(e Errno) {
		if total > 0 {
			setRet(&t.Frame, total, OK)
		} else {
			setRet(&t.Frame, ^uint64(0), e)
		}
	}
	consumed := false
	defer func() {
		if consumed {
			k.wakeFD(f) // drained bytes freed object space for writers
		}
	}()
	for i := uint64(0); i < cnt; i++ {
		bp, n, e := k.readIovec(t, vec, i)
		if e != OK {
			fail(e)
			return true
		}
		if n == 0 {
			continue
		}
		scratch := k.ioScratch(f, n)
		// Validate this segment's destination before consuming the
		// object: a bad iovec entry must not drain bytes it cannot land.
		if e := precheckOut(bp, len(scratch)); e != OK {
			fail(e)
			return true
		}
		m, e := f.file.Read(f, scratch)
		if e != OK {
			fail(e)
			return true
		}
		// The object gave up bytes: parked writers must be woken even if
		// landing them in the guest faults below (lost-wakeup hazard).
		consumed = consumed || m > 0
		if m > 0 {
			if e := k.copyOut(bp, scratch[:m]); e != OK {
				fail(e)
				return true
			}
		}
		total += uint64(m)
		if uint64(m) < n {
			break // short read: stop filling further segments
		}
	}
	setRet(&t.Frame, total, OK)
	return true
}

func sysWritev(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fd := int(a.Int(0))
	vec := a.Ptr(0)
	cnt := a.Int(1)
	f := p.fd(fd)
	if f == nil || !f.mayWrite() {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	if cnt > iovMax {
		setRet(&t.Frame, ^uint64(0), EINVAL)
		return true
	}
	if !f.file.Poll(PollOut) {
		if f.nonblock() {
			setRet(&t.Frame, ^uint64(0), EAGAIN)
			return true
		}
		k.blockFD(t, f)
		return false
	}
	// As with readv: bytes already accepted by the object are reported as
	// a partial count; an error before any byte moved reports the errno
	// (and EPIPE with nothing written raises SIGPIPE, as write(2) does).
	total := uint64(0)
	fail := func(e Errno) {
		if total > 0 {
			setRet(&t.Frame, total, OK)
			return
		}
		if e == EPIPE {
			k.PostSignal(p, SIGPIPE)
		}
		setRet(&t.Frame, ^uint64(0), e)
	}
	defer func() {
		if total > 0 {
			k.wakeFD(f) // supplied bytes made the object readable
		}
	}()
	for i := uint64(0); i < cnt; i++ {
		bp, n, e := k.readIovec(t, vec, i)
		if e != OK {
			fail(e)
			return true
		}
		if n == 0 {
			continue
		}
		if n > ioChunk {
			n = ioChunk // short write: bounds the staging buffer
		}
		data, e := k.copyIn(bp, n)
		if e != OK {
			fail(e)
			return true
		}
		m, e := f.file.Write(f, data)
		if e != OK {
			fail(e)
			return true
		}
		total += uint64(m)
		if uint64(m) < n {
			break // short write: the object is full
		}
	}
	setRet(&t.Frame, total, OK)
	return true
}

func sysFtruncate(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fd := int(a.Int(0))
	size := int64(a.Int(1))
	f := p.fd(fd)
	if f == nil || !f.mayWrite() {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	if e := f.file.Truncate(size); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	setRet(&t.Frame, 0, OK)
	return true
}

func sysOpen(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	path := a.Str(0)
	flags := int(a.Int(0))
	if len(path) == 0 {
		setRet(&t.Frame, ^uint64(0), ENOENT)
		return true
	}
	if path[0] != '/' {
		path = p.CWD + "/" + path
	}
	n := k.FS.lookup(path)
	if n == nil {
		if flags&OCreat == 0 {
			setRet(&t.Frame, ^uint64(0), ENOENT)
			return true
		}
		if err := k.FS.WriteFile(path, nil); err != nil {
			setRet(&t.Frame, ^uint64(0), ENOENT)
			return true
		}
		n = k.FS.lookup(path)
	}
	if n.kind == nodeDir && flags&(OWrOnly|ORdWr) != 0 {
		setRet(&t.Frame, ^uint64(0), EISDIR)
		return true
	}
	if n.kind == nodeFile && flags&OTrunc != 0 {
		n.data = nil
	}
	// Build the File object: regular vnode, directory, or a device-table
	// entry's constructor. The syscall layer never switches on a device
	// identity again after this point.
	var file File
	switch n.kind {
	case nodeDir:
		file = newDirFile(n)
	case nodeDev:
		file = n.dev(k, p)
	default:
		file = &vnodeFile{node: n}
	}
	f := &FDesc{file: file, flags: flags, refs: 1}
	setRet(&t.Frame, uint64(p.allocFD(f)), OK)
	return true
}

func sysClose(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fd := int(a.Int(0))
	f := p.fd(fd)
	if f == nil {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	f.close(k)
	p.FDs[fd] = nil
	setRet(&t.Frame, 0, OK)
	return true
}

func sysWait4(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	pid := int(int64(a.Int(0)))
	statusPtr := a.Ptr(0)
	var zombie *Proc
	candidates := 0
	for _, c := range p.Children {
		if pid > 0 && c.PID != pid {
			continue
		}
		candidates++
		if c.State == ProcZombie {
			zombie = c
			break
		}
	}
	if zombie == nil {
		if candidates == 0 {
			setRet(&t.Frame, ^uint64(0), ECHILD)
			return true
		}
		// Park on the process's child queue; exitProc wakes it and the
		// restarted wait4 re-scans the children.
		t.blockOn(&p.childq)
		return false
	}
	if statusPtr.Addr() != 0 {
		if e := k.writeUserWord(statusPtr, statusPtr.Addr(), 4, uint64(zombie.Status)); e != OK {
			setRet(&t.Frame, ^uint64(0), e)
			return true
		}
	}
	setRet(&t.Frame, uint64(zombie.PID), OK)
	k.Reap(zombie)
	return true
}

func sysPipe(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fdsPtr := a.Ptr(0)
	pip := &pipe{readers: 1, writers: 1}
	r := p.allocFD(&FDesc{file: &pipeFile{pip: pip}, flags: ORdOnly, refs: 1})
	w := p.allocFD(&FDesc{file: &pipeFile{pip: pip, writeEnd: true}, flags: OWrOnly, refs: 1})
	// MiniC's int is 8 bytes, so the fds array uses 8-byte slots.
	if e := k.writeUserWord(fdsPtr, fdsPtr.Addr(), 8, uint64(r)); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	if e := k.writeUserWord(fdsPtr, fdsPtr.Addr()+8, 8, uint64(w)); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	setRet(&t.Frame, 0, OK)
	return true
}

func sysDup(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fd := int(a.Int(0))
	f := p.fd(fd)
	if f == nil {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	setRet(&t.Frame, uint64(p.allocFD(f.incref())), OK)
	return true
}

func sysExecve(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	path := a.Str(0)
	argv, e := k.readStrVec(t, a.Ptr(1))
	if e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	envv, e := k.readStrVec(t, a.Ptr(2))
	if e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	if path != "" && path[0] != '/' {
		path = p.CWD + "/" + path
	}
	if err := k.exec(p, t, path, argv, envv); err != nil {
		setRet(&t.Frame, ^uint64(0), ENOEXEC)
		return true
	}
	k.switchTo(t)
	return false // frame replaced: entry point, no PC advance
}

// sysMmap implements the paper's mmap rules (§4, "Virtual-address
// management APIs").
func sysMmap(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	hint := a.Ptr(0)
	length := a.Int(0)
	prot := int(a.Int(1))
	flags := int(a.Int(2))
	if length == 0 {
		setRetCap(&t.Frame, p.ABI, cap.Null(), EINVAL)
		return true
	}
	k.charge(CostCheriCapCheck)

	rlen := k.M.Fmt.RepresentableLength((length + vm.PageSize - 1) &^ (vm.PageSize - 1))
	var prot2 vm.Prot
	if prot&ProtReadFlag != 0 {
		prot2 |= vm.ProtRead
	}
	if prot&ProtWriteFlag != 0 {
		prot2 |= vm.ProtWrite
	}
	if prot&ProtExecFlag != 0 {
		prot2 |= vm.ProtExec
	}

	var va uint64
	fixed := flags&MapFixed != 0
	if fixed {
		va = hint.Addr() &^ (vm.PageSize - 1)
		if !validUserRange(va, rlen) {
			setRetCap(&t.Frame, p.ABI, cap.Null(), EINVAL)
			return true
		}
		replacing := p.AS.Mapped(va, rlen)
		if p.ABI == image.ABICheri {
			// "If the fixed address is a valid capability, we require that
			// it have the vmmap user-defined capability permission ...
			// however, if the caller requests a fixed mapping [without
			// one], we allow it only if it would not replace an existing
			// mapping."
			if hint.Tag() && !hint.HasPerm(cap.PermVMMap) && replacing {
				setRetCap(&t.Frame, p.ABI, cap.Null(), EACCES)
				return true
			}
			if !hint.Tag() && replacing {
				setRetCap(&t.Frame, p.ABI, cap.Null(), EACCES)
				return true
			}
		}
		if err := p.AS.Map(va, rlen, prot2, true); err != nil {
			setRetCap(&t.Frame, p.ABI, cap.Null(), ENOMEM)
			return true
		}
	} else {
		start := p.MmapHint
		if hint.Addr() != 0 {
			start = hint.Addr()
		}
		va = p.AS.FindFree(start, rlen)
		if !validUserRange(va, rlen) {
			setRetCap(&t.Frame, p.ABI, cap.Null(), ENOMEM)
			return true
		}
		if err := p.AS.Map(va, rlen, prot2, false); err != nil {
			setRetCap(&t.Frame, p.ABI, cap.Null(), ENOMEM)
			return true
		}
		p.MmapHint = va + rlen + vm.PageSize // guard gap between regions
	}

	if p.ABI != image.ABICheri {
		setRet(&t.Frame, va, OK)
		return true
	}
	// Derive the returned capability: from the hint if it is a valid
	// capability (preserving provenance), else from the process root.
	parent := p.Root
	if hint.Tag() && hint.HasPerm(cap.PermVMMap) {
		parent = hint
	}
	perms := cap.PermVMMap | cap.PermGlobal
	if prot&ProtReadFlag != 0 {
		perms |= cap.PermLoad | cap.PermLoadCap
	}
	if prot&ProtWriteFlag != 0 {
		perms |= cap.PermStore | cap.PermStoreCap | cap.PermStoreLocalCap
	}
	if prot&ProtExecFlag != 0 {
		perms |= cap.PermExecute
	}
	ret, err := k.M.Fmt.SetBounds(parent, va, rlen)
	if err != nil {
		setRetCap(&t.Frame, p.ABI, cap.Null(), ENOMEM)
		return true
	}
	ret = ret.AndPerms(perms)
	k.capCreated("syscall", ret)
	k.Ledger.Derive(p.Prin, p.AbsRoot, ret, core.OriginMmap)
	setRetCap(&t.Frame, p.ABI, ret, OK)
	return true
}

// checkVMAuth validates the capability presented to munmap/mprotect/shmdt:
// it must be tagged, carry PermVMMap, and cover the range ("This prevents
// the possibility of replacing the contents of arbitrary memory without a
// valid capability").
func (k *Kernel) checkVMAuth(p *Proc, c cap.Capability, va, length uint64) Errno {
	if p.ABI != image.ABICheri {
		return OK
	}
	k.charge(CostCheriCapCheck)
	if !c.Tag() || !c.HasPerm(cap.PermVMMap) || !c.InBounds(va, length) {
		return EACCES
	}
	return OK
}

func sysMunmap(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	c := a.Ptr(0)
	length := (a.Int(0) + vm.PageSize - 1) &^ (vm.PageSize - 1)
	va := c.Addr() &^ (vm.PageSize - 1)
	if e := k.checkVMAuth(p, c, va, length); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	if err := p.AS.Unmap(va, length); err != nil {
		setRet(&t.Frame, ^uint64(0), EINVAL)
		return true
	}
	setRet(&t.Frame, 0, OK)
	return true
}

func sysMprotect(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	c := a.Ptr(0)
	length := (a.Int(0) + vm.PageSize - 1) &^ (vm.PageSize - 1)
	prot := int(a.Int(1))
	va := c.Addr() &^ (vm.PageSize - 1)
	if e := k.checkVMAuth(p, c, va, length); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	var prot2 vm.Prot
	if prot&ProtReadFlag != 0 {
		prot2 |= vm.ProtRead
	}
	if prot&ProtWriteFlag != 0 {
		prot2 |= vm.ProtWrite
	}
	if prot&ProtExecFlag != 0 {
		prot2 |= vm.ProtExec
	}
	if err := p.AS.Protect(va, length, prot2); err != nil {
		setRet(&t.Frame, ^uint64(0), EINVAL)
		return true
	}
	setRet(&t.Frame, 0, OK)
	return true
}

// sysSbrk: "we have excluded sbrk as a matter of principle" under
// CheriABI; the legacy ABI keeps a minimal implementation.
func sysSbrk(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	if p.ABI == image.ABICheri {
		setRet(&t.Frame, ^uint64(0), ENOSYS)
		return true
	}
	incr := int64(a.Int(0))
	const brkBase = 0x3000_0000
	if p.brk == 0 {
		p.brk = brkBase
	}
	old := p.brk
	if incr > 0 {
		grow := (uint64(incr) + vm.PageSize - 1) &^ (vm.PageSize - 1)
		// Map from the page the old break rounds up to (&^ binds tighter
		// than +, so the rounding needs the explicit parens).
		if err := p.AS.Map((old+vm.PageSize-1)&^(vm.PageSize-1), grow, vm.ProtRead|vm.ProtWrite, true); err != nil {
			setRet(&t.Frame, ^uint64(0), ENOMEM)
			return true
		}
		p.brk = old + uint64(incr)
	}
	setRet(&t.Frame, old, OK)
	return true
}

func sysSelect(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	nfds := int(a.Int(0))
	if nfds > 64 {
		nfds = 64
	}
	k.charge(uint64(nfds) * CostSelectPerFD)

	readMask := func(c cap.Capability) (uint64, Errno) {
		if c.Addr() == 0 {
			return 0, OK
		}
		return k.readUserWord(c, c.Addr(), 8)
	}
	rq, e1 := readMask(a.Ptr(0))
	wq, e2 := readMask(a.Ptr(1))
	if e1 != OK || e2 != OK {
		setRet(&t.Frame, ^uint64(0), EFAULT)
		return true
	}
	var rdy, wdy uint64
	count := 0
	for fd := 0; fd < nfds; fd++ {
		f := p.fd(fd)
		if f == nil {
			continue
		}
		// A hung-up descriptor is readable per select(2): the read that
		// follows observes EOF without blocking.
		if rq&(1<<uint(fd)) != 0 && (f.file.Poll(PollIn) || f.file.Poll(PollHup)) {
			rdy |= 1 << uint(fd)
			count++
		}
		if wq&(1<<uint(fd)) != 0 && f.file.Poll(PollOut) {
			wdy |= 1 << uint(fd)
			count++
		}
	}
	if count == 0 {
		// The timeout is a timeval {sec, usec}: NULL blocks until a watched
		// object transitions, a zero value is a pure non-blocking scan, and
		// a finite value parks with a deadline — so select(0, 0, 0, 0, &tv)
		// is the portable sub-second sleep. With nothing watched and NULL,
		// the park has no wake source and the deadlock detector reports it.
		tmo := a.Ptr(3)
		block, deadline := tmo.Addr() == 0, uint64(0)
		if !block {
			sec, e1 := k.readUserWord(tmo, tmo.Addr(), 8)
			usec, e2 := k.readUserWord(tmo, tmo.Addr()+8, 8)
			if e1 != OK || e2 != OK {
				setRet(&t.Frame, ^uint64(0), EFAULT)
				return true
			}
			if delta := sec*ClockHz + usToCycles(usec); delta > 0 && !k.deadlineExpired(t) {
				block, deadline = true, k.parkDeadline(t, delta)
			}
		}
		if block {
			qs := k.collectFDSet(p, nfds, rq|wq)
			if deadline != 0 {
				k.blockOnDeadline(t, deadline, qs...)
			} else {
				t.blockOn(qs...)
			}
			return false
		}
	}
	if a.Ptr(0).Addr() != 0 {
		if e := k.writeUserWord(a.Ptr(0), a.Ptr(0).Addr(), 8, rdy); e != OK {
			setRet(&t.Frame, ^uint64(0), e)
			return true
		}
	}
	if a.Ptr(1).Addr() != 0 {
		if e := k.writeUserWord(a.Ptr(1), a.Ptr(1).Addr(), 8, wdy); e != OK {
			setRet(&t.Frame, ^uint64(0), e)
			return true
		}
	}
	setRet(&t.Frame, uint64(count), OK)
	return true
}

// collectFDSet gathers the wait queues of every descriptor named in mask
// — the shared subscription set select-style parks use. Always-ready
// objects contribute no queue; a park with an empty set (and no deadline)
// is permanent, and the scheduler's deadlock detection reports it.
func (k *Kernel) collectFDSet(p *Proc, nfds int, mask uint64) []*WaitQueue {
	var qs []*WaitQueue
	for fd := 0; fd < nfds; fd++ {
		if mask&(1<<uint(fd)) == 0 {
			continue
		}
		if f := p.fd(fd); f != nil {
			if q := f.file.Queue(); q != nil {
				qs = append(qs, q)
			}
		}
	}
	return qs
}

// poll(2) event bits (FreeBSD values).
const (
	PollInEv   = 0x0001
	PollOutEv  = 0x0004
	PollErrEv  = 0x0008
	PollHupEv  = 0x0010
	PollNvalEv = 0x0020
)

// pollMax bounds the pollfd vector, like select's 64-descriptor mask.
const pollMax = 64

// sysPoll implements poll(2) over the same readiness predicate select and
// kevent use. The guest struct pollfd is {long fd; long events; long
// revents} — 24 bytes under both ABIs (MiniC int is 8 bytes, no
// pointers). A negative timeout blocks until a watched object
// transitions; a positive timeout is milliseconds on the virtual clock
// (the thread parks with a deadline and returns 0 when it fires first);
// zero is a non-blocking scan. poll(0, 0, ms) is therefore a portable
// millisecond sleep, and poll(0, 0, -1) a park with no wake source,
// which the scheduler's deadlock detector reports.
func sysPoll(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fds := a.Ptr(0)
	nfds := a.Int(0)
	timeout := int64(a.Int(1))
	if nfds > pollMax {
		setRet(&t.Frame, ^uint64(0), EINVAL)
		return true
	}
	k.charge(nfds * CostSelectPerFD)
	count := uint64(0)
	var qs []*WaitQueue
	for i := uint64(0); i < nfds; i++ {
		base := fds.Addr() + i*24
		fdw, e1 := k.readUserWord(fds, base, 8)
		events, e2 := k.readUserWord(fds, base+8, 8)
		if e1 != OK || e2 != OK {
			setRet(&t.Frame, ^uint64(0), EFAULT)
			return true
		}
		var revents uint64
		fd := int(int64(fdw))
		switch f := p.fd(fd); {
		case fd < 0:
			// Negative fds are ignored per POSIX (revents = 0).
		case f == nil:
			revents = PollNvalEv
		default:
			if events&PollInEv != 0 && f.file.Poll(PollIn) {
				revents |= PollInEv
			}
			if events&PollOutEv != 0 && f.file.Poll(PollOut) {
				revents |= PollOutEv
			}
			// POLLHUP — and POLLERR on writable descriptors, where the
			// hang-up means a write would raise EPIPE — are reported
			// unconditionally: POSIX says they are not maskable through
			// events. The queue subscription is likewise unconditional (not
			// gated on events bits), since a hang-up transition must wake a
			// parked poller whatever it asked for.
			if f.file.Poll(PollHup) {
				revents |= PollHupEv
				if f.mayWrite() {
					revents |= PollErrEv
				}
			}
			if q := f.file.Queue(); q != nil {
				qs = append(qs, q)
			}
		}
		if e := k.writeUserWord(fds, base+16, 8, revents); e != OK {
			setRet(&t.Frame, ^uint64(0), e)
			return true
		}
		if revents != 0 {
			count++
		}
	}
	if count == 0 && timeout != 0 {
		if timeout > 0 {
			if k.deadlineExpired(t) {
				setRet(&t.Frame, 0, OK)
				return true
			}
			k.blockOnDeadline(t, k.parkDeadline(t, msToCycles(uint64(timeout))), qs...)
			return false
		}
		// Infinite timeout: park even with an empty subscription set — a
		// poll with nothing that can ever wake it is a genuine deadlock,
		// not a spurious 0 return.
		t.blockOn(qs...)
		return false
	}
	setRet(&t.Frame, count, OK)
	return true
}

// sleepState classifies the in-flight timed-sleep syscall on (re)entry.
type sleepState int

const (
	sleepArm    sleepState = iota // fresh call: arm the deadline and park
	sleepDone                     // deadline reached: complete successfully
	sleepIntr                     // a signal handler ran during the park: EINTR
	sleepRepark                   // spurious wake: park again, same deadline
)

// sleepCheck drives the shared sleep state machine. A fresh call has no
// deadline (the dispatcher cleared it when the previous syscall
// completed); a restarted one consults the expiry and the
// handler-interruption mark. Sleeps are the one family that must NOT
// restart after a handler runs (BSD restart semantics explicitly exclude
// them): they fail EINTR with the balance reported to the caller.
func (k *Kernel) sleepCheck(t *Thread) sleepState {
	switch {
	case t.deadline == 0:
		return sleepArm
	case k.deadlineExpired(t):
		return sleepDone
	case t.interrupted:
		return sleepIntr
	default:
		return sleepRepark
	}
}

// sleepLeft is the unslept balance of the in-flight sleep, in cycles.
func (k *Kernel) sleepLeft(t *Thread) uint64 {
	if t.deadline > k.Now() {
		return t.deadline - k.Now()
	}
	return 0
}

// sysNanosleep sleeps for a timespec {sec, nsec} on the virtual clock.
// Interrupted by a caught signal, it returns EINTR with the remaining
// virtual time written through rem (when non-NULL).
func sysNanosleep(k *Kernel, t *Thread, a *SysArgs) bool {
	req, rem := a.Ptr(0), a.Ptr(1)
	switch k.sleepCheck(t) {
	case sleepArm:
		sec, e1 := k.readUserWord(req, req.Addr(), 8)
		nsec, e2 := k.readUserWord(req, req.Addr()+8, 8)
		if e1 != OK || e2 != OK {
			setRet(&t.Frame, ^uint64(0), EFAULT)
			return true
		}
		if int64(sec) < 0 || int64(nsec) < 0 || nsec >= 1_000_000_000 {
			setRet(&t.Frame, ^uint64(0), EINVAL)
			return true
		}
		delta := sec*ClockHz + nsToCycles(nsec)
		if delta == 0 {
			setRet(&t.Frame, 0, OK)
			return true
		}
		k.blockOnDeadline(t, k.Now()+delta)
		return false
	case sleepIntr:
		if rem.Addr() != 0 {
			ns := cyclesToNs(k.sleepLeft(t))
			if e := k.writeUserWord(rem, rem.Addr(), 8, ns/1_000_000_000); e != OK {
				setRet(&t.Frame, ^uint64(0), e)
				return true
			}
			if e := k.writeUserWord(rem, rem.Addr()+8, 8, ns%1_000_000_000); e != OK {
				setRet(&t.Frame, ^uint64(0), e)
				return true
			}
		}
		setRet(&t.Frame, ^uint64(0), EINTR)
		return true
	case sleepDone:
		setRet(&t.Frame, 0, OK)
		return true
	default:
		k.blockOnDeadline(t, t.deadline)
		return false
	}
}

// sysSleep sleeps whole seconds; like libc sleep(3) it returns the
// number of unslept seconds when a caught signal cut it short, else 0.
func sysSleep(k *Kernel, t *Thread, a *SysArgs) bool {
	switch k.sleepCheck(t) {
	case sleepArm:
		sec := a.Int(0)
		if sec == 0 {
			setRet(&t.Frame, 0, OK)
			return true
		}
		k.blockOnDeadline(t, k.Now()+sec*ClockHz)
		return false
	case sleepIntr:
		setRet(&t.Frame, (k.sleepLeft(t)+ClockHz-1)/ClockHz, OK)
		return true
	case sleepDone:
		setRet(&t.Frame, 0, OK)
		return true
	default:
		k.blockOnDeadline(t, t.deadline)
		return false
	}
}

// sysUsleep sleeps microseconds; EINTR when a caught signal interrupts.
func sysUsleep(k *Kernel, t *Thread, a *SysArgs) bool {
	switch k.sleepCheck(t) {
	case sleepArm:
		us := a.Int(0)
		if us == 0 {
			setRet(&t.Frame, 0, OK)
			return true
		}
		k.blockOnDeadline(t, k.Now()+usToCycles(us))
		return false
	case sleepIntr:
		setRet(&t.Frame, ^uint64(0), EINTR)
		return true
	case sleepDone:
		setRet(&t.Frame, 0, OK)
		return true
	default:
		k.blockOnDeadline(t, t.deadline)
		return false
	}
}

// sysClockGettime writes the virtual clock as a timespec {sec, nsec}.
// Every clock id reads the same clock: the cycle counter is the only
// time source the machine has, and it is monotonic by construction.
func sysClockGettime(k *Kernel, t *Thread, a *SysArgs) bool {
	tp := a.Ptr(0)
	ns := cyclesToNs(k.Now())
	if e := k.writeUserWord(tp, tp.Addr(), 8, ns/1_000_000_000); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	if e := k.writeUserWord(tp, tp.Addr()+8, 8, ns%1_000_000_000); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	setRet(&t.Frame, 0, OK)
	return true
}

// sysGettimeofday writes the virtual clock as a timeval {sec, usec}.
func sysGettimeofday(k *Kernel, t *Thread, a *SysArgs) bool {
	tv := a.Ptr(0)
	ns := cyclesToNs(k.Now())
	if e := k.writeUserWord(tv, tv.Addr(), 8, ns/1_000_000_000); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	if e := k.writeUserWord(tv, tv.Addr()+8, 8, ns%1_000_000_000/1_000); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	setRet(&t.Frame, 0, OK)
	return true
}

// sysFcntl implements F_GETFL/F_SETFL over the open-file description.
// O_NONBLOCK and O_APPEND are the settable status flags; because they
// live on the shared description, a mode change through one descriptor is
// observed by its dup(2)/fork(2) sharers, per POSIX.
func sysFcntl(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	f := p.fd(int(a.Int(0)))
	if f == nil {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	switch int(a.Int(1)) {
	case FGetFl:
		setRet(&t.Frame, uint64(f.flags&(OAccMode|fcntlSettable)), OK)
	case FSetFl:
		f.flags = f.flags&^fcntlSettable | int(a.Int(2))&fcntlSettable
		setRet(&t.Frame, 0, OK)
	default:
		setRet(&t.Frame, ^uint64(0), EINVAL)
	}
	return true
}

func sysSigaction(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	sig := int(a.Int(0))
	handler := a.Ptr(0)
	if sig <= 0 || sig >= NSig {
		setRet(&t.Frame, ^uint64(0), EINVAL)
		return true
	}
	if handler.Addr() == 0 && !handler.Tag() {
		p.Sig[sig] = SigAction{}
	} else {
		// The handler descriptor pointer is stored in the kernel as a
		// capability for CheriABI processes.
		p.Sig[sig] = SigAction{Handler: handler, Set: true}
	}
	setRet(&t.Frame, 0, OK)
	return true
}

func sysSigprocmask(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	how := int(a.Int(0))
	mask := a.Int(1)
	old := p.SigMask
	switch how {
	case 0:
		p.SigMask = mask
	case 1:
		p.SigMask |= mask
	case 2:
		p.SigMask &^= mask
	default:
		setRet(&t.Frame, 0, EINVAL)
		return true
	}
	setRet(&t.Frame, old, OK)
	return true
}

func sysGetcwd(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	buf := a.Ptr(0)
	length := a.Int(0)
	cwd := append([]byte(p.CWD), 0)
	if uint64(len(cwd)) > length {
		setRet(&t.Frame, ^uint64(0), ERANGE)
		return true
	}
	// The copy is authorized by the *capability*, not the length argument:
	// an over-stated length cannot make the kernel overrun the buffer
	// under CheriABI (the BOdiagsuite getcwd cases).
	if e := k.copyOut(buf, cwd); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	setRet(&t.Frame, uint64(len(cwd)), OK)
	return true
}

func sysChdir(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	path := a.Str(0)
	if path == "" || path[0] != '/' {
		path = p.CWD + "/" + path
	}
	n := k.FS.lookup(path)
	if n == nil || n.kind != nodeDir {
		setRet(&t.Frame, ^uint64(0), ENOENT)
		return true
	}
	p.CWD = path
	setRet(&t.Frame, 0, OK)
	return true
}

func sysLseek(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fd := int(a.Int(0))
	off := int64(a.Int(1))
	whence := int(a.Int(2))
	f := p.fd(fd)
	if f == nil {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	pos, e := f.file.Seek(f, off, whence)
	if e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	setRet(&t.Frame, uint64(pos), OK)
	return true
}

func sysFstat(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	fd := int(a.Int(0))
	buf := a.Ptr(0)
	f := p.fd(fd)
	if f == nil {
		setRet(&t.Frame, ^uint64(0), EBADF)
		return true
	}
	st := f.file.Stat()
	size, kind := uint64(st.Size), st.Kind
	if e := k.writeUserWord(buf, buf.Addr(), 8, size); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	if e := k.writeUserWord(buf, buf.Addr()+8, 8, kind); e != OK {
		setRet(&t.Frame, ^uint64(0), e)
		return true
	}
	setRet(&t.Frame, 0, OK)
	return true
}

func sysUnlink(k *Kernel, t *Thread, a *SysArgs) bool {
	p := t.Proc
	path := a.Str(0)
	if path == "" || path[0] != '/' {
		path = p.CWD + "/" + path
	}
	if err := k.FS.Remove(path); err != nil {
		setRet(&t.Frame, ^uint64(0), ENOENT)
		return true
	}
	setRet(&t.Frame, 0, OK)
	return true
}
