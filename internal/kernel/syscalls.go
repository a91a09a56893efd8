package kernel

import (
	"math"

	"cheriabi/internal/cap"
	"cheriabi/internal/core"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
	"cheriabi/internal/vm"
)

// mmap prot/flags.
const (
	ProtReadFlag  = 1
	ProtWriteFlag = 2
	ProtExecFlag  = 4
	MapFixed      = 0x10
)

// Handler bodies. Argument decode, pointer validation, cost charging,
// string copyin and the result registers are the dispatcher's
// (dispatch.go); these functions implement only the semantics. Each
// returns its result and errno, or EJUSTRETURN when it parked the thread
// or replaced the frame.

func sysExit(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	k.exitProc(t.Proc, int(a.Int(0))<<8)
	return Ret(0)
}

func sysGetpid(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return Ret(uint64(t.Proc.PID))
}

func sysYield(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return Ret(0)
}

func sysGetTime(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return Ret(k.Now())
}

func sysSwapSelf(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	n := k.SwapOutProc(t.Proc)
	return Ret(uint64(n))
}

func sysKill(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	if e := k.Kill(int(a.Int(0)), int(a.Int(1))); e != OK {
		return Err(e)
	}
	return Ret(0)
}

func sysFork(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
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
		if f == nil {
			continue
		}
		// kqueue(2): the child does not inherit its parent's kqueues.
		if _, kq := f.file.(*kqueueFile); !kq {
			child.FDs[i] = f.incref()
		}
	}
	ct := k.newThread(child)
	ct.Frame = t.Frame
	setResult(&ct.Frame, p.ABI, nat.Int, cap.Null(), OK) // child sees 0
	ct.Frame.PC += isa.InstSize                          // child resumes after the syscall
	return Ret(uint64(child.PID))
}

// ---- descriptor I/O ----
//
// Every read-side call (read, recv, getdents, pread, readv) runs readFD's
// loop and every write-side call (write, send, pwrite, writev) writeFD's,
// over the guest segments an ioReq names. The descriptor layer owns
// positioning: Files transfer at the offset they are handed, and ioReq.at
// decides it (see DESIGN.md, "Descriptor I/O").

// ioChunk caps one call's use of the kernel staging buffer: streams whose
// length is caller-invented (/dev/zero, /dev/urandom) are served in
// bounded chunks — a short read is POSIX-legal — and a runaway length
// never turns into a host-side allocation.
const ioChunk = 256 << 10

// iovMax bounds readv/writev vectors, like a small IOV_MAX.
const iovMax = 16

// seekable reports whether an object of kind st has a cursor: regular
// files and directories. Every other object is a stream, which ignores
// the offset it is handed.
func seekable(st FileStat) bool { return st.Kind == StatFile || st.Kind == StatDir }

// positional reports whether pread/pwrite reach file, of kind st: the
// seekable objects, and the devices whose stream ignores position
// (/dev/null, /dev/zero, /dev/urandom). Pipes, sockets, kqueues and the
// console fail ESPIPE.
func positional(file File, st FileStat) bool {
	if st.Kind == StatDev {
		_, tty := file.(*ttyFile)
		return !tty
	}
	return seekable(st)
}

// ioReq is one read-side or write-side call: the guest memory it names
// and where it transfers.
type ioReq struct {
	buf cap.Capability // the one segment, or the struct iovec array (vec)
	n   uint64         // the segment's length, or the iovec count (vec)
	vec bool
	pos bool  // pread/pwrite: at off, cursor untouched, no readiness gate
	off int64 // pos only
}

// segs is the number of guest segments r names.
func (r *ioReq) segs() uint64 {
	if r.vec {
		return r.n
	}
	return 1
}

// seg returns r's i-th segment: the plain calls' argument pair, or a
// vectored call's i-th struct iovec.
func (k *Kernel) seg(t *Thread, r *ioReq, i uint64) (cap.Capability, uint64, Errno) {
	if !r.vec {
		return r.buf, r.n, OK
	}
	return k.readIovec(t, r.buf, i)
}

// at returns the offset r's next transfer on f, of kind st, runs at:
// pread/pwrite's argument, or the cursor, which a write under O_APPEND
// first moves to the end.
func (r *ioReq) at(f *FDesc, st FileStat, write bool) int64 {
	if r.pos {
		return r.off
	}
	if write && f.flags&OAppend != 0 && seekable(st) {
		f.off = st.Size
	}
	return f.off
}

// advance moves the cursor past the m bytes a transfer at it moved.
func (r *ioReq) advance(f *FDesc, st FileStat, m int) {
	if !r.pos && seekable(st) {
		f.off += int64(m)
	}
}

// gate admits r to f's transfer loop. A vector past iovMax is EINVAL.
// pread/pwrite pass on objects with positions and fail ESPIPE on the
// rest, before any guest memory is touched. The cursor calls wait for
// the readiness predicate in direction kind: EAGAIN for non-blocking
// descriptors, else the thread parks on the object's wait queue and the
// call restarts on wake.
func (k *Kernel) gate(t *Thread, f *FDesc, r *ioReq, kind PollKind) Errno {
	switch {
	case r.vec && r.n > iovMax:
		return EINVAL
	case r.pos && !positional(f.file, f.file.Stat()):
		return ESPIPE
	case r.pos || f.file.Poll(kind):
		return OK
	case f.nonblock():
		return EAGAIN
	}
	k.blockFD(t, f)
	return EJUSTRETURN
}

// ioScratch cuts the staging buffer for one read at offset off from an
// object of kind st: the claimed length, clamped to the bytes the object
// can currently supply (regular files: size minus off; pipes: buffered
// bytes — so an EOF read stages zero bytes and needs no destination
// authority) and to ioChunk. Devices synthesize their stream, so only
// the chunk clamp applies.
func (k *Kernel) ioScratch(st FileStat, off int64, n uint64) []byte {
	switch st.Kind {
	case StatFile, StatDir:
		avail := st.Size - off
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

// partial is a transfer's result. Once any segment has moved, a later
// error reports the partial count (the bytes are already in the guest's
// buffers or the object); an error with nothing transferred reports the
// errno.
func partial(total uint64, e Errno) (cap.Capability, Errno) {
	if total > 0 || e == OK {
		return Ret(total)
	}
	return Err(e)
}

// readFD is the read loop. Per segment it stages what the object can
// supply, checks the destination before the object gives the bytes up,
// reads, and copies them out; a short read ends the call. readv skips
// empty segments, but read(fd, buf, 0) still reaches the object (an
// unconnected socket reports ENOTCONN, an AF_INET one returns credit).
// If the object gave up bytes, threads parked on it are woken once —
// even when landing the bytes faulted, or a parked writer would never
// learn of the space.
func (k *Kernel) readFD(t *Thread, f *FDesc, r ioReq) (cap.Capability, Errno) {
	if f == nil || !f.mayRead() {
		return Err(EBADF)
	}
	if e := k.gate(t, f, &r, PollIn); e != OK {
		return Err(e)
	}
	total, drained, e := uint64(0), false, OK
	for i := uint64(0); i < r.segs(); i++ {
		buf, n, se := k.seg(t, &r, i)
		if e = se; e != OK {
			break
		}
		if n == 0 && r.vec {
			continue
		}
		st := f.file.Stat()
		off := r.at(f, st, false)
		scratch := k.ioScratch(st, off, n)
		if e = precheckOut(buf, len(scratch)); e != OK {
			break
		}
		var m int
		if m, e = f.file.Read(scratch, off); e != OK {
			break
		}
		r.advance(f, st, m)
		if m > 0 {
			drained = true
			if e = k.copyOut(buf, scratch[:m]); e != OK {
				break
			}
		}
		total += uint64(m)
		if uint64(m) < n {
			break
		}
	}
	if drained {
		k.wakeFD(f)
	}
	return partial(total, e)
}

// writeFD is the write loop. Per segment it copies in at most ioChunk
// bytes and writes them; a short write (a full object) ends the call.
// EPIPE with nothing written raises SIGPIPE; accepted bytes wake the
// threads parked on the object (readers of the pipe or socket).
func (k *Kernel) writeFD(t *Thread, f *FDesc, r ioReq) (cap.Capability, Errno) {
	if f == nil || !f.mayWrite() {
		return Err(EBADF)
	}
	if e := k.gate(t, f, &r, PollOut); e != OK {
		return Err(e)
	}
	total, e := uint64(0), OK
	for i := uint64(0); i < r.segs(); i++ {
		buf, n, se := k.seg(t, &r, i)
		if e = se; e != OK {
			break
		}
		if n == 0 && r.vec {
			continue
		}
		n = min(n, ioChunk) // short write: bounds the staging buffer
		var data []byte
		if data, e = k.copyIn(buf, n); e != OK {
			break
		}
		st := f.file.Stat()
		var m int
		if m, e = f.file.Write(data, r.at(f, st, true)); e != OK {
			if e == EPIPE && total == 0 {
				k.PostSignal(t.Proc, SIGPIPE)
			}
			break
		}
		r.advance(f, st, m)
		total += uint64(m)
		if uint64(m) < n {
			break
		}
	}
	if total > 0 {
		k.wakeFD(f)
	}
	return partial(total, e)
}

func sysRead(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return k.readFD(t, t.Proc.fd(int(a.Int(0))), ioReq{buf: a.Ptr(0), n: a.Int(1)})
}

func sysWrite(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return k.writeFD(t, t.Proc.fd(int(a.Int(0))), ioReq{buf: a.Ptr(0), n: a.Int(1)})
}

// sysGetdents reads directory entries: read(2) semantics over a directory
// descriptor's dirent stream (fixed 64-byte records: an 8-byte kind word
// then a NUL-terminated name), in sorted-name order snapshotted at open.
func sysGetdents(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	f := t.Proc.fd(int(a.Int(0)))
	if f == nil || !f.mayRead() {
		return Err(EBADF)
	}
	if f.file.Stat().Kind != StatDir {
		return Err(ENOTDIR)
	}
	return k.readFD(t, f, ioReq{buf: a.Ptr(0), n: a.Int(1)})
}

func sysPread(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return k.readFD(t, t.Proc.fd(int(a.Int(0))), ioReq{buf: a.Ptr(0), n: a.Int(1), pos: true, off: int64(a.Int(2))})
}

func sysPwrite(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return k.writeFD(t, t.Proc.fd(int(a.Int(0))), ioReq{buf: a.Ptr(0), n: a.Int(1), pos: true, off: int64(a.Int(2))})
}

func sysReadv(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return k.readFD(t, t.Proc.fd(int(a.Int(0))), ioReq{buf: a.Ptr(0), n: a.Int(1), vec: true})
}

func sysWritev(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return k.writeFD(t, t.Proc.fd(int(a.Int(0))), ioReq{buf: a.Ptr(0), n: a.Int(1), vec: true})
}

// sysLseek moves the cursor of a seekable object; streams are ESPIPE.
// A resulting position below zero is EINVAL and leaves the cursor where
// it was. On a directory, lseek(fd, 0, 0) is rewinddir.
func sysLseek(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	f := t.Proc.fd(int(a.Int(0)))
	if f == nil {
		return Err(EBADF)
	}
	st := f.file.Stat()
	if !seekable(st) {
		return Err(ESPIPE)
	}
	pos := int64(a.Int(1))
	switch a.Int(2) {
	case 0:
	case 1:
		pos += f.off
	case 2:
		pos += st.Size
	default:
		return Err(EINVAL)
	}
	if pos < 0 {
		return Err(EINVAL)
	}
	f.off = pos
	return Ret(uint64(pos))
}

func sysFtruncate(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	fd := int(a.Int(0))
	size := int64(a.Int(1))
	f := p.fd(fd)
	if f == nil || !f.mayWrite() {
		return Err(EBADF)
	}
	if e := f.file.Truncate(size); e != OK {
		return Err(e)
	}
	return Ret(0)
}

func sysOpen(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	path := a.Str(0)
	flags := int(a.Int(0))
	if len(path) == 0 {
		return Err(ENOENT)
	}
	if path[0] != '/' {
		path = p.CWD + "/" + path
	}
	n := k.FS.lookup(path)
	if n == nil {
		if flags&OCreat == 0 {
			return Err(ENOENT)
		}
		if err := k.FS.WriteFile(path, nil); err != nil {
			return Err(ENOENT)
		}
		n = k.FS.lookup(path)
	}
	if n.kind == nodeDir && flags&(OWrOnly|ORdWr) != 0 {
		return Err(EISDIR)
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
	return Ret(uint64(p.allocFD(f)))
}

func sysClose(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	fd := int(a.Int(0))
	f := p.fd(fd)
	if f == nil {
		return Err(EBADF)
	}
	f.close(k)
	p.FDs[fd] = nil
	return Ret(0)
}

func sysWait4(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
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
			return Err(ECHILD)
		}
		// Park on the process's child queue; exitProc wakes it and the
		// restarted wait4 re-scans the children.
		t.blockOn(&p.childq)
		return Err(EJUSTRETURN)
	}
	if statusPtr.Addr() != 0 {
		if e := k.writeUserWord(statusPtr, statusPtr.Addr(), 4, uint64(zombie.Status)); e != OK {
			return Err(e)
		}
	}
	k.Reap(zombie)
	return Ret(uint64(zombie.PID))
}

func sysPipe(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	fdsPtr := a.Ptr(0)
	pip := &pipe{readers: 1, writers: 1}
	r := p.allocFD(&FDesc{file: &pipeFile{pip: pip}, flags: ORdOnly, refs: 1})
	w := p.allocFD(&FDesc{file: &pipeFile{pip: pip, writeEnd: true}, flags: OWrOnly, refs: 1})
	// MiniC's int is 8 bytes, so the fds array uses 8-byte slots.
	if e := k.writeUserWord(fdsPtr, fdsPtr.Addr(), 8, uint64(r)); e != OK {
		return Err(e)
	}
	if e := k.writeUserWord(fdsPtr, fdsPtr.Addr()+8, 8, uint64(w)); e != OK {
		return Err(e)
	}
	return Ret(0)
}

func sysDup(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	fd := int(a.Int(0))
	f := p.fd(fd)
	if f == nil {
		return Err(EBADF)
	}
	return Ret(uint64(p.allocFD(f.incref())))
}

func sysExecve(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	path := a.Str(0)
	argv, e := k.readStrVec(t, a.Ptr(1))
	if e != OK {
		return Err(e)
	}
	envv, e := k.readStrVec(t, a.Ptr(2))
	if e != OK {
		return Err(e)
	}
	if path != "" && path[0] != '/' {
		path = p.CWD + "/" + path
	}
	if err := k.exec(p, t, path, argv, envv); err != nil {
		return Err(ENOEXEC)
	}
	k.switchTo(t)
	return Err(EJUSTRETURN) // frame replaced: entry point, no PC advance
}

// sysMmap implements the paper's mmap rules (§4, "Virtual-address
// management APIs").
func sysMmap(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	hint := a.Ptr(0)
	length := a.Int(0)
	prot := int(a.Int(1))
	flags := int(a.Int(2))
	if length == 0 {
		return Err(EINVAL)
	}
	k.charge(CostCheriCapCheck)
	fixed := flags&MapFixed != 0
	if length > UserTop-UserBase {
		// No mapping that large fits in user space, and rounding the
		// length up could wrap.
		if fixed {
			return Err(EINVAL)
		}
		return Err(ENOMEM)
	}

	rlen := cap.RepresentableLength((length + vm.PageSize - 1) &^ (vm.PageSize - 1))
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
	if fixed {
		va = hint.Addr() &^ (vm.PageSize - 1)
		if !validUserRange(va, rlen) {
			return Err(EINVAL)
		}
		replacing := p.AS.Mapped(va, rlen)
		if p.ABI == image.ABICheri {
			// "If the fixed address is a valid capability, we require that
			// it have the vmmap user-defined capability permission ...
			// however, if the caller requests a fixed mapping [without
			// one], we allow it only if it would not replace an existing
			// mapping."
			if hint.Tag() && !hint.HasPerm(cap.PermVMMap) && replacing {
				return Err(EACCES)
			}
			if !hint.Tag() && replacing {
				return Err(EACCES)
			}
		}
		if err := p.AS.Map(va, rlen, prot2, true); err != nil {
			return Err(ENOMEM)
		}
	} else {
		start := p.MmapHint
		if hint.Addr() != 0 {
			start = hint.Addr()
		}
		var ok bool
		va, ok = p.AS.FindFree(start, rlen, UserTop)
		if !ok || !validUserRange(va, rlen) {
			return Err(ENOMEM)
		}
		if err := p.AS.Map(va, rlen, prot2, false); err != nil {
			return Err(ENOMEM)
		}
		p.MmapHint = va + rlen + vm.PageSize // guard gap between regions
	}

	if p.ABI != image.ABICheri {
		return Ret(va)
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
	ret, err := cap.SetBounds(parent, va, rlen)
	if err != nil {
		return Err(ENOMEM)
	}
	ret = ret.AndPerms(perms)
	k.capCreated("syscall", ret)
	k.Ledger.Derive(p.Prin, p.AbsRoot, ret, core.OriginMmap)
	return ret, OK
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

func sysMunmap(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	c := a.Ptr(0)
	length := (a.Int(0) + vm.PageSize - 1) &^ (vm.PageSize - 1)
	va := c.Addr() &^ (vm.PageSize - 1)
	if e := k.checkVMAuth(p, c, va, length); e != OK {
		return Err(e)
	}
	if err := p.AS.Unmap(va, length); err != nil {
		return Err(EINVAL)
	}
	return Ret(0)
}

func sysMprotect(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	c := a.Ptr(0)
	length := (a.Int(0) + vm.PageSize - 1) &^ (vm.PageSize - 1)
	prot := int(a.Int(1))
	va := c.Addr() &^ (vm.PageSize - 1)
	if e := k.checkVMAuth(p, c, va, length); e != OK {
		return Err(e)
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
		return Err(EINVAL)
	}
	return Ret(0)
}

// sysSbrk: "we have excluded sbrk as a matter of principle" under
// CheriABI; the legacy ABI keeps a minimal implementation.
func sysSbrk(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	if p.ABI == image.ABICheri {
		return Err(ENOSYS)
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
			return Err(ENOMEM)
		}
		p.brk = old + uint64(incr)
	}
	return Ret(old)
}

// sysSelect scans the descriptors below nfds (at most 64; a negative
// nfds is EINVAL, as in FreeBSD) named in the read and write masks. A
// hung-up descriptor is readable: the read that follows observes EOF
// without blocking. The timeout is a timeval (see readTimeout), so
// select(0, 0, 0, 0, &tv) is the portable sub-second sleep.
func sysSelect(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	nfds := int(a.Int(0))
	if nfds < 0 {
		return Err(EINVAL)
	}
	nfds = min(nfds, 64)
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
		return Err(EFAULT)
	}
	var rdy, wdy uint64
	count := 0
	k.waitSet = k.waitSet[:0]
	for fd := 0; fd < nfds; fd++ {
		bit := uint64(1) << uint(fd)
		f := p.fd(fd)
		if (rq|wq)&bit == 0 || f == nil {
			continue
		}
		r := k.scan(f)
		if rq&bit != 0 && (r.in || r.hup) {
			rdy |= bit
			count++
		}
		if wq&bit != 0 && r.out {
			wdy |= bit
			count++
		}
	}
	if count == 0 {
		w, e := k.readTimeout(a.Ptr(3), 1_000)
		if e != OK {
			return Err(e)
		}
		if k.park(t, w) {
			return Err(EJUSTRETURN)
		}
	}
	if p := a.Ptr(0); p.Addr() != 0 {
		if e := k.writeUserWord(p, p.Addr(), 8, rdy); e != OK {
			return Err(e)
		}
	}
	if p := a.Ptr(1); p.Addr() != 0 {
		if e := k.writeUserWord(p, p.Addr(), 8, wdy); e != OK {
			return Err(e)
		}
	}
	return Ret(uint64(count))
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

// sysPoll implements poll(2) over the scan and park select and kevent
// share. The guest struct pollfd is {long fd; long events; long
// revents} — 24 bytes under both ABIs (MiniC int is 8 bytes, no
// pointers). A negative timeout blocks until a watched object
// transitions; a positive timeout is milliseconds on the virtual clock
// (the thread parks with a deadline and returns 0 when it fires first,
// and with none when the deadline does not fit; see timedWait); zero is
// a non-blocking scan. poll(0, 0, ms) is therefore a portable
// millisecond sleep, and poll(0, 0, -1) a park with no wake source,
// which the scheduler's deadlock detector reports.
func sysPoll(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	fds := a.Ptr(0)
	nfds := a.Int(0)
	timeout := int64(a.Int(1))
	if nfds > pollMax {
		return Err(EINVAL)
	}
	k.charge(nfds * CostSelectPerFD)
	count := uint64(0)
	k.waitSet = k.waitSet[:0]
	for i := uint64(0); i < nfds; i++ {
		base := fds.Addr() + i*24
		fdw, e1 := k.readUserWord(fds, base, 8)
		events, e2 := k.readUserWord(fds, base+8, 8)
		if e1 != OK || e2 != OK {
			return Err(EFAULT)
		}
		var revents uint64
		fd := int(int64(fdw))
		switch f := p.fd(fd); {
		case fd < 0:
			// Negative fds are ignored per POSIX (revents = 0).
		case f == nil:
			revents = PollNvalEv
		default:
			// The scan subscribes whatever the events bits ask for, since
			// a hang-up must wake a parked poller.
			r := k.scan(f)
			if events&PollInEv != 0 && r.in {
				revents |= PollInEv
			}
			if events&PollOutEv != 0 && r.out {
				revents |= PollOutEv
			}
			// POLLHUP — and POLLERR on writable descriptors, where the
			// hang-up means a write would raise EPIPE — are reported
			// unconditionally: POSIX says they are not maskable through
			// events.
			if r.hup {
				revents |= PollHupEv
				if f.mayWrite() {
					revents |= PollErrEv
				}
			}
		}
		if e := k.writeUserWord(fds, base+16, 8, revents); e != OK {
			return Err(e)
		}
		if revents != 0 {
			count++
		}
	}
	if count == 0 {
		w := wait{forever: true}
		if timeout >= 0 {
			w = k.timedWait(msToCycles(uint64(timeout)))
		}
		if k.park(t, w) {
			return Err(EJUSTRETURN)
		}
	}
	return Ret(count)
}

// sleepFor is the timed-sleep state machine nanosleep, sleep and usleep
// share. A fresh call has no deadline (the dispatcher cleared it when the
// previous syscall completed): it takes its length in cycles from delta
// (an errno fails the call, zero completes it at once), arms the deadline
// and parks. A restarted call completes at its deadline, or fails through
// intr, given the unslept balance in cycles, when a caught signal's
// handler ran during the park — sleeps are the one family that must NOT
// restart after a handler (BSD restart semantics explicitly exclude
// them). Any other wake is spurious: park again, same deadline.
func (k *Kernel) sleepFor(t *Thread, delta func() (uint64, Errno), intr func(left uint64) (cap.Capability, Errno)) (cap.Capability, Errno) {
	switch {
	case t.deadline == 0:
		d, e := delta()
		if e != OK {
			return Err(e)
		}
		if d == 0 {
			return Ret(0)
		}
		k.blockOnDeadline(t, k.Now()+d)
	case k.deadlineExpired(t):
		return Ret(0)
	case t.interrupted:
		var left uint64
		if t.deadline > k.Now() {
			left = t.deadline - k.Now()
		}
		return intr(left)
	default:
		k.blockOnDeadline(t, t.deadline)
	}
	return Err(EJUSTRETURN)
}

// writeTime writes ns nanoseconds through p as a two-word {sec, frac}
// struct, frac counting units of unitNs: a timespec for 1, a timeval for
// 1000.
func (k *Kernel) writeTime(p cap.Capability, ns, unitNs uint64) Errno {
	if e := k.writeUserWord(p, p.Addr(), 8, ns/1_000_000_000); e != OK {
		return e
	}
	return k.writeUserWord(p, p.Addr()+8, 8, ns%1_000_000_000/unitNs)
}

// readTime reads the two-word {sec, frac} struct p names, the inverse of
// writeTime: frac counts units of unitNs nanoseconds (1 for a timespec,
// 1000 for a timeval). A negative sec, or a frac outside one second, is
// EINVAL, as in FreeBSD's kern_select, kqueue_scan and nanosleep. It
// returns the length in cycles, saturating at math.MaxUint64.
func (k *Kernel) readTime(p cap.Capability, unitNs uint64) (uint64, Errno) {
	sec, e1 := k.readUserWord(p, p.Addr(), 8)
	frac, e2 := k.readUserWord(p, p.Addr()+8, 8)
	if e1 != OK || e2 != OK {
		return 0, EFAULT
	}
	if int64(sec) < 0 || frac >= 1_000_000_000/unitNs {
		return 0, EINVAL
	}
	fc := nsToCycles(frac * unitNs)
	if sec > (math.MaxUint64-fc)/ClockHz {
		return math.MaxUint64, OK
	}
	return sec*ClockHz + fc, OK
}

// readTimeout decodes the timeout of select or kevent: NULL waits
// forever; otherwise p names a {sec, frac} struct (see readTime) whose
// length becomes the wait (see timedWait).
func (k *Kernel) readTimeout(p cap.Capability, unitNs uint64) (wait, Errno) {
	if p.Addr() == 0 {
		return wait{forever: true}, OK
	}
	d, e := k.readTime(p, unitNs)
	if e != OK {
		return wait{}, e
	}
	return k.timedWait(d), OK
}

// timedWait is the wait a timeout of d cycles asks for: zero is a
// non-blocking scan, and a timeout whose deadline does not fit in 64
// bits (a saturated count among them) parks with no deadline, as FreeBSD
// treats a timeout it cannot represent, instead of wrapping to a short
// one.
func (k *Kernel) timedWait(d uint64) wait {
	if d >= math.MaxUint64-k.Now() {
		return wait{forever: true}
	}
	return wait{timed: d > 0, delta: d}
}

// maxSleep bounds a sleep, in cycles, so that a long one cannot wrap to
// a short one: FreeBSD's nanosleep sleeps at most INT32_MAX/2 seconds.
const maxSleep = math.MaxInt32 / 2 * ClockHz

// sysNanosleep sleeps for a timespec {sec, nsec} (see readTime) on the
// virtual clock, at most maxSleep. Interrupted by a caught signal, it
// returns EINTR with the remaining virtual time written through rem (when
// non-NULL).
func sysNanosleep(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	req, rem := a.Ptr(0), a.Ptr(1)
	return k.sleepFor(t, func() (uint64, Errno) {
		d, e := k.readTime(req, 1)
		return min(d, maxSleep), e
	}, func(left uint64) (cap.Capability, Errno) {
		if rem.Addr() != 0 {
			if e := k.writeTime(rem, cyclesToNs(left), 1); e != OK {
				return Err(e)
			}
		}
		return Err(EINTR)
	})
}

// sysSleep sleeps whole seconds, at most maxSleep; like libc sleep(3) it
// returns the number of unslept seconds when a caught signal cut it
// short, else 0.
func sysSleep(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return k.sleepFor(t, func() (uint64, Errno) { return min(a.Int(0), maxSleep/ClockHz) * ClockHz, OK },
		func(left uint64) (cap.Capability, Errno) { return Ret((left + ClockHz - 1) / ClockHz) })
}

// sysUsleep sleeps microseconds, at most maxSleep; EINTR when a caught
// signal interrupts.
func sysUsleep(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	return k.sleepFor(t, func() (uint64, Errno) { return usToCycles(min(a.Int(0), maxSleep/usToCycles(1))), OK },
		func(uint64) (cap.Capability, Errno) { return Err(EINTR) })
}

// sysClockGettime writes the virtual clock as a timespec {sec, nsec}.
// Every clock id reads the same clock: the cycle counter is the only
// time source the machine has, and it is monotonic by construction.
func sysClockGettime(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	if e := k.writeTime(a.Ptr(0), cyclesToNs(k.Now()), 1); e != OK {
		return Err(e)
	}
	return Ret(0)
}

// sysGettimeofday writes the virtual clock as a timeval {sec, usec}.
func sysGettimeofday(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	if e := k.writeTime(a.Ptr(0), cyclesToNs(k.Now()), 1_000); e != OK {
		return Err(e)
	}
	return Ret(0)
}

// sysFcntl implements F_GETFL/F_SETFL over the open-file description.
// O_NONBLOCK and O_APPEND are the settable status flags; because they
// live on the shared description, a mode change through one descriptor is
// observed by its dup(2)/fork(2) sharers, per POSIX.
func sysFcntl(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	f := p.fd(int(a.Int(0)))
	if f == nil {
		return Err(EBADF)
	}
	switch int(a.Int(1)) {
	case FGetFl:
		return Ret(uint64(f.flags & (OAccMode | fcntlSettable)))
	case FSetFl:
		f.flags = f.flags&^fcntlSettable | int(a.Int(2))&fcntlSettable
		return Ret(0)
	}
	return Err(EINVAL)
}

func sysSigaction(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	sig := int(a.Int(0))
	handler := a.Ptr(0)
	if sig <= 0 || sig >= NSig {
		return Err(EINVAL)
	}
	if handler.Addr() == 0 && !handler.Tag() {
		p.Sig[sig] = SigAction{}
	} else {
		// The handler descriptor pointer is stored in the kernel as a
		// capability for CheriABI processes.
		p.Sig[sig] = SigAction{Handler: handler, Set: true}
	}
	return Ret(0)
}

func sysSigprocmask(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
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
		return Err(EINVAL)
	}
	return Ret(old)
}

func sysGetcwd(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	buf := a.Ptr(0)
	length := a.Int(0)
	cwd := append([]byte(p.CWD), 0)
	if uint64(len(cwd)) > length {
		return Err(ERANGE)
	}
	// The copy is authorized by the *capability*, not the length argument:
	// an over-stated length cannot make the kernel overrun the buffer
	// under CheriABI (the BOdiagsuite getcwd cases).
	if e := k.copyOut(buf, cwd); e != OK {
		return Err(e)
	}
	return Ret(uint64(len(cwd)))
}

func sysChdir(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	path := a.Str(0)
	if path == "" || path[0] != '/' {
		path = p.CWD + "/" + path
	}
	n := k.FS.lookup(path)
	if n == nil || n.kind != nodeDir {
		return Err(ENOENT)
	}
	p.CWD = path
	return Ret(0)
}

func sysFstat(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	fd := int(a.Int(0))
	buf := a.Ptr(0)
	f := p.fd(fd)
	if f == nil {
		return Err(EBADF)
	}
	st := f.file.Stat()
	size, kind := uint64(st.Size), st.Kind
	if e := k.writeUserWord(buf, buf.Addr(), 8, size); e != OK {
		return Err(e)
	}
	if e := k.writeUserWord(buf, buf.Addr()+8, 8, kind); e != OK {
		return Err(e)
	}
	return Ret(0)
}

func sysUnlink(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	path := a.Str(0)
	if path == "" || path[0] != '/' {
		path = p.CWD + "/" + path
	}
	if err := k.FS.Remove(path); err != nil {
		return Err(ENOENT)
	}
	return Ret(0)
}
