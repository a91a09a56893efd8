package kernel

import (
	"encoding/binary"
	"sort"

	"cheriabi/internal/cap"
)

// The pluggable open-file layer. Every object a descriptor can name —
// regular vnodes, pipe ends, devices, kqueues, the console — implements
// the File interface, and the syscall layer dispatches through it
// uniformly: no payload-field or kind switches survive in syscalls.go.
// FDesc is only the per-open-file-description state (offset, open flags,
// reference count) that dup(2) and fork(2) share.
//
// Contract (see DESIGN.md, "The File interface"):
//
//   - File methods never block. Would-block conditions are expressed
//     through Poll; the syscall layer parks the thread with
//     Thread.block(Poll) and the syscall restarts on wake.
//   - All user-memory transfer is staged by the *caller* through
//     internal/uaccess (one capability check per transfer, page-run bulk
//     copies); File methods move bytes between kernel scratch buffers and
//     the object only.
//   - Read/Write operate at the descriptor cursor (f.off) and advance it
//     if the object is seekable; Pread/Pwrite are positional and leave
//     the cursor alone. Non-seekable objects return ESPIPE from the
//     positional forms and from Seek.
//   - Close is called exactly once, when the last descriptor reference
//     to the open-file description goes away.

// PollKind selects a readiness direction for Poll.
type PollKind int

// Poll directions. PollHup is not a direction but a condition: the
// object's far end is gone (pipe peer closed, socket peer disconnected).
// poll(2) reports it unconditionally as POLLHUP, select(2) folds it into
// the read set, kevent(2) flags EV_EOF; objects with no notion of a far
// end report false.
const (
	PollIn PollKind = iota
	PollOut
	PollHup
)

// FileStat is the fstat(2) payload: size and object kind.
type FileStat struct {
	Size int64
	Kind uint64
}

// Guest-visible object kinds reported in fstat's second word.
const (
	StatFile uint64 = iota
	StatDir
	StatDev
	StatPipe
	StatKqueue
	StatSock
)

// File is one open file object.
type File interface {
	// Read reads up to len(b) bytes at the descriptor cursor into b,
	// advancing the cursor for seekable objects. Returns 0, OK at EOF.
	Read(f *FDesc, b []byte) (int, Errno)
	// Write writes b at the descriptor cursor (honouring OAppend),
	// returning the bytes accepted — pipes may accept a short count. b
	// is the kernel's staging buffer: copy what you keep, never retain b.
	Write(f *FDesc, b []byte) (int, Errno)
	// Pread reads up to len(b) bytes at offset off, cursor untouched.
	Pread(b []byte, off int64) (int, Errno)
	// Pwrite writes b at offset off, cursor untouched. As for Write, b
	// must not be retained.
	Pwrite(b []byte, off int64) (int, Errno)
	// Seek repositions the descriptor cursor and returns it.
	Seek(f *FDesc, off int64, whence int) (int64, Errno)
	// Truncate sets the object's size.
	Truncate(size int64) Errno
	// Ioctl handles object-specific control requests; argp transfers go
	// through the caller-provided kernel's uaccess engine.
	Ioctl(k *Kernel, t *Thread, f *FDesc, cmd uint64, argp cap.Capability) Errno
	// Poll reports whether a transfer in the given direction would make
	// progress without blocking (including "progress" that is an error
	// return, e.g. EOF or EPIPE).
	Poll(kind PollKind) bool
	// Queue returns the wait queue woken when the object's readiness may
	// have changed, or nil for always-ready objects. Any File whose Poll
	// can return false must supply a queue — it is what ends the sleep of
	// a thread parked by the syscall layer.
	Queue() *WaitQueue
	// Close releases the object; called once, at the last descriptor ref.
	// Implementations wake the queues of peers that can observe the close
	// (a pipe's other end sees EOF/EPIPE, a connected socket's peer sees
	// EOF, a listener's pending connectors see ECONNREFUSED).
	Close(k *Kernel)
	// Stat reports size and kind.
	Stat() FileStat
}

// pollDepther is implemented by files that can quantify a readiness
// signal: how much is behind a true Poll. kevent reports it in the
// returned event's data field, matching kqueue(2): bytes readable in a
// pipe or socket buffer, write space available, or — on a listening
// socket — the pending-connection backlog depth.
type pollDepther interface {
	PollDepth(kind PollKind) int64
}

// pollDepth returns f's readiness depth, or 0 for files that report
// readiness without a quantity.
func pollDepth(f File, kind PollKind) int64 {
	if d, ok := f.(pollDepther); ok {
		return d.PollDepth(kind)
	}
	return 0
}

// baseFile supplies stream-object defaults: unreadable/unwritable until
// overridden, unseekable, no ioctls, always ready, nothing to release.
type baseFile struct{}

func (baseFile) Read(*FDesc, []byte) (int, Errno)  { return 0, EBADF }
func (baseFile) Write(*FDesc, []byte) (int, Errno) { return 0, EBADF }
func (baseFile) Pread([]byte, int64) (int, Errno)  { return 0, ESPIPE }
func (baseFile) Pwrite([]byte, int64) (int, Errno) { return 0, ESPIPE }
func (baseFile) Seek(*FDesc, int64, int) (int64, Errno) {
	return 0, ESPIPE
}
func (baseFile) Truncate(int64) Errno { return EINVAL }
func (baseFile) Ioctl(*Kernel, *Thread, *FDesc, uint64, cap.Capability) Errno {
	return ENOTTY
}
func (baseFile) Poll(kind PollKind) bool { return kind != PollHup }
func (baseFile) Queue() *WaitQueue       { return nil }
func (baseFile) Close(*Kernel)           {}

// ---- regular files ----

// vnodeFile is an open regular file backed by an fsNode.
type vnodeFile struct {
	baseFile
	node *fsNode
}

func (v *vnodeFile) Read(f *FDesc, b []byte) (int, Errno) {
	n, e := v.Pread(b, f.off)
	f.off += int64(n)
	return n, e
}

func (v *vnodeFile) Pread(b []byte, off int64) (int, Errno) {
	if off < 0 {
		return 0, EINVAL
	}
	if off >= int64(len(v.node.data)) {
		return 0, OK // EOF
	}
	return copy(b, v.node.data[off:]), OK
}

func (v *vnodeFile) Write(f *FDesc, b []byte) (int, Errno) {
	if f.flags&OAppend != 0 {
		f.off = int64(len(v.node.data))
	}
	n, e := v.Pwrite(b, f.off)
	f.off += int64(n)
	return n, e
}

// vnodeMaxBytes bounds a regular file's size. Guest-chosen offsets reach
// grow() directly through ftruncate(2), pwrite(2), and lseek+write, so
// an unbounded value would be an unbounded *host* allocation (or an
// integer-overflowed slice bound) — a file-size limit is the kernel's
// classic answer, surfaced as EFBIG.
const vnodeMaxBytes = 1 << 30

// grow extends the backing data with zeros up to end (one allocation;
// callers have already bounds-checked end against vnodeMaxBytes).
func (v *vnodeFile) grow(end int64) {
	if n := end - int64(len(v.node.data)); n > 0 {
		v.node.data = append(v.node.data, make([]byte, n)...)
	}
}

func (v *vnodeFile) Pwrite(b []byte, off int64) (int, Errno) {
	if off < 0 {
		return 0, EINVAL
	}
	if off > vnodeMaxBytes-int64(len(b)) {
		return 0, EFBIG
	}
	end := off + int64(len(b))
	v.grow(end)
	copy(v.node.data[off:end], b)
	return len(b), OK
}

func (v *vnodeFile) Seek(f *FDesc, off int64, whence int) (int64, Errno) {
	var pos int64
	switch whence {
	case 0:
		pos = off
	case 1:
		pos = f.off + off
	case 2:
		pos = int64(len(v.node.data)) + off
	default:
		return 0, EINVAL
	}
	if pos < 0 {
		return 0, EINVAL // the cursor stays where it was
	}
	f.off = pos
	return pos, OK
}

func (v *vnodeFile) Truncate(size int64) Errno {
	if size < 0 {
		return EINVAL
	}
	if size > vnodeMaxBytes {
		return EFBIG
	}
	v.grow(size)
	v.node.data = v.node.data[:size]
	return OK
}

func (v *vnodeFile) Stat() FileStat {
	return FileStat{Size: int64(len(v.node.data)), Kind: StatFile}
}

// direntSize is the fixed size of one guest-visible directory record:
// an 8-byte kind word (StatFile/StatDir/StatDev) followed by a
// NUL-terminated name, padded to the record size. A fixed stride keeps
// guest iteration trivial and the layout identical under both ABIs.
const direntSize = 64

// dirFile is an open directory (O_RDONLY only). Read and Pread serve a
// stream of fixed-size dirent records — getdents(2) is read(2) on a
// directory descriptor — snapshotted in sorted name order at open time,
// so iteration is deterministic and stable against concurrent
// creates/unlinks. Writes fail EISDIR.
type dirFile struct {
	baseFile
	ents []byte
}

// newDirFile snapshots n's children as encoded dirent records.
func newDirFile(n *fsNode) *dirFile {
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	d := &dirFile{ents: make([]byte, 0, len(names)*direntSize)}
	for _, name := range names {
		var rec [direntSize]byte
		kind := StatFile
		switch n.children[name].kind {
		case nodeDir:
			kind = StatDir
		case nodeDev:
			kind = StatDev
		}
		binary.LittleEndian.PutUint64(rec[0:], kind)
		copy(rec[8:direntSize-1], name) // longer names are truncated, NUL kept
		d.ents = append(d.ents, rec[:]...)
	}
	return d
}

func (d *dirFile) Read(f *FDesc, b []byte) (int, Errno) {
	n, e := d.Pread(b, f.off)
	f.off += int64(n)
	return n, e
}

func (d *dirFile) Pread(b []byte, off int64) (int, Errno) {
	if off < 0 {
		return 0, EINVAL
	}
	if off >= int64(len(d.ents)) {
		return 0, OK // end of directory
	}
	return copy(b, d.ents[off:]), OK
}

func (d *dirFile) Seek(f *FDesc, off int64, whence int) (int64, Errno) {
	var pos int64
	switch whence {
	case 0:
		pos = off
	case 1:
		pos = f.off + off
	case 2:
		pos = int64(len(d.ents)) + off
	default:
		return 0, EINVAL
	}
	if pos < 0 {
		return 0, EINVAL
	}
	f.off = pos // lseek(fd, 0, 0) is rewinddir
	return pos, OK
}

func (d *dirFile) Write(*FDesc, []byte) (int, Errno) { return 0, EISDIR }
func (d *dirFile) Pwrite([]byte, int64) (int, Errno) { return 0, EISDIR }
func (d *dirFile) Stat() FileStat {
	return FileStat{Size: int64(len(d.ents)), Kind: StatDir}
}

// ---- pipes ----

// pipe is the shared unidirectional byte channel between two pipeFiles.
// One wait queue serves both ends: a write wakes parked readers, a read
// (space freed) wakes parked writers, and closing either end wakes the
// other (EOF / EPIPE are "progress"). A reader and a writer can never be
// parked for mutually exclusive reasons at once, so sharing one queue
// costs only harmless re-parks.
type pipe struct {
	buf     []byte
	readers int
	writers int
	q       WaitQueue
}

const pipeCap = 64 << 10

// pipeFile is one end of a pipe. Poll is end-agnostic (matching select's
// historical behaviour here); the access mode on the descriptor is what
// stops reads on the write end and vice versa.
type pipeFile struct {
	baseFile
	pip      *pipe
	writeEnd bool
}

func (pf *pipeFile) Read(f *FDesc, b []byte) (int, Errno) {
	if pf.writeEnd {
		return 0, EBADF
	}
	if len(pf.pip.buf) == 0 {
		return 0, OK // writers gone: EOF (Poll gates the blocking case)
	}
	var n int
	pf.pip.buf, n = queueRead(pf.pip.buf, b)
	return n, OK
}

func (pf *pipeFile) Write(f *FDesc, b []byte) (int, Errno) {
	if !pf.writeEnd {
		return 0, EBADF
	}
	if pf.pip.readers == 0 {
		return 0, EPIPE
	}
	n := len(b)
	if space := pipeCap - len(pf.pip.buf); n > space {
		n = space
	}
	pf.pip.buf = queueWrite(pf.pip.buf, b[:n], pipeCap)
	return n, OK
}

func (pf *pipeFile) Poll(kind PollKind) bool {
	switch kind {
	case PollIn:
		return len(pf.pip.buf) > 0 || pf.pip.writers == 0
	case PollOut:
		return len(pf.pip.buf) < pipeCap || pf.pip.readers == 0
	default: // PollHup: the far end of this descriptor's direction is gone
		if pf.writeEnd {
			return pf.pip.readers == 0
		}
		return pf.pip.writers == 0
	}
}

// PollDepth: bytes buffered for readers, space available for writers.
func (pf *pipeFile) PollDepth(kind PollKind) int64 {
	if kind == PollIn {
		return int64(len(pf.pip.buf))
	}
	return int64(pipeCap - len(pf.pip.buf))
}

func (pf *pipeFile) Queue() *WaitQueue { return &pf.pip.q }

func (pf *pipeFile) Close(k *Kernel) {
	if pf.writeEnd {
		pf.pip.writers--
	} else {
		pf.pip.readers--
	}
	pf.pip.q.Wake(k) // the surviving end observes EOF or EPIPE
}

func (pf *pipeFile) Stat() FileStat {
	return FileStat{Size: int64(len(pf.pip.buf)), Kind: StatPipe}
}

// ---- devices ----

// ttyFile is the console device: writes land in the owning process's
// Stdout (and the machine console); reads report EOF.
type ttyFile struct {
	baseFile
	k       *Kernel
	console *Proc
}

func (tf *ttyFile) Read(*FDesc, []byte) (int, Errno) { return 0, OK }

func (tf *ttyFile) Write(f *FDesc, b []byte) (int, Errno) {
	tf.console.Stdout.Write(b)
	if tf.k.Console != nil {
		tf.k.Console.Write(b)
	}
	return len(b), OK
}

func (tf *ttyFile) Ioctl(k *Kernel, t *Thread, f *FDesc, cmd uint64, argp cap.Capability) Errno {
	if cmd != IoctlTIOCGWINSZ {
		return ENOTTY
	}
	var ws [8]byte
	binary.LittleEndian.PutUint16(ws[0:], 24)
	binary.LittleEndian.PutUint16(ws[2:], 80)
	return k.copyOut(argp, ws[:])
}

func (tf *ttyFile) Stat() FileStat { return FileStat{Kind: StatDev} }

// nullFile is /dev/null: reads are EOF, writes vanish.
type nullFile struct{ baseFile }

func (nullFile) Read(*FDesc, []byte) (int, Errno)      { return 0, OK }
func (nullFile) Pread([]byte, int64) (int, Errno)      { return 0, OK }
func (nullFile) Write(f *FDesc, b []byte) (int, Errno) { return len(b), OK }
func (nullFile) Pwrite(b []byte, off int64) (int, Errno) {
	return len(b), OK
}
func (nullFile) Stat() FileStat { return FileStat{Kind: StatDev} }

// zeroFile is /dev/zero: reads supply zeros, writes vanish.
type zeroFile struct{ baseFile }

func (zeroFile) Read(f *FDesc, b []byte) (int, Errno) {
	for i := range b {
		b[i] = 0
	}
	return len(b), OK
}
func (z zeroFile) Pread(b []byte, off int64) (int, Errno) { return z.Read(nil, b) }
func (zeroFile) Write(f *FDesc, b []byte) (int, Errno)    { return len(b), OK }
func (zeroFile) Pwrite(b []byte, off int64) (int, Errno)  { return len(b), OK }
func (zeroFile) Stat() FileStat                           { return FileStat{Kind: StatDev} }

// urandomFile is /dev/urandom: a per-boot-seed deterministic xorshift
// stream (differential runs replay the same syscall sequence, so runs
// with equal seeds stay bit-identical). Writes "add entropy" — accepted
// and ignored, like the real device.
type urandomFile struct {
	baseFile
	k *Kernel
}

func (uf *urandomFile) Read(f *FDesc, b []byte) (int, Errno) {
	uf.k.urandomBytes(b)
	return len(b), OK
}
func (uf *urandomFile) Pread(b []byte, off int64) (int, Errno) {
	return uf.Read(nil, b)
}
func (uf *urandomFile) Write(f *FDesc, b []byte) (int, Errno)   { return len(b), OK }
func (uf *urandomFile) Pwrite(b []byte, off int64) (int, Errno) { return len(b), OK }
func (uf *urandomFile) Stat() FileStat                          { return FileStat{Kind: StatDev} }

// ---- kqueues ----

// kqueueFile wraps a kqueue so its descriptor flows through the same
// layer; data transfers on it fail EBADF (baseFile), kevent(2) reaches
// the kq through Proc.kqs.
type kqueueFile struct {
	baseFile
	kq *kqueue
}

func (kf *kqueueFile) Stat() FileStat { return FileStat{Kind: StatKqueue} }
