package kernel

import (
	"fmt"
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/nat"
)

// The edges of descriptor I/O, pinned per File kind: for each read-side
// and write-side call, the result or errno, the cursor, the simulated
// cycles the call charges, and its side effects (a raised SIGPIPE, a wake
// of a thread parked on the object, emitted packets). Every row runs on a
// fresh machine under both ABIs, through the syscall dispatcher.

// badPtr is an untagged pointer below user space: no store or load
// through it passes a capability check under either ABI.
var badPtr = cap.NullWithAddr(16)

// ioKinds builds each File kind on h and returns it with the open flags
// its descriptor gets.
var ioKinds = map[string]func(h *ioProc) (File, int){
	// "hello world", 11 bytes.
	"file": func(h *ioProc) (File, int) {
		h.k.FS.WriteFile("/f", []byte("hello world"))
		return &vnodeFile{node: h.k.FS.lookup("/f")}, ORdWr
	},
	// Two entries: 128 bytes of dirents.
	"dir": func(h *ioProc) (File, int) {
		h.k.FS.Mkdir("/d/sub")
		h.k.FS.WriteFile("/d/a", nil)
		return newDirFile(h.k.FS.lookup("/d")), ORdOnly
	},
	// The read end of a pipe holding "ping", writer open.
	"pipe-r": func(h *ioProc) (File, int) {
		return &pipeFile{pip: &pipe{buf: []byte("ping"), readers: 1, writers: 1}}, ORdOnly
	},
	// The read end of an empty pipe, writer open.
	"pipe-r-empty": func(h *ioProc) (File, int) {
		return &pipeFile{pip: &pipe{readers: 1, writers: 1}}, ORdOnly
	},
	// The write end of an empty pipe, reader open.
	"pipe-w": func(h *ioProc) (File, int) {
		return &pipeFile{pip: &pipe{readers: 1, writers: 1}, writeEnd: true}, OWrOnly
	},
	// The write end of a full pipe.
	"pipe-w-full": func(h *ioProc) (File, int) {
		return &pipeFile{pip: &pipe{buf: make([]byte, pipeCap), readers: 1, writers: 1}, writeEnd: true}, OWrOnly
	},
	// The write end of a pipe whose reader closed.
	"pipe-w-eof": func(h *ioProc) (File, int) {
		return &pipeFile{pip: &pipe{writers: 1}, writeEnd: true}, OWrOnly
	},
	// A connected AF_UNIX endpoint with "ping" to receive.
	"unix": func(h *ioProc) (File, int) {
		s, peer := h.k.socketPair()
		peer.Write([]byte("ping"), 0)
		return s, ORdWr
	},
	// A connected AF_UNIX endpoint with nothing to receive.
	"unix-empty": func(h *ioProc) (File, int) {
		s, _ := h.k.socketPair()
		return s, ORdWr
	},
	// A fresh socket: neither connected nor listening.
	"sock-new": func(h *ioProc) (File, int) {
		return newSocketFile(h.k, AFUnix), ORdWr
	},
	// A connected AF_INET endpoint with "ping" to receive, on a machine
	// whose NIC queues what the endpoint emits.
	"inet": func(h *ioProc) (File, int) {
		h.k.AttachNIC(5)
		s := newSocketFile(h.k, AFInet)
		s.state, s.recv = sockConnected, []byte("ping")
		s.peerAddr = 6
		return s, ORdWr
	},
	"tty": func(h *ioProc) (File, int) {
		return &ttyFile{k: h.k, console: h.th.Proc}, ORdWr
	},
	"null":    func(h *ioProc) (File, int) { return nullFile{}, ORdWr },
	"zero":    func(h *ioProc) (File, int) { return zeroFile{}, ORdWr },
	"urandom": func(h *ioProc) (File, int) { return &urandomFile{k: h.k}, ORdWr },
	"kqueue":  func(h *ioProc) (File, int) { return &kqueueFile{}, ORdWr },
}

// ioCall is one syscall on the row's descriptor.
type ioCall struct {
	name string
	do   func(h *ioProc, fd uint64) (uint64, Errno)
}

// buf is h.buf, or badPtr when bad.
func (h *ioProc) bufOr(bad bool) cap.Capability {
	if bad {
		return badPtr
	}
	return h.buf
}

func badSuffix(bad bool) string {
	if bad {
		return ",bad"
	}
	return ""
}

// xfer is read, write or getdents(fd, buf, n), or recv or send(fd, buf,
// n, 0).
func xfer(num int, n uint64, bad bool) ioCall {
	return ioCall{fmt.Sprintf("%s(%d%s)", nat.Syscalls[num].Name, n, badSuffix(bad)), func(h *ioProc, fd uint64) (uint64, Errno) {
		ints := []uint64{fd, n}
		if num == nat.SysRecv || num == nat.SysSend {
			ints = append(ints, 0)
		}
		return h.call(num, ints, []cap.Capability{h.bufOr(bad)})
	}}
}

// at is pread or pwrite(fd, buf, n, off).
func at(num int, n uint64, off int64, bad bool) ioCall {
	return ioCall{fmt.Sprintf("%s(%d@%d%s)", nat.Syscalls[num].Name, n, off, badSuffix(bad)), func(h *ioProc, fd uint64) (uint64, Errno) {
		return h.call(num, []uint64{fd, n, uint64(off)}, []cap.Capability{h.bufOr(bad)})
	}}
}

// vec is readv or writev(fd, h.iov, cnt).
func vec(num int, cnt uint64) ioCall {
	return ioCall{fmt.Sprintf("%s(%d)", nat.Syscalls[num].Name, cnt), func(h *ioProc, fd uint64) (uint64, Errno) {
		return h.call(num, []uint64{fd, cnt}, []cap.Capability{h.iov})
	}}
}

// seek is lseek(fd, off, whence).
func seek(off int64, whence uint64) ioCall {
	return ioCall{fmt.Sprintf("lseek(%d,%d)", off, whence), func(h *ioProc, fd uint64) (uint64, Errno) {
		return h.call(nat.SysLseek, []uint64{fd, uint64(off), whence}, nil)
	}}
}

// setIov rewrites h's two iovec entries: lengths l0 and l1, each over
// its half of h.buf, the second based at badPtr when bad.
func (h *ioProc) setIov(t *testing.T, l0, l1 uint64, bad bool) {
	c := h.k.M.CPU
	stride := h.k.ptrStride(h.th.Proc)
	for i, l := range []uint64{l0, l1} {
		entry := h.iov.Addr() + 2*uint64(i)*stride
		base := cap.IncAddr(h.buf, int64(i)*ioAllocLen/2)
		if i == 1 && bad {
			base = badPtr
		}
		var err error
		if h.th.Proc.ABI == image.ABICheri {
			err = c.StoreCapVia(h.iov, entry, base)
		} else {
			err = c.StoreVia(h.iov, entry, 8, base.Addr())
		}
		if err == nil {
			err = c.StoreVia(h.iov, entry+stride, 8, l)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// ioEdge is one row: a call on a File kind, with optional preparation
// (extra open flags, a moved cursor, rewritten iovecs), the outcome
// ("n=<result>", "parked" or the errno, then the cursor and any side
// effects), the outcome under the legacy ABI where it differs, and the
// cycles charged under the legacy ABI and CheriABI.
type ioEdge struct {
	kind   string
	call   ioCall
	prep   func(t *testing.T, h *ioProc, f *FDesc)
	want   string
	legacy string
	cycles [2]uint64
}

func flags(fl int) func(*testing.T, *ioProc, *FDesc) {
	return func(_ *testing.T, _ *ioProc, f *FDesc) { f.flags |= fl }
}

func mode(acc int) func(*testing.T, *ioProc, *FDesc) {
	return func(_ *testing.T, _ *ioProc, f *FDesc) { f.flags = f.flags&^OAccMode | acc }
}

func cursor(off int64) func(*testing.T, *ioProc, *FDesc) {
	return func(_ *testing.T, _ *ioProc, f *FDesc) { f.off = off }
}

func iov(l0, l1 uint64, bad bool) func(*testing.T, *ioProc, *FDesc) {
	return func(t *testing.T, h *ioProc, _ *FDesc) { h.setIov(t, l0, l1, bad) }
}

var (
	read     = func(n uint64) ioCall { return xfer(nat.SysRead, n, false) }
	write    = func(n uint64) ioCall { return xfer(nat.SysWrite, n, false) }
	recv     = func(n uint64) ioCall { return xfer(nat.SysRecv, n, false) }
	send     = func(n uint64) ioCall { return xfer(nat.SysSend, n, false) }
	getdents = func(n uint64) ioCall { return xfer(nat.SysGetdents, n, false) }
	pread    = func(n uint64, off int64) ioCall { return at(nat.SysPread, n, off, false) }
	pwrite   = func(n uint64, off int64) ioCall { return at(nat.SysPwrite, n, off, false) }
	readv    = func(cnt uint64) ioCall { return vec(nat.SysReadv, cnt) }
	writev   = func(cnt uint64) ioCall { return vec(nat.SysWritev, cnt) }
)

var ioEdges = []ioEdge{
	// Regular files: the cursor, O_APPEND, offsets and clamps.
	{kind: "file", call: read(5), want: "n=5 off=5", cycles: [2]uint64{235, 186}},
	{kind: "file", call: read(0), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: read(256), prep: cursor(8), want: "n=3 off=11", cycles: [2]uint64{235, 186}},
	{kind: "file", call: read(256), prep: cursor(11), want: "n=0 off=11", cycles: [2]uint64{175, 126}},
	{kind: "file", call: read(256), prep: cursor(50), want: "n=0 off=50", cycles: [2]uint64{175, 126}},
	{kind: "file", call: xfer(nat.SysRead, 5, true), want: "EFAULT off=0", legacy: "EFAULT off=5", cycles: [2]uint64{175, 126}},
	{kind: "file", call: read(5), prep: mode(OWrOnly), want: "EBADF off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: readv(2), want: "n=11 off=11", cycles: [2]uint64{292, 188}},
	{kind: "file", call: readv(2), prep: iov(0, 128, false), want: "n=11 off=11", cycles: [2]uint64{349, 190}},
	{kind: "file", call: readv(0), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: readv(17), want: "EINVAL off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: readv(17), prep: mode(OWrOnly), want: "EBADF off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: vec(nat.SysReadv, 1), prep: func(t *testing.T, h *ioProc, f *FDesc) { h.iov = badPtr }, want: "EFAULT off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: readv(2), prep: func(t *testing.T, h *ioProc, f *FDesc) {
		f.file.(*vnodeFile).node.data = make([]byte, 200)
		h.setIov(t, 128, 128, true)
	}, want: "n=128 off=128", legacy: "n=128 off=200", cycles: [2]uint64{409, 250}},
	{kind: "file", call: pread(5, 6), prep: cursor(2), want: "n=5 off=2", cycles: [2]uint64{235, 186}},
	{kind: "file", call: pread(256, 0), want: "n=11 off=0", cycles: [2]uint64{235, 186}},
	{kind: "file", call: pread(8, 100), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: pread(5, -1), want: "EINVAL off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: at(nat.SysPread, 5, 0, true), want: "EFAULT off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: getdents(64), want: "ENOTDIR off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: recv(5), want: "ENOTSOCK off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: write(5), want: "n=5 off=5", cycles: [2]uint64{235, 186}},
	{kind: "file", call: write(0), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: write(5), prep: flags(OAppend), want: "n=5 off=16", cycles: [2]uint64{235, 186}},
	{kind: "file", call: write(5), prep: cursor(20), want: "n=5 off=25", cycles: [2]uint64{235, 186}},
	{kind: "file", call: xfer(nat.SysWrite, 5, true), want: "EFAULT off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: write(5), prep: mode(ORdOnly), want: "EBADF off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: write(5), prep: cursor(vnodeMaxBytes), want: "EFBIG off=1073741824", cycles: [2]uint64{235, 186}},
	{kind: "file", call: writev(2), want: "n=256 off=256", cycles: [2]uint64{529, 370}},
	{kind: "file", call: writev(2), prep: flags(OAppend), want: "n=256 off=267", cycles: [2]uint64{529, 370}},
	{kind: "file", call: writev(2), prep: iov(0, 128, false), want: "n=128 off=128", cycles: [2]uint64{409, 250}},
	{kind: "file", call: writev(2), prep: iov(128, 128, true), want: "n=128 off=128", cycles: [2]uint64{409, 250}},
	{kind: "file", call: writev(17), want: "EINVAL off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: pwrite(5, 20), prep: cursor(3), want: "n=5 off=3", cycles: [2]uint64{235, 186}},
	{kind: "file", call: pwrite(5, 0), prep: flags(OAppend), want: "n=5 off=0", cycles: [2]uint64{235, 186}},
	{kind: "file", call: pwrite(5, -1), want: "EINVAL off=0", cycles: [2]uint64{235, 186}},
	{kind: "file", call: pwrite(5, vnodeMaxBytes), want: "EFBIG off=0", cycles: [2]uint64{235, 186}},
	{kind: "file", call: at(nat.SysPwrite, 5, 0, true), want: "EFAULT off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: send(5), want: "ENOTSOCK off=0", cycles: [2]uint64{175, 126}},
	{kind: "file", call: seek(0, 2), want: "n=11 off=11", cycles: [2]uint64{120, 120}},
	{kind: "file", call: seek(2, 1), prep: cursor(3), want: "n=5 off=5", cycles: [2]uint64{120, 120}},
	{kind: "file", call: seek(40, 0), want: "n=40 off=40", cycles: [2]uint64{120, 120}},
	{kind: "file", call: seek(-1, 0), prep: cursor(3), want: "EINVAL off=3", cycles: [2]uint64{120, 120}},
	{kind: "file", call: seek(-4, 1), prep: cursor(3), want: "EINVAL off=3", cycles: [2]uint64{120, 120}},
	{kind: "file", call: seek(-12, 2), prep: cursor(3), want: "EINVAL off=3", cycles: [2]uint64{120, 120}},
	{kind: "file", call: seek(0, 3), prep: cursor(3), want: "EINVAL off=3", cycles: [2]uint64{120, 120}},

	// Directories: getdents is read over the dirent stream.
	{kind: "dir", call: getdents(64), want: "n=64 off=64", cycles: [2]uint64{235, 186}},
	{kind: "dir", call: getdents(256), prep: cursor(64), want: "n=64 off=128", cycles: [2]uint64{235, 186}},
	{kind: "dir", call: getdents(0), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "dir", call: read(256), want: "n=128 off=128", cycles: [2]uint64{295, 246}},
	{kind: "dir", call: readv(2), want: "n=128 off=128", cycles: [2]uint64{409, 250}},
	{kind: "dir", call: pread(64, 64), want: "n=64 off=0", cycles: [2]uint64{235, 186}},
	{kind: "dir", call: pread(64, -1), want: "EINVAL off=0", cycles: [2]uint64{175, 126}},
	{kind: "dir", call: write(5), want: "EBADF off=0", cycles: [2]uint64{175, 126}},
	{kind: "dir", call: seek(0, 2), want: "n=128 off=128", cycles: [2]uint64{120, 120}},
	{kind: "dir", call: seek(0, 0), prep: cursor(64), want: "n=0 off=0", cycles: [2]uint64{120, 120}},

	// Pipes: the readiness gate, ESPIPE (decided before any guest memory
	// is touched), SIGPIPE and wakes.
	{kind: "pipe-r", call: read(256), want: "n=4 off=0 wake", cycles: [2]uint64{235, 186}},
	{kind: "pipe-r", call: read(2), want: "n=2 off=0 wake", cycles: [2]uint64{235, 186}},
	{kind: "pipe-r", call: read(0), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r", call: readv(2), want: "n=4 off=0 wake", cycles: [2]uint64{292, 188}},
	{kind: "pipe-r", call: readv(2), prep: iov(0, 128, false), want: "n=4 off=0 wake", cycles: [2]uint64{349, 190}},
	{kind: "pipe-r", call: xfer(nat.SysRead, 4, true), want: "EFAULT off=0", legacy: "EFAULT off=0 wake", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r", call: pread(4, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r", call: at(nat.SysPread, 4, 0, true), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r", call: getdents(64), want: "ENOTDIR off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r", call: seek(0, 0), want: "ESPIPE off=0", cycles: [2]uint64{120, 120}},
	{kind: "pipe-r", call: write(4), want: "EBADF off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r-empty", call: read(4), want: "parked off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r-empty", call: read(0), want: "parked off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r-empty", call: read(4), prep: flags(ONonblock), want: "EAGAIN off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r-empty", call: readv(2), want: "parked off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r-empty", call: readv(17), want: "EINVAL off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-r-empty", call: pread(4, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w", call: write(5), want: "n=5 off=0 wake", cycles: [2]uint64{235, 186}},
	{kind: "pipe-w", call: write(0), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w", call: write(5), prep: flags(OAppend), want: "n=5 off=0 wake", cycles: [2]uint64{235, 186}},
	{kind: "pipe-w", call: writev(2), want: "n=256 off=0 wake", cycles: [2]uint64{529, 370}},
	{kind: "pipe-w", call: pwrite(5, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w", call: at(nat.SysPwrite, 5, 0, true), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w", call: read(4), want: "EBADF off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w-full", call: write(5), want: "parked off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w-full", call: write(5), prep: flags(ONonblock), want: "EAGAIN off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w-full", call: writev(2), prep: flags(ONonblock), want: "EAGAIN off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w-full", call: writev(17), want: "EINVAL off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w-full", call: pwrite(5, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w-eof", call: write(5), want: "EPIPE off=0 sigpipe", cycles: [2]uint64{235, 186}},
	{kind: "pipe-w-eof", call: write(0), want: "EPIPE off=0 sigpipe", cycles: [2]uint64{175, 126}},
	{kind: "pipe-w-eof", call: writev(2), want: "EPIPE off=0 sigpipe", cycles: [2]uint64{352, 248}},
	{kind: "pipe-w-eof", call: writev(2), prep: iov(0, 0, false), want: "n=0 off=0", cycles: [2]uint64{289, 130}},
	{kind: "pipe-w-eof", call: pwrite(5, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},

	// AF_UNIX sockets.
	{kind: "unix", call: recv(256), want: "n=4 off=0 wake", cycles: [2]uint64{235, 186}},
	{kind: "unix", call: read(256), want: "n=4 off=0 wake", cycles: [2]uint64{235, 186}},
	{kind: "unix", call: readv(2), want: "n=4 off=0 wake", cycles: [2]uint64{292, 188}},
	{kind: "unix", call: send(256), want: "n=256 off=0 wake", cycles: [2]uint64{415, 366}},
	{kind: "unix", call: writev(2), want: "n=256 off=0 wake", cycles: [2]uint64{529, 370}},
	{kind: "unix", call: pread(4, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "unix", call: pwrite(4, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "unix", call: seek(0, 0), want: "ESPIPE off=0", cycles: [2]uint64{120, 120}},
	{kind: "unix", call: getdents(64), want: "ENOTDIR off=0", cycles: [2]uint64{175, 126}},
	{kind: "unix-empty", call: recv(4), want: "parked off=0", cycles: [2]uint64{175, 126}},
	{kind: "unix-empty", call: read(0), want: "parked off=0", cycles: [2]uint64{175, 126}},
	{kind: "unix-empty", call: recv(4), prep: flags(ONonblock), want: "EAGAIN off=0", cycles: [2]uint64{175, 126}},

	// Unconnected sockets: read(fd, buf, 0) reaches the object, readv
	// skips an empty segment.
	{kind: "sock-new", call: read(0), want: "ENOTCONN off=0", cycles: [2]uint64{175, 126}},
	{kind: "sock-new", call: recv(4), want: "ENOTCONN off=0", cycles: [2]uint64{175, 126}},
	{kind: "sock-new", call: readv(2), want: "ENOTCONN off=0", cycles: [2]uint64{232, 128}},
	{kind: "sock-new", call: readv(2), prep: iov(0, 0, false), want: "n=0 off=0", cycles: [2]uint64{289, 130}},
	{kind: "sock-new", call: write(0), want: "ENOTCONN off=0", cycles: [2]uint64{175, 126}},
	{kind: "sock-new", call: send(4), want: "ENOTCONN off=0", cycles: [2]uint64{235, 186}},
	{kind: "sock-new", call: writev(2), prep: iov(0, 0, false), want: "n=0 off=0", cycles: [2]uint64{289, 130}},
	{kind: "sock-new", call: pread(4, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},

	// AF_INET: a transfer that moves bytes emits a packet; an empty one
	// emits none.
	{kind: "inet", call: read(0), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "inet", call: read(256), want: "n=4 off=0 wake pkt=ack:4", cycles: [2]uint64{235, 186}},
	{kind: "inet", call: readv(2), prep: iov(0, 128, false), want: "n=4 off=0 wake pkt=ack:4", cycles: [2]uint64{349, 190}},
	{kind: "inet", call: write(0), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "inet", call: send(5), want: "n=5 off=0 wake pkt=data:5", cycles: [2]uint64{235, 186}},
	{kind: "inet", call: writev(2), want: "n=256 off=0 wake pkt=data:128 pkt=data:128", cycles: [2]uint64{529, 370}},
	{kind: "inet", call: pwrite(5, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},

	// The console: a stream device.
	{kind: "tty", call: read(4), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "tty", call: write(5), want: "n=5 off=0", cycles: [2]uint64{235, 186}},
	{kind: "tty", call: writev(2), want: "n=256 off=0", cycles: [2]uint64{529, 370}},
	{kind: "tty", call: pread(4, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "tty", call: pwrite(5, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "tty", call: seek(0, 0), want: "ESPIPE off=0", cycles: [2]uint64{120, 120}},

	// /dev/null, /dev/zero, /dev/urandom: positional I/O accepted, the
	// offset ignored, no cursor; lseek is ESPIPE.
	{kind: "null", call: read(4), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "null", call: write(5), want: "n=5 off=0", cycles: [2]uint64{235, 186}},
	{kind: "null", call: pread(4, 7), want: "n=0 off=0", cycles: [2]uint64{175, 126}},
	{kind: "null", call: pwrite(5, 7), want: "n=5 off=0", cycles: [2]uint64{235, 186}},
	{kind: "null", call: pwrite(5, -1), want: "n=5 off=0", cycles: [2]uint64{235, 186}},
	{kind: "null", call: seek(0, 0), want: "ESPIPE off=0", cycles: [2]uint64{120, 120}},
	{kind: "zero", call: read(256), want: "n=256 off=0", cycles: [2]uint64{415, 366}},
	{kind: "zero", call: readv(2), want: "n=256 off=0", cycles: [2]uint64{529, 370}},
	{kind: "zero", call: pread(256, -1), want: "n=256 off=0", cycles: [2]uint64{415, 366}},
	{kind: "zero", call: xfer(nat.SysRead, 4, true), want: "EFAULT off=0", cycles: [2]uint64{175, 126}},
	{kind: "zero", call: write(5), want: "n=5 off=0", cycles: [2]uint64{235, 186}},
	{kind: "zero", call: pwrite(5, 9), want: "n=5 off=0", cycles: [2]uint64{235, 186}},
	{kind: "zero", call: seek(0, 1), want: "ESPIPE off=0", cycles: [2]uint64{120, 120}},
	{kind: "urandom", call: pread(16, 3), want: "n=16 off=0", cycles: [2]uint64{235, 186}},
	{kind: "urandom", call: pwrite(5, 3), want: "n=5 off=0", cycles: [2]uint64{235, 186}},
	{kind: "urandom", call: seek(0, 0), want: "ESPIPE off=0", cycles: [2]uint64{120, 120}},

	// kqueues move no data.
	{kind: "kqueue", call: read(4), want: "EBADF off=0", cycles: [2]uint64{175, 126}},
	{kind: "kqueue", call: readv(2), want: "EBADF off=0", cycles: [2]uint64{232, 128}},
	{kind: "kqueue", call: readv(2), prep: iov(0, 0, false), want: "n=0 off=0", cycles: [2]uint64{289, 130}},
	{kind: "kqueue", call: write(4), want: "EBADF off=0", cycles: [2]uint64{235, 186}},
	{kind: "kqueue", call: pread(4, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "kqueue", call: pwrite(4, 0), want: "ESPIPE off=0", cycles: [2]uint64{175, 126}},
	{kind: "kqueue", call: getdents(64), want: "ENOTDIR off=0", cycles: [2]uint64{175, 126}},
	{kind: "kqueue", call: seek(0, 0), want: "ESPIPE off=0", cycles: [2]uint64{120, 120}},
}

func TestDescriptorIOEdges(t *testing.T) {
	for _, r := range ioEdges {
		t.Run(r.kind+"/"+r.call.name, func(t *testing.T) {
			for i, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
				want := r.want
				if abi == image.ABILegacy && r.legacy != "" {
					want = r.legacy
				}
				got, cycles := runIOEdge(t, abi, r)
				if got != want || cycles != r.cycles[i] {
					t.Errorf("abi %v: got %q, %d cycles; want %q, %d cycles", abi, got, cycles, want, r.cycles[i])
				}
			}
		})
	}
}

// runIOEdge runs one row on a fresh machine and describes its outcome.
func runIOEdge(t *testing.T, abi image.ABI, r ioEdge) (string, uint64) {
	h := newIOProc(t, abi)
	file, fl := ioKinds[r.kind](h)
	f := &FDesc{file: file, flags: fl, refs: 1}
	fd := uint64(h.th.Proc.allocFD(f))
	if r.prep != nil {
		r.prep(t, h, f)
	}
	// A second thread parked on the object's queue observes wakes.
	// SIGPIPE is masked so that its post, which still marks the signal
	// pending, wakes nobody.
	p := h.th.Proc
	p.SigMask |= 1 << SIGPIPE
	var waiter *Thread
	if q := file.Queue(); q != nil {
		waiter = h.k.newThread(p)
		waiter.blockOn(q)
	}
	before := h.k.M.CPU.Stats.Cycles
	v, e := r.call.do(h, fd)
	cycles := h.k.M.CPU.Stats.Cycles - before
	var out string
	switch {
	case h.th.State == ThreadBlocked:
		out = "parked"
	case e != OK:
		out = e.String()
	default:
		out = fmt.Sprintf("n=%d", v)
	}
	out += fmt.Sprintf(" off=%d", f.off)
	if p.SigPending&(1<<SIGPIPE) != 0 {
		out += " sigpipe"
	}
	if waiter != nil && waiter.State != ThreadBlocked {
		out += " wake"
	}
	for _, pkt := range h.k.NetOutbound() {
		out += fmt.Sprintf(" pkt=%s:%d", NetKindName(pkt.Kind), pkt.N+len(pkt.Data))
	}
	return out, cycles
}
