package kernel

import (
	"fmt"
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
)

// The edges of the three multiplexers, pinned per watched object and
// timeout. Each row is select, poll or kevent watching one descriptor in
// one direction; it pins the result or errno, the bytes the call wrote
// back, the simulated cycles it charged, whether the thread parked, the
// deadline it armed and the size of its wait set. Every row runs on a
// fresh machine under both ABIs, through the syscall dispatcher.

// muxKinds adds the watched objects the descriptor-I/O table lacks. A
// nil File is a closed descriptor.
var muxKinds = map[string]func(h *ioProc) (File, int){
	// The read end of an empty pipe whose writer closed.
	"pipe-r-eof": func(h *ioProc) (File, int) { return &pipeFile{pip: &pipe{readers: 1}}, ORdOnly },
	// A listening AF_UNIX socket with one connection request awaiting
	// accept.
	"listener":       func(h *ioProc) (File, int) { return listener(h, 1), ORdWr },
	"listener-empty": func(h *ioProc) (File, int) { return listener(h, 0), ORdWr },
	"closed":         func(*ioProc) (File, int) { return nil, 0 },
}

// listener is a listening AF_UNIX socket with n Syns queued.
func listener(h *ioProc, n int) *socketFile {
	s := newSocketFile(h.k, AFUnix)
	s.state, s.backlog = sockListening, 4
	for i := 0; i < n; i++ {
		s.pendingSyn = append(s.pendingSyn, NetPacket{Kind: NetSyn})
	}
	return s
}

// muxTmo is a row's timeout.
type muxTmo int

const (
	tmoNull    muxTmo = iota // NULL (select, kevent) or -1 (poll): no deadline
	tmoZero                  // a non-blocking scan
	tmoPos                   // 100 µs (select, kevent) or 1 ms (poll)
	tmoFired                 // tmoPos, parked, restarted after its timer fired
	tmoEarly                 // tmoPos, parked, woken early and restarted
	tmoHuge                  // a fraction of 2^64-1 (select, kevent: out of range) or 2^62 ms (poll: too many cycles)
	tmoHugeSec               // 2^62 seconds (select, kevent): too many cycles
)

var tmoNames = [...]string{"null", "zero", "pos", "fired", "early", "huge", "huge-sec"}

// Offsets into h.buf of a row's guest structures. Output fields start
// out holding muxFill, so a field the call never wrote shows.
const (
	offIn   = 0   // select's read mask, poll's pollfd, kevent's changelist
	offOut  = 8   // select's write mask
	offEv   = 64  // kevent's event list
	offTime = 128 // the timeval or timespec
	muxFill = 0xAAAA_AAAA_AAAA_AAAA
)

func (h *ioProc) ptr(off uint64) cap.Capability { return cap.IncAddr(h.buf, int64(off)) }

func (h *ioProc) poke(t *testing.T, off, v uint64) {
	if err := h.k.M.CPU.StoreVia(h.buf, h.buf.Addr()+off, 8, v); err != nil {
		t.Fatal(err)
	}
}

func (h *ioProc) peek(t *testing.T, off uint64) uint64 {
	v, err := h.k.M.CPU.LoadVia(h.buf, h.buf.Addr()+off, 8)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// timeArg writes the {sec, frac} timeout tmo names at offTime, with pos
// the positive fraction, and returns its pointer: NULL for tmoNull.
func (h *ioProc) timeArg(t *testing.T, tmo muxTmo, pos uint64) cap.Capability {
	frac := pos
	switch tmo {
	case tmoNull:
		return cap.Null()
	case tmoZero:
		frac = 0
	case tmoHuge:
		frac = ^uint64(0)
	}
	sec := uint64(0)
	if tmo == tmoHugeSec {
		sec, frac = 1<<62, 0
	}
	h.poke(t, offTime, sec)
	h.poke(t, offTime+8, frac)
	return h.ptr(offTime)
}

// muxer is one multiplexer: args writes the guest structures of a call
// watching fd (kq is the process's kqueue) and returns the call's
// integer and pointer arguments; show describes what the call wrote back.
type muxer struct {
	num  int
	args func(t *testing.T, h *ioProc, kq, fd uint64, out bool, tmo muxTmo) ([]uint64, []cap.Capability)
	show func(t *testing.T, h *ioProc) string
}

// selectWith is select(nfds(fd), &r, &w, NULL, tmo), one of r and w
// naming fd.
func selectWith(nfds func(fd uint64) uint64) muxer {
	return muxer{nat.SysSelect, func(t *testing.T, h *ioProc, _, fd uint64, out bool, tmo muxTmo) ([]uint64, []cap.Capability) {
		r, w := uint64(1)<<fd, uint64(0)
		if out {
			r, w = w, r
		}
		h.poke(t, offIn, r)
		h.poke(t, offOut, w)
		return []uint64{nfds(fd)}, []cap.Capability{h.ptr(offIn), h.ptr(offOut), cap.Null(), h.timeArg(t, tmo, 100)}
	}, func(t *testing.T, h *ioProc) string {
		return fmt.Sprintf("r=%#x w=%#x", h.peek(t, offIn), h.peek(t, offOut))
	}}
}

var muxers = map[string]muxer{
	"select": selectWith(func(fd uint64) uint64 { return fd + 1 }),
	// A negative nfds.
	"select(-1000)": selectWith(func(uint64) uint64 { return ^uint64(999) }),
	// poll({fd, POLLIN or POLLOUT}, 1, ms).
	"poll": {nat.SysPoll, func(t *testing.T, h *ioProc, _, fd uint64, out bool, tmo muxTmo) ([]uint64, []cap.Capability) {
		events := uint64(PollInEv)
		if out {
			events = PollOutEv
		}
		h.poke(t, offIn, fd)
		h.poke(t, offIn+8, events)
		h.poke(t, offIn+16, muxFill)
		ms := map[muxTmo]uint64{tmoNull: ^uint64(0), tmoZero: 0, tmoHuge: 1 << 62}[tmo]
		if tmo == tmoPos || tmo == tmoFired || tmo == tmoEarly {
			ms = 1
		}
		return []uint64{1, ms}, []cap.Capability{h.ptr(offIn)}
	}, func(t *testing.T, h *ioProc) string {
		return fmt.Sprintf("rev=%#x", h.peek(t, offIn+16))
	}},
	// kevent(kq, NULL, 0, ev, 1, tmo) after an EV_ADD of EVFILT_READ or
	// EVFILT_WRITE on fd, whose udata is h.buf.
	"kevent": {nat.SysKevent, func(t *testing.T, h *ioProc, kq, fd uint64, out bool, tmo muxTmo) ([]uint64, []cap.Capability) {
		filter := int32(EvfiltRead)
		if out {
			filter = EvfiltWrite
		}
		abi := h.th.Proc.ABI
		h.poke(t, offIn, fd)
		h.poke(t, offIn+8, uint64(uint32(filter))|EvAdd<<32)
		h.poke(t, offIn+16, 0)
		h.pokePtr(t, offIn+keventUdataOff(abi), h.buf)
		if _, e := h.call(nat.SysKevent, []uint64{kq, 1, 0}, []cap.Capability{h.ptr(offIn), cap.Null(), cap.Null()}); e != OK {
			t.Fatalf("EV_ADD: %v", e)
		}
		for off := uint64(0); off < keventSize(abi); off += 8 {
			h.poke(t, offEv+off, muxFill)
		}
		return []uint64{kq, 0, 1}, []cap.Capability{cap.Null(), h.ptr(offEv), h.timeArg(t, tmo, 100_000)}
	}, func(t *testing.T, h *ioProc) string {
		if h.peek(t, offEv) == muxFill {
			return "ev=none"
		}
		udata := "udata=ok"
		if !h.peekPtr(t, offEv+keventUdataOff(h.th.Proc.ABI)).Equal(h.buf) {
			udata = "udata=lost"
		}
		return fmt.Sprintf("ev=%d/%#x/%d %s", h.peek(t, offEv), h.peek(t, offEv+8), h.peek(t, offEv+16), udata)
	}},
}

// pokePtr stores c at off as the process's ABI stores a pointer.
func (h *ioProc) pokePtr(t *testing.T, off uint64, c cap.Capability) {
	if h.th.Proc.ABI == image.ABICheri {
		if err := h.k.M.CPU.StoreCapVia(h.buf, h.buf.Addr()+off, c); err != nil {
			t.Fatal(err)
		}
		return
	}
	h.poke(t, off, c.Addr())
}

// peekPtr loads the pointer at off as the process's ABI stores it; a
// legacy pointer comes back as h.buf when its address matches.
func (h *ioProc) peekPtr(t *testing.T, off uint64) cap.Capability {
	if h.th.Proc.ABI == image.ABICheri {
		c, err := h.k.M.CPU.LoadCapVia(h.buf, h.buf.Addr()+off)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if a := h.peek(t, off); a != h.buf.Addr() {
		return cap.NullWithAddr(a)
	}
	return h.buf
}

// restart re-executes the parked call in the thread's frame, as the
// scheduler does when a parked thread runs again.
func (h *ioProc) restart() (uint64, Errno) {
	h.k.syscall(h.th)
	return h.th.Frame.X[isa.RV0], Errno(h.th.Frame.X[isa.RV1])
}

// muxEdge is one row: a multiplexer watching a File kind for reading
// (or writing, when out) under a timeout; the outcome ("n=<result>",
// "parked" or the errno, then what the call wrote back, then "dl=" the
// armed deadline less the clock when the first call parked, and "wq="
// the wait-set size of a parked thread), the outcome under the legacy
// ABI where it differs, and the cycles the last call charged under the
// legacy ABI and CheriABI.
type muxEdge struct {
	mux    string
	kind   string
	out    bool
	tmo    muxTmo
	want   string
	legacy string
	cycles [2]uint64
}

func (r muxEdge) name() string {
	dir := "in"
	if r.out {
		dir = "out"
	}
	return r.mux + "/" + r.kind + "/" + dir + "/" + tmoNames[r.tmo]
}

var muxEdges = []muxEdge{
	// Non-blocking scans of each object, in both directions.
	{mux: "select", kind: "file", tmo: tmoZero, want: "n=1 r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "file", out: true, tmo: tmoZero, want: "n=1 r=0x0 w=0x10", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "file", tmo: tmoZero, want: "n=1 rev=0x1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "file", out: true, tmo: tmoZero, want: "n=1 rev=0x4", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "file", tmo: tmoZero, want: "n=1 ev=4/0xffffffff/0 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "kevent", kind: "file", out: true, tmo: tmoZero, want: "n=1 ev=4/0xfffffffe/0 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "select", kind: "tty", tmo: tmoZero, want: "n=1 r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "tty", out: true, tmo: tmoZero, want: "n=1 r=0x0 w=0x10", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "tty", tmo: tmoZero, want: "n=1 rev=0x1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "tty", out: true, tmo: tmoZero, want: "n=1 rev=0x4", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "tty", tmo: tmoZero, want: "n=1 ev=4/0xffffffff/0 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "kevent", kind: "tty", out: true, tmo: tmoZero, want: "n=1 ev=4/0xfffffffe/0 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "select", kind: "pipe-r", tmo: tmoZero, want: "n=1 r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "pipe-r", out: true, tmo: tmoZero, want: "n=1 r=0x0 w=0x10", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "pipe-r", tmo: tmoZero, want: "n=1 rev=0x1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-r", out: true, tmo: tmoZero, want: "n=1 rev=0x4", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "pipe-r", tmo: tmoZero, want: "n=1 ev=4/0xffffffff/4 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "kevent", kind: "pipe-r", out: true, tmo: tmoZero, want: "n=1 ev=4/0xfffffffe/65532 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "select", kind: "pipe-r-empty", tmo: tmoZero, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "select", kind: "pipe-r-empty", out: true, tmo: tmoZero, want: "n=1 r=0x0 w=0x10", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "pipe-r-empty", tmo: tmoZero, want: "n=0 rev=0x0", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-r-empty", out: true, tmo: tmoZero, want: "n=1 rev=0x4", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "pipe-r-empty", tmo: tmoZero, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "pipe-r-empty", out: true, tmo: tmoZero, want: "n=1 ev=4/0xfffffffe/65536 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "select", kind: "pipe-r-eof", tmo: tmoZero, want: "n=1 r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "pipe-r-eof", out: true, tmo: tmoZero, want: "n=1 r=0x0 w=0x10", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "pipe-r-eof", tmo: tmoZero, want: "n=1 rev=0x11", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-r-eof", out: true, tmo: tmoZero, want: "n=1 rev=0x14", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "pipe-r-eof", tmo: tmoZero, want: "n=1 ev=4/0x8000ffffffff/0 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "kevent", kind: "pipe-r-eof", out: true, tmo: tmoZero, want: "n=1 ev=4/0x8000fffffffe/65536 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "select", kind: "pipe-w", tmo: tmoZero, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "select", kind: "pipe-w", out: true, tmo: tmoZero, want: "n=1 r=0x0 w=0x10", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "pipe-w", tmo: tmoZero, want: "n=0 rev=0x0", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-w", out: true, tmo: tmoZero, want: "n=1 rev=0x4", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "pipe-w", tmo: tmoZero, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "pipe-w", out: true, tmo: tmoZero, want: "n=1 ev=4/0xfffffffe/65536 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "select", kind: "pipe-w-full", tmo: tmoZero, want: "n=1 r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "pipe-w-full", out: true, tmo: tmoZero, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "poll", kind: "pipe-w-full", tmo: tmoZero, want: "n=1 rev=0x1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-w-full", out: true, tmo: tmoZero, want: "n=0 rev=0x0", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "pipe-w-full", tmo: tmoZero, want: "n=1 ev=4/0xffffffff/65536 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "kevent", kind: "pipe-w-full", out: true, tmo: tmoZero, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "select", kind: "pipe-w-eof", tmo: tmoZero, want: "n=1 r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "pipe-w-eof", out: true, tmo: tmoZero, want: "n=1 r=0x0 w=0x10", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "pipe-w-eof", tmo: tmoZero, want: "n=1 rev=0x18", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-w-eof", out: true, tmo: tmoZero, want: "n=1 rev=0x1c", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "pipe-w-eof", tmo: tmoZero, want: "n=1 ev=4/0x8000ffffffff/0 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "kevent", kind: "pipe-w-eof", out: true, tmo: tmoZero, want: "n=1 ev=4/0x8000fffffffe/65536 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "select", kind: "listener", tmo: tmoZero, want: "n=1 r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "listener", out: true, tmo: tmoZero, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "poll", kind: "listener", tmo: tmoZero, want: "n=1 rev=0x1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "listener", out: true, tmo: tmoZero, want: "n=0 rev=0x0", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "listener", tmo: tmoZero, want: "n=1 ev=4/0xffffffff/1 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "kevent", kind: "listener", out: true, tmo: tmoZero, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "select", kind: "listener-empty", tmo: tmoZero, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "select", kind: "listener-empty", out: true, tmo: tmoZero, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "poll", kind: "listener-empty", tmo: tmoZero, want: "n=0 rev=0x0", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "listener-empty", out: true, tmo: tmoZero, want: "n=0 rev=0x0", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "listener-empty", tmo: tmoZero, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "listener-empty", out: true, tmo: tmoZero, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "select", kind: "sock-new", tmo: tmoZero, want: "n=1 r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "sock-new", out: true, tmo: tmoZero, want: "n=1 r=0x0 w=0x10", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "sock-new", tmo: tmoZero, want: "n=1 rev=0x1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "sock-new", out: true, tmo: tmoZero, want: "n=1 rev=0x4", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "sock-new", tmo: tmoZero, want: "n=1 ev=4/0xffffffff/0 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "kevent", kind: "sock-new", out: true, tmo: tmoZero, want: "n=1 ev=4/0xfffffffe/0 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "select", kind: "closed", tmo: tmoZero, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "select", kind: "closed", out: true, tmo: tmoZero, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "poll", kind: "closed", tmo: tmoZero, want: "n=1 rev=0x20", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "closed", out: true, tmo: tmoZero, want: "n=1 rev=0x20", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "closed", tmo: tmoZero, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "closed", out: true, tmo: tmoZero, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},

	// Every timeout, on a ready object and on objects that park.
	{mux: "select", kind: "pipe-r", tmo: tmoNull, want: "n=1 r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "pipe-r", tmo: tmoPos, want: "n=1 r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "pipe-r", tmo: tmoNull, want: "n=1 rev=0x1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-r", tmo: tmoPos, want: "n=1 rev=0x1", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "pipe-r", tmo: tmoNull, want: "n=1 ev=4/0xffffffff/4 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "kevent", kind: "pipe-r", tmo: tmoPos, want: "n=1 ev=4/0xffffffff/4 udata=ok", cycles: [2]uint64{289, 142}},
	{mux: "select", kind: "pipe-r-empty", tmo: tmoNull, want: "parked r=0x10 w=0x0 wq=1", cycles: [2]uint64{492, 296}},
	{mux: "select", kind: "pipe-r-empty", tmo: tmoPos, want: "parked r=0x10 w=0x0 dl=+10000 wq=1", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "pipe-r-empty", tmo: tmoFired, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "select", kind: "pipe-r-empty", tmo: tmoEarly, want: "parked r=0x10 w=0x0 dl=+10000 wq=1", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "pipe-r-empty", tmo: tmoNull, want: "parked rev=0x0 wq=1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-r-empty", tmo: tmoPos, want: "parked rev=0x0 dl=+100000 wq=1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-r-empty", tmo: tmoFired, want: "n=0 rev=0x0", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-r-empty", tmo: tmoEarly, want: "parked rev=0x0 dl=+100000 wq=1", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "pipe-r-empty", tmo: tmoNull, want: "parked ev=none wq=1", cycles: [2]uint64{285, 138}},
	{mux: "kevent", kind: "pipe-r-empty", tmo: tmoPos, want: "parked ev=none dl=+10000 wq=1", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "pipe-r-empty", tmo: tmoFired, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "pipe-r-empty", tmo: tmoEarly, want: "parked ev=none dl=+10000 wq=1", cycles: [2]uint64{287, 140}},
	{mux: "select", kind: "pipe-w-full", out: true, tmo: tmoNull, want: "parked r=0x0 w=0x10 wq=1", cycles: [2]uint64{492, 296}},
	{mux: "select", kind: "pipe-w-full", out: true, tmo: tmoPos, want: "parked r=0x0 w=0x10 dl=+10000 wq=1", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "pipe-w-full", out: true, tmo: tmoFired, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "select", kind: "pipe-w-full", out: true, tmo: tmoEarly, want: "parked r=0x0 w=0x10 dl=+10000 wq=1", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "pipe-w-full", out: true, tmo: tmoNull, want: "parked rev=0x0 wq=1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-w-full", out: true, tmo: tmoPos, want: "parked rev=0x0 dl=+100000 wq=1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-w-full", out: true, tmo: tmoFired, want: "n=0 rev=0x0", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "pipe-w-full", out: true, tmo: tmoEarly, want: "parked rev=0x0 dl=+100000 wq=1", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "pipe-w-full", out: true, tmo: tmoNull, want: "parked ev=none wq=1", cycles: [2]uint64{285, 138}},
	{mux: "kevent", kind: "pipe-w-full", out: true, tmo: tmoPos, want: "parked ev=none dl=+10000 wq=1", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "pipe-w-full", out: true, tmo: tmoFired, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "pipe-w-full", out: true, tmo: tmoEarly, want: "parked ev=none dl=+10000 wq=1", cycles: [2]uint64{287, 140}},
	{mux: "select", kind: "listener-empty", tmo: tmoNull, want: "parked r=0x10 w=0x0 wq=1", cycles: [2]uint64{492, 296}},
	{mux: "select", kind: "listener-empty", tmo: tmoPos, want: "parked r=0x10 w=0x0 dl=+10000 wq=1", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "listener-empty", tmo: tmoFired, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "select", kind: "listener-empty", tmo: tmoEarly, want: "parked r=0x10 w=0x0 dl=+10000 wq=1", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "listener-empty", tmo: tmoNull, want: "parked rev=0x0 wq=1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "listener-empty", tmo: tmoPos, want: "parked rev=0x0 dl=+100000 wq=1", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "listener-empty", tmo: tmoFired, want: "n=0 rev=0x0", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "listener-empty", tmo: tmoEarly, want: "parked rev=0x0 dl=+100000 wq=1", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "listener-empty", tmo: tmoNull, want: "parked ev=none wq=1", cycles: [2]uint64{285, 138}},
	{mux: "kevent", kind: "listener-empty", tmo: tmoPos, want: "parked ev=none dl=+10000 wq=1", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "listener-empty", tmo: tmoFired, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "listener-empty", tmo: tmoEarly, want: "parked ev=none dl=+10000 wq=1", cycles: [2]uint64{287, 140}},
	{mux: "select", kind: "closed", tmo: tmoNull, want: "parked r=0x10 w=0x0 wq=0", cycles: [2]uint64{492, 296}},
	{mux: "select", kind: "closed", tmo: tmoPos, want: "parked r=0x10 w=0x0 dl=+10000 wq=0", cycles: [2]uint64{494, 298}},
	{mux: "select", kind: "closed", tmo: tmoFired, want: "n=0 r=0x0 w=0x0", cycles: [2]uint64{496, 300}},
	{mux: "select", kind: "closed", tmo: tmoEarly, want: "parked r=0x10 w=0x0 dl=+10000 wq=0", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "closed", tmo: tmoNull, want: "n=1 rev=0x20", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "closed", tmo: tmoPos, want: "n=1 rev=0x20", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "closed", tmo: tmoFired, want: "n=1 rev=0x20", cycles: [2]uint64{208, 159}},
	{mux: "poll", kind: "closed", tmo: tmoEarly, want: "n=1 rev=0x20", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "closed", tmo: tmoNull, want: "parked ev=none wq=0", cycles: [2]uint64{285, 138}},
	{mux: "kevent", kind: "closed", tmo: tmoPos, want: "parked ev=none dl=+10000 wq=0", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "closed", tmo: tmoFired, want: "n=0 ev=none", cycles: [2]uint64{287, 140}},
	{mux: "kevent", kind: "closed", tmo: tmoEarly, want: "parked ev=none dl=+10000 wq=0", cycles: [2]uint64{287, 140}},

	// A fraction outside one second is EINVAL; a timeout too long for a
	// 64-bit cycle count parks with no deadline.
	{mux: "select", kind: "pipe-r-empty", tmo: tmoHuge, want: "EINVAL r=0x10 w=0x0", cycles: [2]uint64{494, 298}},
	{mux: "poll", kind: "pipe-r-empty", tmo: tmoHuge, want: "parked rev=0x0 wq=1", cycles: [2]uint64{208, 159}},
	{mux: "kevent", kind: "pipe-r-empty", tmo: tmoHuge, want: "EINVAL ev=none", cycles: [2]uint64{287, 140}},
	{mux: "select", kind: "pipe-r-empty", tmo: tmoHugeSec, want: "parked r=0x10 w=0x0 wq=1", cycles: [2]uint64{494, 298}},
	{mux: "kevent", kind: "pipe-r-empty", tmo: tmoHugeSec, want: "parked ev=none wq=1", cycles: [2]uint64{287, 140}},

	// A negative nfds fails before select charges for descriptors.
	{mux: "select(-1000)", kind: "pipe-r", tmo: tmoZero, want: "EINVAL r=0x10 w=0x0", cycles: [2]uint64{340, 144}},
}

func TestMultiplexerEdges(t *testing.T) {
	for _, r := range muxEdges {
		t.Run(r.name(), func(t *testing.T) {
			for i, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
				want := r.want
				if abi == image.ABILegacy && r.legacy != "" {
					want = r.legacy
				}
				got, cycles := runMuxEdge(t, abi, r)
				if got != want || cycles != r.cycles[i] {
					t.Errorf("abi %v: got %q, %d cycles; want %q, %d cycles", abi, got, cycles, want, r.cycles[i])
				}
			}
		})
	}
}

// runMuxEdge runs one row on a fresh machine and describes its outcome.
func runMuxEdge(t *testing.T, abi image.ABI, r muxEdge) (string, uint64) {
	h := newIOProc(t, abi)
	kq, e := h.call(nat.SysKqueue, nil, nil)
	if e != OK {
		t.Fatalf("kqueue: %v", e)
	}
	mk := muxKinds[r.kind]
	if mk == nil {
		mk = ioKinds[r.kind]
	}
	file, fl := mk(h)
	p, th := h.th.Proc, h.th
	fd := uint64(p.allocFD(&FDesc{file: file, flags: fl, refs: 1}))
	if file == nil {
		p.FDs[fd] = nil
	}
	m := muxers[r.mux]
	ints, ptrs := m.args(t, h, kq, fd, r.out, r.tmo)
	before := h.k.Now()
	v, e := h.call(m.num, ints, ptrs)
	parkedAt := h.k.Now()
	if th.State == ThreadBlocked && (r.tmo == tmoFired || r.tmo == tmoEarly) {
		if r.tmo == tmoFired {
			h.k.M.CPU.Stats.Cycles = th.deadline
			h.k.fireDueTimers()
		} else {
			// Woken before the deadline, as a signal post wakes it.
			h.k.M.CPU.Stats.Cycles += 1000
			th.unsubscribe()
			th.State = ThreadRunnable
			h.k.runqPush(th)
		}
		before = h.k.Now()
		v, e = h.restart()
	}
	cycles := h.k.Now() - before
	var out string
	switch {
	case th.State == ThreadBlocked:
		out = "parked"
	case e != OK:
		out = e.String()
	default:
		out = fmt.Sprintf("n=%d", int64(v))
	}
	out += " " + m.show(t, h)
	if th.timer != nil {
		out += fmt.Sprintf(" dl=%+d", int64(th.deadline-parkedAt))
	}
	if th.State == ThreadBlocked {
		out += fmt.Sprintf(" wq=%d", len(th.waitq))
	}
	return out, cycles
}

// keventScan issues kevent(kq, NULL, 0, ev, 1, &{0, 0}) and returns its
// result and errno.
func (h *ioProc) keventScan(t *testing.T, kq uint64) (uint64, Errno) {
	return h.call(nat.SysKevent, []uint64{kq, 0, 1}, []cap.Capability{cap.Null(), h.ptr(offEv), h.timeArg(t, tmoZero, 0)})
}

// addNote registers EVFILT_READ on fd with kq, whose udata is udata.
func (h *ioProc) addNote(t *testing.T, kq, fd uint64, udata cap.Capability) {
	filter := int32(EvfiltRead)
	h.poke(t, offIn, fd)
	h.poke(t, offIn+8, uint64(uint32(filter))|EvAdd<<32)
	h.pokePtr(t, offIn+keventUdataOff(h.th.Proc.ABI), udata)
	if _, e := h.call(nat.SysKevent, []uint64{kq, 1, 0}, []cap.Capability{h.ptr(offIn), cap.Null(), cap.Null()}); e != OK {
		t.Fatalf("EV_ADD: %v", e)
	}
}

// An EV_ADD of a registered (ident, filter) pair modifies its note: three
// identical adds leave one note, reported once, with the last udata.
func TestKeventAddModifiesNote(t *testing.T) {
	for _, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
		h := newIOProc(t, abi)
		kq, _ := h.call(nat.SysKqueue, nil, nil)
		fd := h.open(nullFile{})
		var last cap.Capability
		for i := int64(0); i < 3; i++ {
			last = cap.IncAddr(h.buf, 8*i)
			h.addNote(t, kq, fd, last)
		}
		if notes := h.th.Proc.fd(int(kq)).file.(*kqueueFile).notes; len(notes) != 1 {
			t.Errorf("abi %v: %d notes after three identical EV_ADDs, want 1", abi, len(notes))
		}
		n, e := h.call(nat.SysKevent, []uint64{kq, 0, 3}, []cap.Capability{cap.Null(), h.ptr(offEv), h.timeArg(t, tmoZero, 0)})
		if e != OK || n != 1 {
			t.Fatalf("abi %v: kevent = %d, %v; want 1 event", abi, n, e)
		}
		got := h.peekPtr(t, offEv+keventUdataOff(abi))
		if got.Addr() != last.Addr() || abi == image.ABICheri && !got.Equal(last) {
			t.Errorf("abi %v: the event carries udata %#x, want the last add's %#x", abi, got.Addr(), last.Addr())
		}
	}
}

// The kqueue is the descriptor: kevent reaches it through a dup, and a
// descriptor number reused after close(kq) names no kqueue.
func TestKeventFindsKqueueThroughDescriptor(t *testing.T) {
	for _, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
		h := newIOProc(t, abi)
		kq, _ := h.call(nat.SysKqueue, nil, nil)
		h.addNote(t, kq, h.open(nullFile{}), h.buf)
		d, e := h.call(nat.SysDup, []uint64{kq}, nil)
		if e != OK {
			t.Fatalf("abi %v: dup: %v", abi, e)
		}
		if n, e := h.keventScan(t, d); e != OK || n != 1 {
			t.Errorf("abi %v: kevent on a dup of the kqueue = %d, %v; want 1, OK", abi, n, e)
		}
		for _, fd := range []uint64{kq, d} {
			if _, e := h.call(nat.SysClose, []uint64{fd}, nil); e != OK {
				t.Fatalf("abi %v: close(%d): %v", abi, fd, e)
			}
		}
		if reused := h.open(nullFile{}); reused != kq {
			t.Fatalf("abi %v: reopen took fd %d, want %d", abi, reused, kq)
		}
		if _, e := h.keventScan(t, kq); e != EBADF {
			t.Errorf("abi %v: kevent on a reused descriptor number = %v, want EBADF", abi, e)
		}
	}
}

// A forked child does not inherit its parent's kqueues: the slot is empty
// in the child and the parent's queue still works.
func TestForkDropsKqueues(t *testing.T) {
	for _, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
		h := newIOProc(t, abi)
		kq, _ := h.call(nat.SysKqueue, nil, nil)
		h.addNote(t, kq, h.open(nullFile{}), h.buf)
		pid, e := h.call(nat.SysFork, nil, nil)
		if e != OK {
			t.Fatalf("abi %v: fork: %v", abi, e)
		}
		child := h.th.Proc.Children[int(pid)]
		if child.fd(int(kq)) != nil {
			t.Errorf("abi %v: the child inherited the kqueue at fd %d", abi, kq)
		}
		if child.fd(int(kq)+1) == nil {
			t.Errorf("abi %v: the child lost the descriptor after the kqueue", abi)
		}
		if n, e := h.keventScan(t, kq); e != OK || n != 1 {
			t.Errorf("abi %v: the parent's kevent after fork = %d, %v; want 1, OK", abi, n, e)
		}
	}
}

// An untimed park and wake of each multiplexer allocates nothing: the
// scan fills the Kernel's wait set, and the park copies it into the
// thread's, both reused.
func TestMultiplexerParkDoesNotAllocate(t *testing.T) {
	for _, name := range []string{"select", "poll", "kevent"} {
		m := muxers[name]
		var r uint64
		var ints []uint64
		var ptrs []cap.Capability
		wantZeroAllocs(t, name+" park and wake", func(h *ioProc) {
			kq, _ := h.call(nat.SysKqueue, nil, nil)
			r, _ = h.pipePair()
			ints, ptrs = m.args(t, h, kq, r, false, tmoNull)
		}, func(h *ioProc) string {
			h.call(m.num, ints, ptrs)
			if h.th.State != ThreadBlocked {
				return "the call did not park"
			}
			h.th.Proc.fd(int(r)).file.Queue().Wake(h.k)
			for h.k.runqPop() != nil {
			}
			if h.th.State != ThreadRunnable {
				return "the wake did not reach the thread"
			}
			return ""
		})
	}
}
