package kernel

import (
	"fmt"
	"strings"
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/nat"
)

// The edges of the stream-socket calls, pinned per way of making a
// connection: an AF_UNIX path, AF_INET loopback, and socketpair(2). Each
// row is a script of calls by up to three threads of one process (the
// server s and the clients c and d); it pins, for every call, the result
// or errno (for a read, the bytes moved), whether the caller parked,
// whether SIGPIPE was raised, and which threads the call made runnable,
// in order, and it pins the simulated cycles of the whole script under
// the legacy ABI and CheriABI. A row's setup (sockets made, a listener
// bound and listening, a connection established) is run quietly: it must
// succeed and is not part of the pin. Every row runs on a fresh machine,
// through the syscall dispatcher.

// sockFam is a row's way of making a connection.
type sockFam int

const (
	famUnix sockFam = iota // socket, bind and connect by path
	famInet                // socket, bind and connect to 127.0.0.1
	famPair                // socketpair(2)
)

var famNames = [...]string{"unix", "inet", "pair"}

// Offsets into a row's guest scratch area.
const (
	saPath  = 0x000 // the AF_UNIX path
	saIn    = 0x040 // the AF_INET sockaddr_in a bind or connect reads
	saName  = 0x080 // the sockaddr getsockname and getpeername write
	saPair  = 0x0C0 // socketpair's two descriptors
	saData  = 0x100 // the transfer buffer
	saPoll  = 0x180 // a pollfd
	saKevIn = 0x200 // kevent's changelist, two entries
	saKevEv = 0x280 // kevent's event list, two entries
	saTime  = 0x300 // a zero timespec
	saSize  = 0x400
)

// sockPort is the AF_INET port the listener binds.
const sockPort = 7000

// sockRun is one row's machine: its threads and descriptors by name, and
// what the pinned calls so far did.
type sockRun struct {
	t      *testing.T
	h      *ioProc
	fam    sockFam
	area   cap.Capability
	thr    map[string]*Thread
	names  map[*Thread]string
	fd     map[string]uint64
	quiet  bool
	out    []string
	cycles uint64
}

func newSockRun(t *testing.T, abi image.ABI, fam sockFam) *sockRun {
	h := newIOProc(t, abi)
	p := h.th.Proc
	area, err := cap.SetBounds(p.Root, h.buf.Addr()+saSize, saSize)
	if err != nil {
		t.Fatal(err)
	}
	r := &sockRun{t: t, h: h, fam: fam, area: area,
		thr: map[string]*Thread{"s": h.th}, names: map[*Thread]string{h.th: "s"}, fd: map[string]uint64{}}
	for _, who := range []string{"c", "d"} {
		th := h.k.newThread(p)
		*h.k.regs(th) = *h.k.regs(h.th)
		r.thr[who], r.names[th] = th, who
	}
	for h.k.runqPop() != nil {
	}
	// SIGPIPE is masked so that its post, which still marks the signal
	// pending, wakes nobody.
	p.SigMask |= 1 << SIGPIPE
	r.pokeStr(saPath, "/s")
	r.poke(saIn, AFInet)
	r.poke(saIn+8, sockPort)
	return r
}

func (r *sockRun) poke(off, v uint64) {
	if err := r.h.k.M.CPU.StoreVia(r.area, r.area.Addr()+off, 8, v); err != nil {
		r.t.Fatal(err)
	}
}

func (r *sockRun) peek(off uint64) uint64 {
	v, err := r.h.k.M.CPU.LoadVia(r.area, r.area.Addr()+off, 8)
	if err != nil {
		r.t.Fatal(err)
	}
	return v
}

func (r *sockRun) pokeStr(off uint64, s string) {
	for i, b := range []byte(s + "\x00") {
		if err := r.h.k.M.CPU.StoreVia(r.area, r.area.Addr()+off+uint64(i), 1, uint64(b)); err != nil {
			r.t.Fatal(err)
		}
	}
}

func (r *sockRun) ptr(off uint64) cap.Capability { return cap.IncAddr(r.area, int64(off)) }

// slot is the descriptor named slot; a slot never filled names fd 60,
// which is not open.
func (r *sockRun) slot(slot string) uint64 {
	if fd, ok := r.fd[slot]; ok {
		return fd
	}
	return 60
}

// call issues one syscall on thread who and records its outcome, shown
// as label=outcome, followed by detail (when the call completed) and
// whatever the call raised or woke.
func (r *sockRun) call(who, label string, num int, ints []uint64, ptrs []cap.Capability, detail func(v uint64) string) (uint64, Errno) {
	th := r.thr[who]
	r.h.th = th
	before := r.h.k.M.CPU.Stats.Cycles
	v, e := r.h.call(num, ints, ptrs)
	return v, r.record(who, label, th, before, v, e, detail)
}

// restart re-executes who's parked call once the call's thread has been
// made runnable, as the scheduler does.
func (r *sockRun) restart(who string, detail func(v uint64) string) (uint64, Errno) {
	th := r.thr[who]
	if th.State == ThreadBlocked {
		r.out = append(r.out, who+":restart=still-parked")
		return 0, EJUSTRETURN
	}
	r.h.th = th
	before := r.h.k.M.CPU.Stats.Cycles
	v, e := r.h.restart()
	return v, r.record(who, "restart", th, before, v, e, detail)
}

func (r *sockRun) record(who, label string, th *Thread, before, v uint64, e Errno, detail func(v uint64) string) Errno {
	var out string
	parked := th.State == ThreadBlocked
	switch {
	case parked:
		out, e = "parked", EJUSTRETURN
	case e != OK:
		out = e.String()
	default:
		out = fmt.Sprintf("n=%d", v)
		if detail != nil {
			out += " " + detail(v)
		}
	}
	p := th.Proc
	if p.SigPending&(1<<SIGPIPE) != 0 {
		out += " sigpipe"
		p.SigPending &^= 1 << SIGPIPE
	}
	var run []string
	for w := r.h.k.runqPop(); w != nil; w = r.h.k.runqPop() {
		run = append(run, r.names[w])
	}
	if len(run) > 0 {
		out += " run=" + strings.Join(run, ",")
	}
	if r.quiet {
		if e != OK && e != EINPROGRESS && e != EJUSTRETURN {
			r.t.Fatalf("setup %s:%s: %s", who, label, out)
		}
		return e
	}
	r.cycles += r.h.k.M.CPU.Stats.Cycles - before
	r.out = append(r.out, who+":"+label+"="+out)
	return e
}

// The calls a script makes. Each names its thread and its descriptors by
// slot: L is the listener, C and D the clients' sockets, A the accepted
// (or socketpair's server-side) end.

// sock opens a socket of the row's family into slot.
func (r *sockRun) sock(who, slot string) {
	domain := uint64(AFUnix)
	if r.fam == famInet {
		domain = AFInet
	}
	if v, e := r.call(who, "socket", nat.SysSocket, []uint64{domain, SockStream, 0}, nil, nil); e == OK {
		r.fd[slot] = v
	}
}

// addr is the row's address: the path, or the sockaddr_in naming
// 127.0.0.1 (connect) or INADDR_ANY (bind).
func (r *sockRun) addr(loopback bool) cap.Capability {
	if r.fam == famInet {
		a := uint64(0)
		if loopback {
			a = NetLoopback
		}
		r.poke(saIn+16, a)
		return r.ptr(saIn)
	}
	return r.ptr(saPath)
}

func (r *sockRun) bind(who, slot string) {
	r.call(who, "bind("+slot+")", nat.SysBind, []uint64{r.slot(slot)}, []cap.Capability{r.addr(false)}, nil)
}

func (r *sockRun) listen(who, slot string, backlog uint64) {
	r.call(who, fmt.Sprintf("listen(%s,%d)", slot, backlog), nat.SysListen, []uint64{r.slot(slot), backlog}, nil, nil)
}

func (r *sockRun) nonblock(who, slot string) {
	r.call(who, "nonblock("+slot+")", nat.SysFcntl, []uint64{r.slot(slot), FSetFl, ONonblock}, nil, nil)
}

func (r *sockRun) connect(who, slot string) {
	r.call(who, "connect("+slot+")", nat.SysConnect, []uint64{r.slot(slot)}, []cap.Capability{r.addr(true)}, nil)
}

// accept accepts on slot into into.
func (r *sockRun) accept(who, slot, into string) {
	if v, e := r.call(who, "accept("+slot+")", nat.SysAccept, []uint64{r.slot(slot)}, nil, nil); e == OK {
		r.fd[into] = v
	}
}

// restartAccept restarts who's parked accept, its descriptor going into
// into.
func (r *sockRun) restartAccept(who, into string) {
	if v, e := r.restart(who, nil); e == OK {
		r.fd[into] = v
	}
}

// pair makes a socketpair: slot a on the server's side, c the client's.
func (r *sockRun) pair(who, a, c string) {
	if _, e := r.call(who, "socketpair", nat.SysSocketpair, []uint64{AFUnix, SockStream, 0}, []cap.Capability{r.ptr(saPair)}, nil); e == OK {
		r.fd[a], r.fd[c] = r.peek(saPair), r.peek(saPair+8)
	}
}

func (r *sockRun) read(who, slot string, n uint64) {
	r.call(who, fmt.Sprintf("read(%s,%d)", slot, n), nat.SysRead, []uint64{r.slot(slot), n}, []cap.Capability{r.ptr(saData)}, nil)
}

func (r *sockRun) write(who, slot string, n uint64) {
	r.call(who, fmt.Sprintf("write(%s,%d)", slot, n), nat.SysWrite, []uint64{r.slot(slot), n}, []cap.Capability{r.ptr(saData)}, nil)
}

var shutNames = [...]string{"RD", "WR", "RDWR", "3"}

func (r *sockRun) shutdown(who, slot string, how uint64) {
	r.call(who, fmt.Sprintf("shutdown(%s,%s)", slot, shutNames[how]), nat.SysShutdown, []uint64{r.slot(slot), how}, nil, nil)
}

func (r *sockRun) close(who, slot string) {
	r.call(who, "close("+slot+")", nat.SysClose, []uint64{r.slot(slot)}, nil, nil)
}

// name is getsockname or getpeername, showing family/port/addr.
func (r *sockRun) name(who, slot string, peer bool) {
	num, label := nat.SysGetsockname, "sockname("+slot+")"
	if peer {
		num, label = nat.SysGetpeername, "peername("+slot+")"
	}
	for i := uint64(0); i < 3; i++ {
		r.poke(saName+8*i, muxFill)
	}
	r.call(who, label, num, []uint64{r.slot(slot)}, []cap.Capability{r.ptr(saName)}, func(uint64) string {
		return fmt.Sprintf("%d/%d/%#x", r.peek(saName), r.peek(saName+8), r.peek(saName+16))
	})
}

// poll is poll({fd, POLLIN|POLLOUT}, 1, 0), showing revents.
func (r *sockRun) poll(who, slot string) {
	r.poke(saPoll, r.slot(slot))
	r.poke(saPoll+8, PollInEv|PollOutEv)
	r.poke(saPoll+16, muxFill)
	r.call(who, "poll("+slot+")", nat.SysPoll, []uint64{1, 0}, []cap.Capability{r.ptr(saPoll)}, func(uint64) string {
		return fmt.Sprintf("rev=%#x", r.peek(saPoll+16))
	})
}

// kev registers EVFILT_READ and EVFILT_WRITE on slot with a fresh
// kqueue, scans it without blocking and shows each event's filter and
// flags word and its data (the readiness depth), then closes the kqueue.
func (r *sockRun) kev(who, slot string) {
	kq, e := r.call(who, "kqueue", nat.SysKqueue, nil, nil, nil)
	if e != OK {
		return
	}
	size := keventSize(r.h.th.Proc.ABI)
	for i, filter := range []int32{EvfiltRead, EvfiltWrite} {
		base := saKevIn + uint64(i)*size
		for off := uint64(0); off < size; off += 8 {
			r.poke(base+off, 0)
		}
		r.poke(base, r.slot(slot))
		r.poke(base+8, uint64(uint32(filter))|EvAdd<<32)
	}
	for off := uint64(0); off < 2*size; off += 8 {
		r.poke(saKevEv+off, muxFill)
	}
	r.poke(saTime, 0)
	r.poke(saTime+8, 0)
	r.call(who, "kevent("+slot+")", nat.SysKevent, []uint64{kq, 2, 2},
		[]cap.Capability{r.ptr(saKevIn), r.ptr(saKevEv), r.ptr(saTime)}, func(n uint64) string {
			var evs []string
			for i := uint64(0); i < n; i++ {
				base := saKevEv + i*size
				evs = append(evs, fmt.Sprintf("%#x/%d", r.peek(base+8), r.peek(base+16)))
			}
			return "ev=" + strings.Join(evs, ",")
		})
	r.call(who, "close(kq)", nat.SysClose, []uint64{kq}, nil, nil)
}

// setup runs f quietly.
func (r *sockRun) setup(f func()) {
	r.quiet = true
	f()
	r.quiet = false
}

// listening makes slot L a listener with the given backlog, on s.
func (r *sockRun) listening(backlog uint64) {
	r.sock("s", "L")
	r.bind("s", "L")
	r.listen("s", "L", backlog)
}

// connected makes a connection: C on c's side, A on s's.
func (r *sockRun) connected() {
	if r.fam == famPair {
		r.pair("s", "A", "C")
		return
	}
	r.listening(4)
	r.sock("c", "C")
	r.connect("c", "C")
	r.accept("s", "L", "A")
	r.restart("c", nil)
}

// sockScripts are the rows' scripts by name; each applies to the
// families its rows name.
var sockScripts = map[string]func(r *sockRun){
	// A blocking connect parks until the accept completes it.
	"connect-block": func(r *sockRun) {
		r.setup(func() { r.listening(4); r.sock("c", "C") })
		r.connect("c", "C")
		r.poll("s", "L")
		r.accept("s", "L", "A")
		r.restart("c", nil)
		r.connect("c", "C")
	},
	// A non-blocking connect is EINPROGRESS; completion shows as
	// writability, and the next connect reports it, once.
	"connect-nonblock": func(r *sockRun) {
		r.setup(func() { r.listening(4); r.sock("c", "C"); r.nonblock("c", "C") })
		r.connect("c", "C")
		r.poll("c", "C")
		r.connect("c", "C")
		r.accept("s", "L", "A")
		r.poll("c", "C")
		r.connect("c", "C")
		r.connect("c", "C")
	},
	// With nothing listening at the address, or a socket bound there that
	// does not listen, connect is refused and the socket stays reusable.
	"connect-refused": func(r *sockRun) {
		r.setup(func() { r.sock("c", "C"); r.nonblock("c", "C") })
		r.connect("c", "C")
		r.connect("c", "C")
		r.setup(func() { r.sock("s", "L"); r.bind("s", "L") })
		r.connect("c", "C")
		r.setup(func() { r.listen("s", "L", 4) })
		r.connect("c", "C")
		r.poll("c", "C")
	},
	// A connect beyond the listener's backlog is refused.
	"connect-backlog-full": func(r *sockRun) {
		r.setup(func() {
			r.listening(1)
			r.sock("c", "C")
			r.nonblock("c", "C")
			r.sock("d", "D")
			r.nonblock("d", "D")
		})
		r.connect("c", "C")
		r.connect("d", "D")
		r.poll("s", "L")
		r.kev("s", "L")
		r.accept("s", "L", "A")
		r.connect("d", "D")
	},
	// accept parks on an empty listener until a connector arrives, and a
	// non-blocking accept fails EAGAIN.
	"accept": func(r *sockRun) {
		r.setup(func() { r.listening(4); r.sock("c", "C"); r.nonblock("c", "C") })
		r.accept("s", "L", "A")
		r.connect("c", "C")
		r.restartAccept("s", "A")
		r.setup(func() { r.nonblock("s", "L") })
		r.accept("s", "L", "B")
		r.poll("c", "C")
		r.connect("c", "C")
	},
	// A connector that closes before the accept.
	"connector-closed": func(r *sockRun) {
		r.setup(func() {
			r.listening(4)
			r.nonblock("s", "L")
			r.sock("c", "C")
			r.nonblock("c", "C")
		})
		r.connect("c", "C")
		r.close("c", "C")
		r.poll("s", "L")
		r.accept("s", "L", "A")
		r.read("s", "A", 4)
		r.write("s", "A", 4)
	},
	// Closing a listener refuses its queued connectors, parked or not.
	"listener-close": func(r *sockRun) {
		r.setup(func() {
			r.listening(4)
			r.sock("c", "C")
			r.sock("d", "D")
			r.nonblock("d", "D")
		})
		r.connect("c", "C")
		r.connect("d", "D")
		r.close("s", "L")
		r.restart("c", nil)
		r.connect("d", "D")
		r.connect("d", "D")
	},
	// connect on a connected end.
	"connect-connected": func(r *sockRun) {
		r.setup(r.connected)
		r.connect("c", "C")
		r.connect("s", "A")
	},
	// A write wakes a parked reader, a read returns the writer's credit.
	"transfer": func(r *sockRun) {
		r.setup(r.connected)
		r.read("s", "A", 8)
		r.write("c", "C", 4)
		r.restart("s", nil)
		r.write("s", "A", 4)
		r.read("c", "C", 2)
		r.read("c", "C", 8)
		r.setup(func() { r.nonblock("c", "C") })
		r.read("c", "C", 8)
	},
	// shutdown(SHUT_RD): local reads are EOF, the rest flows.
	"shut-rd": func(r *sockRun) {
		r.setup(r.connected)
		r.write("s", "A", 4)
		r.shutdown("c", "C", ShutRd)
		r.read("c", "C", 8)
		r.write("c", "C", 4)
		r.read("s", "A", 8)
		r.write("s", "A", 4)
		r.poll("c", "C")
		r.poll("s", "A")
	},
	// shutdown(SHUT_WR): local writes raise EPIPE, the peer drains and
	// then reads EOF, and the peer's writes still flow back.
	"shut-wr": func(r *sockRun) {
		r.setup(r.connected)
		r.read("s", "A", 8)
		r.write("c", "C", 4)
		r.shutdown("c", "C", ShutWr)
		r.restart("s", nil)
		r.read("s", "A", 8)
		r.write("c", "C", 4)
		r.write("s", "A", 4)
		r.read("c", "C", 8)
		r.poll("c", "C")
		r.poll("s", "A")
		r.shutdown("c", "C", ShutWr)
	},
	// shutdown(SHUT_RDWR), and a bad how.
	"shut-rdwr": func(r *sockRun) {
		r.setup(r.connected)
		r.read("s", "A", 8)
		r.shutdown("c", "C", ShutRdWr)
		r.restart("s", nil)
		r.read("c", "C", 8)
		r.write("c", "C", 4)
		r.write("s", "A", 4)
		r.read("c", "C", 8)
		r.poll("c", "C")
		r.poll("s", "A")
		r.kev("s", "A")
		r.shutdown("c", "C", 3)
	},
	// After the peer closed: buffered bytes drain, then EOF; writes raise
	// EPIPE and SIGPIPE; the end polls hung up.
	"peer-closed": func(r *sockRun) {
		r.setup(r.connected)
		r.read("c", "C", 8)
		r.write("s", "A", 4)
		r.restart("c", nil)
		r.write("s", "A", 4)
		r.close("s", "A")
		r.read("c", "C", 2)
		r.read("c", "C", 8)
		r.read("c", "C", 8)
		r.write("c", "C", 4)
		r.poll("c", "C")
		r.kev("c", "C")
		r.shutdown("c", "C", ShutWr)
	},
	// A parked reader and writer on the far end are woken by the close.
	"peer-closed-parked": func(r *sockRun) {
		r.setup(r.connected)
		r.read("c", "C", 8)
		r.close("s", "A")
		r.restart("c", nil)
		r.read("c", "C", 8)
	},
	// getsockname and getpeername on every end.
	"names": func(r *sockRun) {
		r.setup(r.connected)
		if r.fam != famPair {
			r.name("s", "L", false)
			r.name("s", "L", true)
		}
		r.name("s", "A", false)
		r.name("s", "A", true)
		r.name("c", "C", false)
		r.name("c", "C", true)
	},
	// The depth a listener and the connected ends report to poll and
	// kevent.
	"depth": func(r *sockRun) {
		r.setup(r.connected)
		if r.fam != famPair {
			r.poll("s", "L")
			r.kev("s", "L")
			r.setup(func() { r.sock("d", "D"); r.nonblock("d", "D") })
			r.connect("d", "D")
			r.poll("s", "L")
			r.kev("s", "L")
		}
		r.poll("s", "A")
		r.kev("s", "A")
		r.write("c", "C", 40)
		r.poll("s", "A")
		r.kev("s", "A")
		r.kev("c", "C")
		r.read("s", "A", 16)
		r.kev("s", "A")
		r.kev("c", "C")
	},
}

// sockEdge is one row: a script under a family, the cycles its pinned
// calls charged under the legacy ABI and CheriABI, and each pinned
// call's outcome.
type sockEdge struct {
	fam    sockFam
	script string
	cycles [2]uint64
	want   []string
}

var sockEdges = []sockEdge{
	{fam: famUnix, script: "connect-block", cycles: [2]uint64{855, 659}, want: []string{
		"c:connect(C)=parked",
		"s:poll(L)=n=1 rev=0x1",
		"s:accept(L)=n=5 run=c",
		"c:restart=n=0",
		"c:connect(C)=EISCONN",
	}},
	{fam: famUnix, script: "connect-nonblock", cycles: [2]uint64{1239, 945}, want: []string{
		"c:connect(C)=EINPROGRESS",
		"c:poll(C)=n=0 rev=0x0",
		"c:connect(C)=EINPROGRESS",
		"s:accept(L)=n=5",
		"c:poll(C)=n=1 rev=0x4",
		"c:connect(C)=n=0",
		"c:connect(C)=EISCONN",
	}},
	{fam: famUnix, script: "connect-refused", cycles: [2]uint64{913, 668}, want: []string{
		"c:connect(C)=ECONNREFUSED",
		"c:connect(C)=ECONNREFUSED",
		"c:connect(C)=ECONNREFUSED",
		"c:connect(C)=EINPROGRESS",
		"c:poll(C)=n=0 rev=0x0",
	}},
	{fam: famUnix, script: "connect-backlog-full", cycles: [2]uint64{1504, 1051}, want: []string{
		"c:connect(C)=EINPROGRESS",
		"d:connect(D)=ECONNREFUSED",
		"s:poll(L)=n=1 rev=0x1",
		"s:kqueue=n=6",
		"s:kevent(L)=n=1 ev=0xffffffff/1",
		"s:close(kq)=n=0",
		"s:accept(L)=n=6",
		"d:connect(D)=EINPROGRESS",
	}},
	{fam: famUnix, script: "accept", cycles: [2]uint64{920, 773}, want: []string{
		"s:accept(L)=parked",
		"c:connect(C)=EINPROGRESS run=s",
		"s:restart=n=5",
		"s:accept(L)=EAGAIN",
		"c:poll(C)=n=1 rev=0x4",
		"c:connect(C)=n=0",
	}},
	{fam: famUnix, script: "connector-closed", cycles: [2]uint64{1035, 839}, want: []string{
		"c:connect(C)=EINPROGRESS",
		"c:close(C)=n=0",
		"s:poll(L)=n=1 rev=0x1",
		"s:accept(L)=n=4",
		"s:read(A,4)=n=0",
		"s:write(A,4)=EPIPE sigpipe",
	}},
	{fam: famUnix, script: "listener-close", cycles: [2]uint64{998, 753}, want: []string{
		"c:connect(C)=parked",
		"d:connect(D)=EINPROGRESS",
		"s:close(L)=n=0 run=c",
		"c:restart=ECONNREFUSED",
		"d:connect(D)=ECONNREFUSED",
		"d:connect(D)=ECONNREFUSED",
	}},
	{fam: famUnix, script: "connect-connected", cycles: [2]uint64{350, 252}, want: []string{
		"c:connect(C)=EISCONN",
		"s:connect(A)=EISCONN",
	}},
	{fam: famUnix, script: "transfer", cycles: [2]uint64{1289, 946}, want: []string{
		"s:read(A,8)=parked",
		"c:write(C,4)=n=4 run=s",
		"s:restart=n=4",
		"s:write(A,4)=n=4",
		"c:read(C,2)=n=2",
		"c:read(C,8)=n=2",
		"c:read(C,8)=EAGAIN",
	}},
	{fam: famUnix, script: "shut-rd", cycles: [2]uint64{1476, 1133}, want: []string{
		"s:write(A,4)=n=4",
		"c:shutdown(C,RD)=n=0",
		"c:read(C,8)=n=0",
		"c:write(C,4)=n=4",
		"s:read(A,8)=n=4",
		"s:write(A,4)=n=4",
		"c:poll(C)=n=1 rev=0x5",
		"s:poll(A)=n=1 rev=0x4",
	}},
	{fam: famUnix, script: "shut-wr", cycles: [2]uint64{1947, 1506}, want: []string{
		"s:read(A,8)=parked",
		"c:write(C,4)=n=4 run=s",
		"c:shutdown(C,WR)=n=0",
		"s:restart=n=4",
		"s:read(A,8)=n=0",
		"c:write(C,4)=EPIPE sigpipe",
		"s:write(A,4)=n=4",
		"c:read(C,8)=n=4",
		"c:poll(C)=n=1 rev=0x4",
		"s:poll(A)=n=1 rev=0x5",
		"c:shutdown(C,WR)=n=0",
	}},
	{fam: famUnix, script: "shut-rdwr", cycles: [2]uint64{2422, 1773}, want: []string{
		"s:read(A,8)=parked",
		"c:shutdown(C,RDWR)=n=0 run=s",
		"s:restart=n=0",
		"c:read(C,8)=n=0",
		"c:write(C,4)=EPIPE sigpipe",
		"s:write(A,4)=n=4",
		"c:read(C,8)=n=0",
		"c:poll(C)=n=1 rev=0x5",
		"s:poll(A)=n=1 rev=0x5",
		"s:kqueue=n=6",
		"s:kevent(A)=n=2 ev=0xffffffff/0,0xfffffffe/65532",
		"s:close(kq)=n=0",
		"c:shutdown(C,3)=EINVAL",
	}},
	{fam: famUnix, script: "peer-closed", cycles: [2]uint64{2567, 1869}, want: []string{
		"c:read(C,8)=parked",
		"s:write(A,4)=n=4 run=c",
		"c:restart=n=4",
		"s:write(A,4)=n=4",
		"s:close(A)=n=0",
		"c:read(C,2)=n=2",
		"c:read(C,8)=n=2",
		"c:read(C,8)=n=0",
		"c:write(C,4)=EPIPE sigpipe",
		"c:poll(C)=n=1 rev=0x1d",
		"c:kqueue=n=5",
		"c:kevent(C)=n=2 ev=0x8000ffffffff/0,0x8000fffffffe/65536",
		"c:close(kq)=n=0",
		"c:shutdown(C,WR)=n=0",
	}},
	{fam: famUnix, script: "peer-closed-parked", cycles: [2]uint64{645, 498}, want: []string{
		"c:read(C,8)=parked",
		"s:close(A)=n=0 run=c",
		"c:restart=n=0",
		"c:read(C,8)=n=0",
	}},
	{fam: famUnix, script: "names", cycles: [2]uint64{1080, 786}, want: []string{
		"s:sockname(L)=n=0 1/0/0x0",
		"s:peername(L)=ENOTCONN",
		"s:sockname(A)=n=0 1/0/0x0",
		"s:peername(A)=n=0 1/0/0x0",
		"c:sockname(C)=n=0 1/0/0x0",
		"c:peername(C)=n=0 1/0/0x0",
	}},
	{fam: famUnix, script: "depth", cycles: [2]uint64{5960, 3818}, want: []string{
		"s:poll(L)=n=0 rev=0x0",
		"s:kqueue=n=6",
		"s:kevent(L)=n=0 ev=",
		"s:close(kq)=n=0",
		"d:connect(D)=EINPROGRESS",
		"s:poll(L)=n=1 rev=0x1",
		"s:kqueue=n=7",
		"s:kevent(L)=n=1 ev=0xffffffff/1",
		"s:close(kq)=n=0",
		"s:poll(A)=n=1 rev=0x4",
		"s:kqueue=n=7",
		"s:kevent(A)=n=1 ev=0xfffffffe/65536",
		"s:close(kq)=n=0",
		"c:write(C,40)=n=40",
		"s:poll(A)=n=1 rev=0x5",
		"s:kqueue=n=7",
		"s:kevent(A)=n=2 ev=0xffffffff/40,0xfffffffe/65536",
		"s:close(kq)=n=0",
		"c:kqueue=n=7",
		"c:kevent(C)=n=1 ev=0xfffffffe/65496",
		"c:close(kq)=n=0",
		"s:read(A,16)=n=16",
		"s:kqueue=n=7",
		"s:kevent(A)=n=2 ev=0xffffffff/24,0xfffffffe/65536",
		"s:close(kq)=n=0",
		"c:kqueue=n=7",
		"c:kevent(C)=n=1 ev=0xfffffffe/65512",
		"c:close(kq)=n=0",
	}},
	{fam: famInet, script: "connect-block", cycles: [2]uint64{857, 661}, want: []string{
		"c:connect(C)=parked",
		"s:poll(L)=n=1 rev=0x1",
		"s:accept(L)=n=5 run=c",
		"c:restart=n=0",
		"c:connect(C)=EISCONN",
	}},
	{fam: famInet, script: "connect-nonblock", cycles: [2]uint64{1241, 947}, want: []string{
		"c:connect(C)=EINPROGRESS",
		"c:poll(C)=n=0 rev=0x0",
		"c:connect(C)=EINPROGRESS",
		"s:accept(L)=n=5",
		"c:poll(C)=n=1 rev=0x4",
		"c:connect(C)=n=0",
		"c:connect(C)=EISCONN",
	}},
	{fam: famInet, script: "connect-refused", cycles: [2]uint64{921, 676}, want: []string{
		"c:connect(C)=ECONNREFUSED",
		"c:connect(C)=ECONNREFUSED",
		"c:connect(C)=ECONNREFUSED",
		"c:connect(C)=EINPROGRESS",
		"c:poll(C)=n=0 rev=0x0",
	}},
	{fam: famInet, script: "connect-backlog-full", cycles: [2]uint64{1510, 1057}, want: []string{
		"c:connect(C)=EINPROGRESS",
		"d:connect(D)=ECONNREFUSED",
		"s:poll(L)=n=1 rev=0x1",
		"s:kqueue=n=6",
		"s:kevent(L)=n=1 ev=0xffffffff/1",
		"s:close(kq)=n=0",
		"s:accept(L)=n=6",
		"d:connect(D)=EINPROGRESS",
	}},
	{fam: famInet, script: "accept", cycles: [2]uint64{922, 775}, want: []string{
		"s:accept(L)=parked",
		"c:connect(C)=EINPROGRESS run=s",
		"s:restart=n=5",
		"s:accept(L)=EAGAIN",
		"c:poll(C)=n=1 rev=0x4",
		"c:connect(C)=n=0",
	}},
	{fam: famInet, script: "connector-closed", cycles: [2]uint64{1037, 841}, want: []string{
		"c:connect(C)=EINPROGRESS",
		"c:close(C)=n=0",
		"s:poll(L)=n=1 rev=0x1",
		"s:accept(L)=n=4",
		"s:read(A,4)=n=0",
		"s:write(A,4)=EPIPE sigpipe",
	}},
	{fam: famInet, script: "listener-close", cycles: [2]uint64{1004, 759}, want: []string{
		"c:connect(C)=parked",
		"d:connect(D)=EINPROGRESS",
		"s:close(L)=n=0 run=c",
		"c:restart=ECONNREFUSED",
		"d:connect(D)=ECONNREFUSED",
		"d:connect(D)=ECONNREFUSED",
	}},
	{fam: famInet, script: "connect-connected", cycles: [2]uint64{350, 252}, want: []string{
		"c:connect(C)=EISCONN",
		"s:connect(A)=EISCONN",
	}},
	{fam: famInet, script: "transfer", cycles: [2]uint64{1289, 946}, want: []string{
		"s:read(A,8)=parked",
		"c:write(C,4)=n=4 run=s",
		"s:restart=n=4",
		"s:write(A,4)=n=4",
		"c:read(C,2)=n=2",
		"c:read(C,8)=n=2",
		"c:read(C,8)=EAGAIN",
	}},
	{fam: famInet, script: "shut-rd", cycles: [2]uint64{1476, 1133}, want: []string{
		"s:write(A,4)=n=4",
		"c:shutdown(C,RD)=n=0",
		"c:read(C,8)=n=0",
		"c:write(C,4)=n=4",
		"s:read(A,8)=n=4",
		"s:write(A,4)=n=4",
		"c:poll(C)=n=1 rev=0x5",
		"s:poll(A)=n=1 rev=0x4",
	}},
	{fam: famInet, script: "shut-wr", cycles: [2]uint64{1947, 1506}, want: []string{
		"s:read(A,8)=parked",
		"c:write(C,4)=n=4 run=s",
		"c:shutdown(C,WR)=n=0",
		"s:restart=n=4",
		"s:read(A,8)=n=0",
		"c:write(C,4)=EPIPE sigpipe",
		"s:write(A,4)=n=4",
		"c:read(C,8)=n=4",
		"c:poll(C)=n=1 rev=0x4",
		"s:poll(A)=n=1 rev=0x5",
		"c:shutdown(C,WR)=n=0",
	}},
	{fam: famInet, script: "shut-rdwr", cycles: [2]uint64{2422, 1773}, want: []string{
		"s:read(A,8)=parked",
		"c:shutdown(C,RDWR)=n=0 run=s",
		"s:restart=n=0",
		"c:read(C,8)=n=0",
		"c:write(C,4)=EPIPE sigpipe",
		"s:write(A,4)=n=4",
		"c:read(C,8)=n=0",
		"c:poll(C)=n=1 rev=0x5",
		"s:poll(A)=n=1 rev=0x5",
		"s:kqueue=n=6",
		"s:kevent(A)=n=2 ev=0xffffffff/0,0xfffffffe/65532",
		"s:close(kq)=n=0",
		"c:shutdown(C,3)=EINVAL",
	}},
	{fam: famInet, script: "peer-closed", cycles: [2]uint64{2567, 1869}, want: []string{
		"c:read(C,8)=parked",
		"s:write(A,4)=n=4 run=c",
		"c:restart=n=4",
		"s:write(A,4)=n=4",
		"s:close(A)=n=0",
		"c:read(C,2)=n=2",
		"c:read(C,8)=n=2",
		"c:read(C,8)=n=0",
		"c:write(C,4)=EPIPE sigpipe",
		"c:poll(C)=n=1 rev=0x1d",
		"c:kqueue=n=5",
		"c:kevent(C)=n=2 ev=0x8000ffffffff/0,0x8000fffffffe/65536",
		"c:close(kq)=n=0",
		"c:shutdown(C,WR)=n=0",
	}},
	{fam: famInet, script: "peer-closed-parked", cycles: [2]uint64{645, 498}, want: []string{
		"c:read(C,8)=parked",
		"s:close(A)=n=0 run=c",
		"c:restart=n=0",
		"c:read(C,8)=n=0",
	}},
	{fam: famInet, script: "names", cycles: [2]uint64{1080, 786}, want: []string{
		"s:sockname(L)=n=0 2/7000/0x7f000001",
		"s:peername(L)=ENOTCONN",
		"s:sockname(A)=n=0 2/7000/0x7f000001",
		"s:peername(A)=n=0 2/49152/0x7f000001",
		"c:sockname(C)=n=0 2/49152/0x7f000001",
		"c:peername(C)=n=0 2/7000/0x7f000001",
	}},
	{fam: famInet, script: "depth", cycles: [2]uint64{5962, 3820}, want: []string{
		"s:poll(L)=n=0 rev=0x0",
		"s:kqueue=n=6",
		"s:kevent(L)=n=0 ev=",
		"s:close(kq)=n=0",
		"d:connect(D)=EINPROGRESS",
		"s:poll(L)=n=1 rev=0x1",
		"s:kqueue=n=7",
		"s:kevent(L)=n=1 ev=0xffffffff/1",
		"s:close(kq)=n=0",
		"s:poll(A)=n=1 rev=0x4",
		"s:kqueue=n=7",
		"s:kevent(A)=n=1 ev=0xfffffffe/65536",
		"s:close(kq)=n=0",
		"c:write(C,40)=n=40",
		"s:poll(A)=n=1 rev=0x5",
		"s:kqueue=n=7",
		"s:kevent(A)=n=2 ev=0xffffffff/40,0xfffffffe/65536",
		"s:close(kq)=n=0",
		"c:kqueue=n=7",
		"c:kevent(C)=n=1 ev=0xfffffffe/65496",
		"c:close(kq)=n=0",
		"s:read(A,16)=n=16",
		"s:kqueue=n=7",
		"s:kevent(A)=n=2 ev=0xffffffff/24,0xfffffffe/65536",
		"s:close(kq)=n=0",
		"c:kqueue=n=7",
		"c:kevent(C)=n=1 ev=0xfffffffe/65512",
		"c:close(kq)=n=0",
	}},
	{fam: famPair, script: "connect-connected", cycles: [2]uint64{350, 252}, want: []string{
		"c:connect(C)=EISCONN",
		"s:connect(A)=EISCONN",
	}},
	{fam: famPair, script: "transfer", cycles: [2]uint64{1289, 946}, want: []string{
		"s:read(A,8)=parked",
		"c:write(C,4)=n=4 run=s",
		"s:restart=n=4",
		"s:write(A,4)=n=4",
		"c:read(C,2)=n=2",
		"c:read(C,8)=n=2",
		"c:read(C,8)=EAGAIN",
	}},
	{fam: famPair, script: "shut-rd", cycles: [2]uint64{1476, 1133}, want: []string{
		"s:write(A,4)=n=4",
		"c:shutdown(C,RD)=n=0",
		"c:read(C,8)=n=0",
		"c:write(C,4)=n=4",
		"s:read(A,8)=n=4",
		"s:write(A,4)=n=4",
		"c:poll(C)=n=1 rev=0x5",
		"s:poll(A)=n=1 rev=0x4",
	}},
	{fam: famPair, script: "shut-wr", cycles: [2]uint64{1947, 1506}, want: []string{
		"s:read(A,8)=parked",
		"c:write(C,4)=n=4 run=s",
		"c:shutdown(C,WR)=n=0",
		"s:restart=n=4",
		"s:read(A,8)=n=0",
		"c:write(C,4)=EPIPE sigpipe",
		"s:write(A,4)=n=4",
		"c:read(C,8)=n=4",
		"c:poll(C)=n=1 rev=0x4",
		"s:poll(A)=n=1 rev=0x5",
		"c:shutdown(C,WR)=n=0",
	}},
	{fam: famPair, script: "shut-rdwr", cycles: [2]uint64{2422, 1773}, want: []string{
		"s:read(A,8)=parked",
		"c:shutdown(C,RDWR)=n=0 run=s",
		"s:restart=n=0",
		"c:read(C,8)=n=0",
		"c:write(C,4)=EPIPE sigpipe",
		"s:write(A,4)=n=4",
		"c:read(C,8)=n=0",
		"c:poll(C)=n=1 rev=0x5",
		"s:poll(A)=n=1 rev=0x5",
		"s:kqueue=n=5",
		"s:kevent(A)=n=2 ev=0xffffffff/0,0xfffffffe/65532",
		"s:close(kq)=n=0",
		"c:shutdown(C,3)=EINVAL",
	}},
	{fam: famPair, script: "peer-closed", cycles: [2]uint64{2567, 1869}, want: []string{
		"c:read(C,8)=parked",
		"s:write(A,4)=n=4 run=c",
		"c:restart=n=4",
		"s:write(A,4)=n=4",
		"s:close(A)=n=0",
		"c:read(C,2)=n=2",
		"c:read(C,8)=n=2",
		"c:read(C,8)=n=0",
		"c:write(C,4)=EPIPE sigpipe",
		"c:poll(C)=n=1 rev=0x1d",
		"c:kqueue=n=3",
		"c:kevent(C)=n=2 ev=0x8000ffffffff/0,0x8000fffffffe/65536",
		"c:close(kq)=n=0",
		"c:shutdown(C,WR)=n=0",
	}},
	{fam: famPair, script: "peer-closed-parked", cycles: [2]uint64{645, 498}, want: []string{
		"c:read(C,8)=parked",
		"s:close(A)=n=0 run=c",
		"c:restart=n=0",
		"c:read(C,8)=n=0",
	}},
	{fam: famPair, script: "names", cycles: [2]uint64{724, 528}, want: []string{
		"s:sockname(A)=n=0 1/0/0x0",
		"s:peername(A)=n=0 1/0/0x0",
		"c:sockname(C)=n=0 1/0/0x0",
		"c:peername(C)=n=0 1/0/0x0",
	}},
	{fam: famPair, script: "depth", cycles: [2]uint64{4076, 2595}, want: []string{
		"s:poll(A)=n=1 rev=0x4",
		"s:kqueue=n=5",
		"s:kevent(A)=n=1 ev=0xfffffffe/65536",
		"s:close(kq)=n=0",
		"c:write(C,40)=n=40",
		"s:poll(A)=n=1 rev=0x5",
		"s:kqueue=n=5",
		"s:kevent(A)=n=2 ev=0xffffffff/40,0xfffffffe/65536",
		"s:close(kq)=n=0",
		"c:kqueue=n=5",
		"c:kevent(C)=n=1 ev=0xfffffffe/65496",
		"c:close(kq)=n=0",
		"s:read(A,16)=n=16",
		"s:kqueue=n=5",
		"s:kevent(A)=n=2 ev=0xffffffff/24,0xfffffffe/65536",
		"s:close(kq)=n=0",
		"c:kqueue=n=5",
		"c:kevent(C)=n=1 ev=0xfffffffe/65512",
		"c:close(kq)=n=0",
	}},
}

func TestSocketEdges(t *testing.T) {
	for _, r := range sockEdges {
		t.Run(famNames[r.fam]+"/"+r.script, func(t *testing.T) {
			for i, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
				run := newSockRun(t, abi, r.fam)
				sockScripts[r.script](run)
				got, want := strings.Join(run.out, "; "), strings.Join(r.want, "; ")
				if got != want || run.cycles != r.cycles[i] {
					t.Errorf("abi %v:\n got %q, %d cycles\nwant %q, %d cycles", abi, got, run.cycles, want, r.cycles[i])
				}
			}
		})
	}
}
