package kernel

import "cheriabi/internal/cap"

// In-kernel stream sockets over the File layer, in two address families.
//
// AF_UNIX: a socketFile is one endpoint; a connection is a pair of
// endpoints joined by two directional byte buffers and ONE shared wait
// queue — so the generic post-transfer wake in the syscall layer
// (wakeFD) reaches the peer without the File knowing who is parked.
// Connection establishment is a two-phase handshake: connect(2) enqueues
// the caller on the listener's accept queue and parks (or returns
// EINPROGRESS when non-blocking); accept(2) builds the server endpoint,
// wires the buffers, adopts the connector's wait queue as the shared
// connection queue, and wakes it.
//
// AF_INET: endpoints share no Go state — the connection is carried
// entirely by NetPackets through the virtual NIC (netif.go), so the peer
// may live on another simulated machine reached through internal/fabric,
// or on the same machine (loopback, delivered synchronously). Each
// endpoint owns its receive buffer and its own wait queue; packet
// deliveries wake it. Sending is bounded by a sockCap credit window
// (inFlight), returned by Acks as the receiving guest drains.
//
// Either way, readiness for accept, connect completion, data, buffer
// space, EOF, and EPIPE all flow through the same Poll predicate
// select/poll/kevent use, and connects beyond a listener's backlog are
// refused (ECONNREFUSED), never queued unboundedly.

// Socket constants (FreeBSD values).
const (
	AFUnix     = 1
	AFInet     = 2
	SockStream = 1
	ShutRd     = 0
	ShutWr     = 1
	ShutRdWr   = 2
)

// sockCap bounds each direction's in-flight bytes, like pipeCap. For
// AF_INET it is the flow-control credit window per connection.
const sockCap = 64 << 10

// sockState is the endpoint's connection state.
type sockState int

const (
	sockNew        sockState = iota // fresh socket(2) result; bind/connect legal
	sockListening                   // listen(2) called; accept legal
	sockConnecting                  // awaiting accept (queued, or Syn in flight)
	sockConnected                   // data may flow
	sockRefused                     // the connection attempt was refused
)

// sockBuf is one direction of a connection. shut means no further bytes
// will ever arrive (the producing side shut down or closed): consumers
// drain what is buffered, then observe EOF.
type sockBuf struct {
	data []byte
	shut bool
}

// socketFile is one stream endpoint (either family).
type socketFile struct {
	baseFile
	k       *Kernel
	domain  int // AFUnix or AFInet
	state   sockState
	path    string        // AF_UNIX: bound address, "" if unbound
	backlog int           // listener: accept-queue bound
	pending []*socketFile // AF_UNIX listener: connectors awaiting accept, FIFO
	q       *WaitQueue    // AF_UNIX: shared with the peer once connected
	peer    *socketFile   // AF_UNIX only
	recv    *sockBuf      // bytes flowing to this endpoint
	send    *sockBuf      // AF_UNIX: bytes flowing to the peer
	// recvShut/sendShut record shutdown(2) on this endpoint: SHUT_RD makes
	// local reads EOF immediately; SHUT_WR makes local writes EPIPE (the
	// peer drains, then sees EOF).
	recvShut bool
	sendShut bool
	peerGone bool // the peer endpoint closed
	// waitingOn is the listener a sockConnecting AF_UNIX endpoint is
	// queued on, so closing the endpoint can withdraw it from the queue.
	waitingOn *socketFile
	// connReported distinguishes "the connect(2) that initiated this
	// connection is reporting success (possibly restarted after parking)"
	// from a second user connect on an established socket (EISCONN).
	connReported bool

	// AF_INET state. addr/port are the local binding, peerAddr/peerPort
	// the remote one; connID is this endpoint's id in k.netConns and
	// peerConn the peer's id on its machine (packet addressing). inFlight
	// counts sent-but-unacknowledged payload bytes against sockCap;
	// pendingSyn is a listener's not-yet-accepted connection requests.
	addr, port         uint64
	peerAddr, peerPort uint64
	connID, peerConn   int
	inFlight           int
	pendingSyn         []*NetPacket
}

func newSocketFile(k *Kernel, domain int) *socketFile {
	return &socketFile{k: k, domain: domain, q: &WaitQueue{}}
}

func (s *socketFile) Queue() *WaitQueue { return s.q }

// Poll is the single readiness predicate every blocking path shares.
// "Progress" includes error returns: a refused connector polls ready (the
// restarted connect reports ECONNREFUSED), an unconnected socket polls
// ready (recv/send report ENOTCONN), and a closed peer polls ready in
// both directions (EOF in, EPIPE out).
func (s *socketFile) Poll(kind PollKind) bool {
	switch s.state {
	case sockListening:
		return kind == PollIn && len(s.pending)+len(s.pendingSyn) > 0
	case sockConnecting:
		return false // completion is observed as writability after accept
	case sockConnected:
		switch kind {
		case PollIn:
			return len(s.recv.data) > 0 || s.recv.shut || s.recvShut || s.peerGone
		case PollOut:
			if s.sendShut || s.peerGone {
				return true
			}
			if s.domain == AFInet {
				return s.inFlight < sockCap
			}
			return len(s.send.data) < sockCap
		default:
			// PollHup only when the peer endpoint is gone. A half-close
			// (peer SHUT_WR) is orderly EOF, not a hang-up: the local end
			// can still write.
			return s.peerGone
		}
	case sockRefused:
		return true // the failed connect is observable every way
	default: // sockNew: operations fail immediately, but nothing hung up
		return kind != PollHup
	}
}

// PollDepth quantifies readiness for kevent's data field: a listener's
// EVFILT_READ depth is its pending-connection backlog count (kqueue(2)'s
// listen-socket rule), a connected endpoint's is the buffered byte count
// in the polled direction (send space for EVFILT_WRITE).
func (s *socketFile) PollDepth(kind PollKind) int64 {
	switch s.state {
	case sockListening:
		if kind == PollIn {
			return int64(len(s.pending) + len(s.pendingSyn))
		}
	case sockConnected:
		if kind == PollIn {
			return int64(len(s.recv.data))
		}
		if s.domain == AFInet {
			return int64(sockCap - s.inFlight)
		}
		return int64(sockCap - len(s.send.data))
	}
	return 0
}

func (s *socketFile) Read(b []byte, _ int64) (int, Errno) {
	if s.state != sockConnected {
		return 0, ENOTCONN
	}
	if s.recvShut || len(s.recv.data) == 0 {
		// Poll gated the would-block case, so an empty buffer here means
		// the stream is finished: EOF (recv.shut or peerGone).
		return 0, OK
	}
	var n int
	s.recv.data, n = queueRead(s.recv.data, b)
	if s.domain == AFInet && !s.peerGone && n > 0 {
		// Credit return: the guest drained n bytes, so the peer may send
		// n more (loopback delivers the Ack synchronously, waking the
		// peer's queue; cross-machine it rides the fabric).
		pkt := s.netHeader(NetAck)
		pkt.N = n
		s.k.netEmit(pkt)
	}
	return n, OK
}

func (s *socketFile) Write(b []byte, _ int64) (int, Errno) {
	if s.state != sockConnected {
		return 0, ENOTCONN
	}
	if s.sendShut || s.peerGone {
		return 0, EPIPE
	}
	if s.domain == AFInet {
		n := len(b)
		if space := sockCap - s.inFlight; n > space {
			n = space
		}
		if n == 0 {
			return 0, OK // nothing to carry: no packet
		}
		s.inFlight += n
		pkt := s.netHeader(NetData)
		pkt.Data = append([]byte(nil), b[:n]...)
		s.k.netEmit(pkt)
		return n, OK
	}
	n := len(b)
	if space := sockCap - len(s.send.data); n > space {
		n = space
	}
	s.send.data = queueWrite(s.send.data, b[:n], sockCap)
	return n, OK
}

func (s *socketFile) Close(k *Kernel) {
	switch s.state {
	case sockListening:
		// Refuse every queued connector.
		for _, c := range s.pending {
			c.state = sockRefused
			c.waitingOn = nil
			c.q.Wake(k)
		}
		s.pending = nil
		for _, syn := range s.pendingSyn {
			k.netEmit(k.netReply(syn, NetRst, 0))
		}
		s.pendingSyn = nil
	case sockConnecting:
		// AF_UNIX: withdraw from the listener's accept queue — a closed
		// endpoint must never be wired up by a later accept. AF_INET: the
		// Syn may be in flight; dropping the conn id means a late SynAck
		// finds nobody and is answered with Rst, tearing down the server
		// endpoint (netif.go).
		if l := s.waitingOn; l != nil {
			for i, c := range l.pending {
				if c == s {
					l.pending = append(l.pending[:i], l.pending[i+1:]...)
					break
				}
			}
			s.waitingOn = nil
		}
	case sockConnected:
		if s.domain == AFInet {
			if !s.peerGone {
				fin := s.netHeader(NetFin)
				fin.Close = true
				k.netEmit(fin)
			}
		} else {
			if s.peer != nil {
				s.peer.peerGone = true
			}
			s.send.shut = true
		}
	}
	if s.path != "" && k.unixNS[s.path] == s {
		delete(k.unixNS, s.path)
	}
	if s.port != 0 && k.inetNS[s.port] == s {
		delete(k.inetNS, s.port)
	}
	if s.connID != 0 {
		delete(k.netConns, s.connID)
		s.connID = 0
	}
	s.state = sockRefused // any late operation fails fast
	s.q.Wake(k)
}

func (s *socketFile) Stat() FileStat {
	var size int64
	if s.recv != nil {
		size = int64(len(s.recv.data))
	}
	return FileStat{Size: size, Kind: StatSock}
}

// wireSockets joins two AF_UNIX endpoints into a connection: two
// directional buffers and one shared wait queue (q), which must already
// be the queue any parked party subscribed to.
func wireSockets(a, b *socketFile, q *WaitQueue) {
	ab, ba := &sockBuf{}, &sockBuf{}
	a.send, b.recv = ab, ab
	b.send, a.recv = ba, ba
	a.peer, b.peer = b, a
	a.q, b.q = q, q
	a.state, b.state = sockConnected, sockConnected
}

// sockFD fetches fd as a socket endpoint.
func sockFD(p *Proc, fd int) (*FDesc, *socketFile, Errno) {
	f := p.fd(fd)
	if f == nil {
		return nil, nil, EBADF
	}
	s, ok := f.file.(*socketFile)
	if !ok {
		return nil, nil, ENOTSOCK
	}
	return f, s, OK
}

func sysSocket(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	domain := int(a.Int(0))
	if domain != AFUnix && domain != AFInet {
		return Err(EAFNOSUPPORT) // unknown address family
	}
	if a.Int(1) != SockStream || a.Int(2) != 0 {
		return Err(EINVAL) // only default-protocol stream sockets
	}
	fd := t.Proc.allocFD(&FDesc{file: newSocketFile(k, domain), flags: ORdWr, refs: 1})
	return Ret(uint64(fd))
}

// sysSocketpair builds an already-connected pair, like pipe(2) but
// bidirectional; the two fds land in an 8-byte-slot array. AF_UNIX only,
// as on FreeBSD.
func sysSocketpair(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	if a.Int(0) != AFUnix {
		return Err(EAFNOSUPPORT)
	}
	if a.Int(1) != SockStream || a.Int(2) != 0 {
		return Err(EINVAL)
	}
	sv := a.Ptr(0)
	s1, s2 := newSocketFile(k, AFUnix), newSocketFile(k, AFUnix)
	wireSockets(s1, s2, &WaitQueue{})
	// No connect(2) initiated these connections, so there is no pending
	// success to report: a user connect on either end is EISCONN.
	s1.connReported, s2.connReported = true, true
	fd1 := p.allocFD(&FDesc{file: s1, flags: ORdWr, refs: 1})
	fd2 := p.allocFD(&FDesc{file: s2, flags: ORdWr, refs: 1})
	if e := k.writeUserWord(sv, sv.Addr(), 8, uint64(fd1)); e != OK {
		return Err(e)
	}
	if e := k.writeUserWord(sv, sv.Addr()+8, 8, uint64(fd2)); e != OK {
		return Err(e)
	}
	return Ret(0)
}

// readSockaddrIn copies in a guest struct sockaddr_in — three 8-byte
// MiniC ints {family, port, addr} — through the materialized capability.
func (k *Kernel) readSockaddrIn(sa cap.Capability) (family, port, addr uint64, e Errno) {
	base := sa.Addr()
	if family, e = k.readUserWord(sa, base, 8); e != OK {
		return
	}
	if port, e = k.readUserWord(sa, base+8, 8); e != OK {
		return
	}
	addr, e = k.readUserWord(sa, base+16, 8)
	return
}

// writeSockaddrIn fills a guest struct sockaddr_in.
func (k *Kernel) writeSockaddrIn(sa cap.Capability, family, port, addr uint64) Errno {
	base := sa.Addr()
	if e := k.writeUserWord(sa, base, 8, family); e != OK {
		return e
	}
	if e := k.writeUserWord(sa, base+8, 8, port); e != OK {
		return e
	}
	return k.writeUserWord(sa, base+16, 8, addr)
}

// sysBind registers the socket's address. The AF_UNIX sockaddr is the
// path string itself (the address of an AF_UNIX socket IS a filesystem
// path; relative paths resolve against the CWD like open); the AF_INET
// sockaddr is a struct sockaddr_in, and binds claim the port in the
// machine's inet namespace (addr 0 is INADDR_ANY; otherwise it must name
// this machine).
func sysBind(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	_, s, e := sockFD(p, int(a.Int(0)))
	if e != OK {
		return Err(e)
	}
	if s.domain == AFInet {
		family, port, addr, e := k.readSockaddrIn(a.Ptr(0))
		if e != OK {
			return Err(e)
		}
		if family != AFInet {
			return Err(EAFNOSUPPORT)
		}
		if port == 0 || port > 65535 || (addr != 0 && !k.netLocal(addr)) {
			return Err(EINVAL)
		}
		if s.state != sockNew || s.port != 0 {
			return Err(EINVAL)
		}
		if k.inetNS[port] != nil {
			return Err(EADDRINUSE)
		}
		k.inetNS[port] = s
		s.port = port
		s.addr = k.netAddr
		return Ret(0)
	}
	path, e := k.copyInStr(a.Ptr(0))
	if e != OK {
		return Err(e)
	}
	if path == "" {
		return Err(EINVAL)
	}
	if path[0] != '/' {
		path = p.CWD + "/" + path
	}
	if s.state != sockNew || s.path != "" {
		return Err(EINVAL)
	}
	if k.unixNS[path] != nil {
		return Err(EADDRINUSE)
	}
	k.unixNS[path] = s
	s.path = path
	return Ret(0)
}

func sysListen(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	_, s, e := sockFD(t.Proc, int(a.Int(0)))
	if e != OK {
		return Err(e)
	}
	bound := s.path != "" || s.port != 0
	if !bound || s.state != sockNew && s.state != sockListening {
		return Err(EINVAL)
	}
	backlog := int(int64(a.Int(1)))
	if backlog <= 0 {
		backlog = 8
	}
	if backlog > 64 {
		backlog = 64
	}
	s.state = sockListening
	s.backlog = backlog
	return Ret(0)
}

// sysConnect initiates (or, restarted after a wake, completes) a
// connection. Blocking connects park on the endpoint's own queue until
// the connection completes — an AF_UNIX accept adopts the queue and
// wakes it; an AF_INET SynAck delivery wakes it — and non-blocking
// connects return EINPROGRESS, with completion observed as poll/select
// writability and the follow-up connect returning 0. A connect that hits
// a full listener backlog (either family) is refused: ECONNREFUSED, with
// the socket reusable for a later retry.
func sysConnect(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	f, s, e := sockFD(p, int(a.Int(0)))
	if e != OK {
		return Err(e)
	}
	switch s.state {
	case sockConnected:
		if !s.connReported {
			s.connReported = true
			return Ret(0)
		}
		return Err(EISCONN)
	case sockConnecting:
		if f.nonblock() {
			return Err(EINPROGRESS)
		}
		t.blockOn(s.q)
		return Err(EJUSTRETURN)
	case sockRefused:
		s.state = sockNew // a later retry may succeed
		return Err(ECONNREFUSED)
	case sockListening:
		return Err(EINVAL)
	}
	if s.domain == AFInet {
		family, port, addr, e := k.readSockaddrIn(a.Ptr(0))
		if e != OK {
			return Err(e)
		}
		if family != AFInet {
			return Err(EAFNOSUPPORT)
		}
		if port == 0 || port > 65535 {
			return Err(EINVAL)
		}
		s.addr = k.netAddr
		k.nextPort++
		s.port = k.nextPort - 1
		s.peerAddr, s.peerPort = addr, port
		k.netAllocConn(s)
		s.state = sockConnecting
		k.netEmit(&NetPacket{
			Kind:    NetSyn,
			SrcAddr: s.addr, SrcPort: s.port,
			DstAddr: addr, DstPort: port,
			SrcConn: s.connID,
		})
		// Loopback (and unreachable-destination) refusals arrive
		// synchronously, inside the netEmit above: report them now, as
		// FreeBSD does for a local connect, leaving the socket reusable.
		if s.state == sockRefused {
			s.state = sockNew
			return Err(ECONNREFUSED)
		}
		if f.nonblock() {
			return Err(EINPROGRESS)
		}
		t.blockOn(s.q)
		return Err(EJUSTRETURN)
	}
	path, e := k.copyInStr(a.Ptr(0))
	if e != OK {
		return Err(e)
	}
	if path != "" && path[0] != '/' {
		path = p.CWD + "/" + path
	}
	l := k.unixNS[path]
	if l == nil || l.state != sockListening {
		return Err(ECONNREFUSED)
	}
	if len(l.pending) >= l.backlog {
		// listen(2)'s backlog is a hard bound: refuse instead of queueing
		// unboundedly. The caller may retry after the server accepts.
		return Err(ECONNREFUSED)
	}
	s.state = sockConnecting
	s.waitingOn = l
	l.pending = append(l.pending, s)
	l.q.Wake(k) // accept(2) waiters
	if f.nonblock() {
		return Err(EINPROGRESS)
	}
	t.blockOn(s.q)
	return Err(EJUSTRETURN)
}

func sysAccept(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	f, s, e := sockFD(p, int(a.Int(0)))
	if e != OK {
		return Err(e)
	}
	if s.state != sockListening {
		return Err(EINVAL)
	}
	if s.domain == AFInet {
		if len(s.pendingSyn) == 0 {
			if f.nonblock() {
				return Err(EAGAIN)
			}
			t.blockOn(s.q)
			return Err(EJUSTRETURN)
		}
		syn := s.pendingSyn[0]
		s.pendingSyn = s.pendingSyn[1:]
		srv := newSocketFile(k, AFInet)
		srv.connReported = true // connect on the server endpoint is EISCONN
		srv.state = sockConnected
		srv.recv = &sockBuf{}
		srv.addr, srv.port = s.addr, s.port
		srv.peerAddr, srv.peerPort = syn.SrcAddr, syn.SrcPort
		srv.peerConn = syn.SrcConn
		k.netAllocConn(srv)
		// Complete the connector's handshake. If it closed while the Syn
		// was queued, this SynAck finds no connection and bounces back as
		// Rst, tearing srv down again.
		k.netEmit(srv.netHeader(NetSynAck))
		fd := p.allocFD(&FDesc{file: srv, flags: ORdWr, refs: 1})
		return Ret(uint64(fd))
	}
	if len(s.pending) == 0 {
		if f.nonblock() {
			return Err(EAGAIN)
		}
		t.blockOn(s.q)
		return Err(EJUSTRETURN)
	}
	c := s.pending[0]
	s.pending = s.pending[1:]
	c.waitingOn = nil
	// The connector's in-flight connect still owes a success report; the
	// server-side endpoint never had one, so connect on it is EISCONN.
	srv := &socketFile{k: k, domain: AFUnix, connReported: true}
	connq := c.q // the connector may be parked on it; adopt it as shared
	wireSockets(c, srv, connq)
	connq.Wake(k) // complete the connector's connect(2)
	fd := p.allocFD(&FDesc{file: srv, flags: ORdWr, refs: 1})
	return Ret(uint64(fd))
}

func sysShutdown(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	_, s, e := sockFD(t.Proc, int(a.Int(0)))
	if e != OK {
		return Err(e)
	}
	if s.state != sockConnected {
		return Err(ENOTCONN)
	}
	how := int(a.Int(1))
	if how < ShutRd || how > ShutRdWr {
		return Err(EINVAL)
	}
	if how == ShutRd || how == ShutRdWr {
		s.recvShut = true
	}
	if how == ShutWr || how == ShutRdWr {
		alreadyShut := s.sendShut
		s.sendShut = true
		if s.domain == AFInet {
			if !alreadyShut && !s.peerGone {
				k.netEmit(s.netHeader(NetFin)) // peer drains, then EOF
			}
		} else {
			s.send.shut = true // the peer drains, then observes EOF
		}
	}
	s.q.Wake(k)
	return Ret(0)
}

// sysGetsockname / sysGetpeername fill a struct sockaddr_in with the
// local / remote address of the endpoint. For AF_UNIX sockets only the
// family field is meaningful (the path does not fit the fixed struct);
// getpeername requires a connected socket.
func sysGetsockname(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	_, s, e := sockFD(t.Proc, int(a.Int(0)))
	if e != OK {
		return Err(e)
	}
	if e := k.writeSockaddrIn(a.Ptr(0), uint64(s.domain), s.port, s.addr); e != OK {
		return Err(e)
	}
	return Ret(0)
}

func sysGetpeername(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	_, s, e := sockFD(t.Proc, int(a.Int(0)))
	if e != OK {
		return Err(e)
	}
	if s.state != sockConnected {
		return Err(ENOTCONN)
	}
	if e := k.writeSockaddrIn(a.Ptr(0), uint64(s.domain), s.peerPort, s.peerAddr); e != OK {
		return Err(e)
	}
	return Ret(0)
}

// sysSend and sysRecv are send(fd, buf, n, flags) / recv(fd, buf, n,
// flags): write and read over a socket descriptor (flags are accepted and
// ignored — no MSG_* semantics exist here; O_NONBLOCK governs blocking,
// as with plain read/write on the socket).
func sysSend(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	f, _, e := sockFD(t.Proc, int(a.Int(0)))
	if e != OK {
		return Err(e)
	}
	return k.writeFD(t, f, ioReq{buf: a.Ptr(0), n: a.Int(1)})
}

func sysRecv(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	f, _, e := sockFD(t.Proc, int(a.Int(0)))
	if e != OK {
		return Err(e)
	}
	return k.readFD(t, f, ioReq{buf: a.Ptr(0), n: a.Int(1)})
}
