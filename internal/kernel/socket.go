package kernel

import "cheriabi/internal/cap"

// In-kernel stream sockets over the File layer, in two address families
// that differ only in how an address is named. A socketFile is one
// endpoint; a connection is two endpoints that share no Go state. Every
// connection, AF_UNIX or AF_INET, is carried by the NetPackets of the
// virtual NIC (netif.go): a Syn/SynAck handshake, Data into the
// receiver's buffer, Acks returning flow-control credit, Fin for
// shutdown and close, Rst for refusal and teardown. Each endpoint owns
// its receive buffer and its wait queue, and a delivery wakes the queue
// of the endpoint it reaches, so a transfer wakes the peer through the
// packet and the caller through the syscall layer's generic post-transfer
// wake (wakeFD).
//
// An AF_INET peer may live on another simulated machine reached through
// internal/fabric, or on this one (loopback, delivered synchronously). An
// AF_UNIX address is a path in the machine's unixNS: connect hands its
// Syn straight to the listener the path names, and every later packet
// goes over loopback by connection id. socketpair(2) registers two
// AF_UNIX endpoints as each other's peer, already connected.
//
// Readiness for accept, connect completion, data, buffer space, EOF, and
// EPIPE all flow through the same Poll predicate select/poll/kevent use,
// and connects beyond a listener's backlog are refused (ECONNREFUSED),
// never queued unboundedly.

// Socket constants (FreeBSD values).
const (
	AFUnix     = 1
	AFInet     = 2
	SockStream = 1
	ShutRd     = 0
	ShutWr     = 1
	ShutRdWr   = 2
)

// sockCap is each connection's flow-control credit window per direction:
// a sender may have at most sockCap bytes sent and not yet drained by the
// receiving guest, so a receive buffer never holds more.
const sockCap = 64 << 10

// sockState is the endpoint's connection state.
type sockState int

const (
	sockNew        sockState = iota // fresh socket(2) result; bind/connect legal
	sockListening                   // listen(2) called; accept legal
	sockConnecting                  // Syn sent, awaiting the accept's SynAck
	sockConnected                   // data may flow
	sockRefused                     // the connection attempt was refused
)

// socketFile is one stream endpoint (either family).
type socketFile struct {
	baseFile
	k       *Kernel
	domain  int // AFUnix or AFInet
	state   sockState
	path    string // AF_UNIX: bound address, "" if unbound
	backlog int    // listener: accept-queue bound
	q       WaitQueue
	// recv holds the bytes delivered and not yet read; eof means no
	// further bytes will arrive (the peer shut down or closed): readers
	// drain what is buffered, then observe EOF.
	recv []byte
	eof  bool
	// recvShut/sendShut record shutdown(2) on this endpoint: SHUT_RD makes
	// local reads EOF immediately; SHUT_WR makes local writes EPIPE (the
	// peer drains, then sees EOF).
	recvShut bool
	sendShut bool
	peerGone bool // the peer endpoint closed
	// connReported distinguishes "the connect(2) that initiated this
	// connection is reporting success (possibly restarted after parking)"
	// from a second user connect on an established socket (EISCONN).
	connReported bool

	// Packet addressing. addr/port are the local binding, peerAddr/peerPort
	// the remote one (an AF_UNIX endpoint sits at NetLoopback, port 0);
	// connID is this endpoint's id in k.netConns and peerConn the peer's
	// id on its machine. inFlight counts sent-but-undrained payload bytes
	// against sockCap; pendingSyn is a listener's not-yet-accepted
	// connection requests.
	addr, port         uint64
	peerAddr, peerPort uint64
	connID, peerConn   int
	inFlight           int
	pendingSyn         []NetPacket
}

func newSocketFile(k *Kernel, domain int) *socketFile {
	return &socketFile{k: k, domain: domain}
}

func (s *socketFile) Queue() *WaitQueue { return &s.q }

// Poll is the single readiness predicate every blocking path shares.
// "Progress" includes error returns: a refused connector polls ready (the
// restarted connect reports ECONNREFUSED), an unconnected socket polls
// ready (recv/send report ENOTCONN), and a closed peer polls ready in
// both directions (EOF in, EPIPE out).
func (s *socketFile) Poll(kind PollKind) bool {
	switch s.state {
	case sockListening:
		return kind == PollIn && len(s.pendingSyn) > 0
	case sockConnecting:
		return false // completion is observed as writability after accept
	case sockConnected:
		switch kind {
		case PollIn:
			return len(s.recv) > 0 || s.eof || s.recvShut || s.peerGone
		case PollOut:
			return s.sendShut || s.peerGone || s.inFlight < sockCap
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
// in the polled direction (send credit for EVFILT_WRITE).
func (s *socketFile) PollDepth(kind PollKind) int64 {
	switch s.state {
	case sockListening:
		if kind == PollIn {
			return int64(len(s.pendingSyn))
		}
	case sockConnected:
		if kind == PollIn {
			return int64(len(s.recv))
		}
		return int64(sockCap - s.inFlight)
	}
	return 0
}

func (s *socketFile) Read(b []byte, _ int64) (int, Errno) {
	if s.state != sockConnected {
		return 0, ENOTCONN
	}
	if s.recvShut || len(s.recv) == 0 {
		// Poll gated the would-block case, so an empty buffer here means
		// the stream is finished: EOF (eof or peerGone).
		return 0, OK
	}
	var n int
	s.recv, n = queueRead(s.recv, b)
	if !s.peerGone && n > 0 {
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
	n := min(len(b), sockCap-s.inFlight)
	if n == 0 {
		return 0, OK // nothing to carry: no packet
	}
	s.inFlight += n
	// The payload aliases the caller's staging buffer: a local delivery
	// copies it into the receiver's buffer, and netEmit clones it for a
	// packet that leaves the machine.
	pkt := s.netHeader(NetData)
	pkt.Data = b[:n]
	s.k.netEmit(pkt)
	return n, OK
}

func (s *socketFile) Close(k *Kernel) {
	switch s.state {
	case sockListening:
		// Refuse every queued connector.
		for _, syn := range s.pendingSyn {
			k.netEmit(k.netReply(syn, NetRst, 0))
		}
		s.pendingSyn = nil
	case sockConnected:
		if !s.peerGone {
			fin := s.netHeader(NetFin)
			fin.Close = true
			k.netEmit(fin)
		}
	}
	if s.path != "" && k.unixNS[s.path] == s {
		delete(k.unixNS, s.path)
	}
	if s.port != 0 && k.inetNS[s.port] == s {
		delete(k.inetNS, s.port)
	}
	// A connector's Syn may still be queued at the listener; dropping the
	// conn id means the accept's SynAck finds nobody and is answered with
	// Rst, leaving the server endpoint with its peer gone (netif.go).
	if s.connID != 0 {
		delete(k.netConns, s.connID)
		s.connID = 0
	}
	s.state = sockRefused // any late operation fails fast
	s.q.Wake(k)
}

func (s *socketFile) Stat() FileStat {
	return FileStat{Size: int64(len(s.recv)), Kind: StatSock}
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
	s1, s2 := k.socketPair()
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

// socketPair registers two AF_UNIX endpoints as each other's peer
// connection, already connected. No connect(2) initiated the connection,
// so there is no pending success to report: a user connect on either end
// is EISCONN.
func (k *Kernel) socketPair() (*socketFile, *socketFile) {
	s1, s2 := newSocketFile(k, AFUnix), newSocketFile(k, AFUnix)
	k.netAllocConn(s1)
	k.netAllocConn(s2)
	for _, s := range []*socketFile{s1, s2} {
		s.addr, s.peerAddr = NetLoopback, NetLoopback
		s.state, s.connReported = sockConnected, true
	}
	s1.peerConn, s2.peerConn = s2.connID, s1.connID
	return s1, s2
}

// readSockaddrIn copies in a guest struct sockaddr_in — three 8-byte
// MiniC ints {family, port, addr} — through the materialized capability.
// Another family is EAFNOSUPPORT, a port outside [1, 65535] EINVAL.
func (k *Kernel) readSockaddrIn(sa cap.Capability) (port, addr uint64, e Errno) {
	base := sa.Addr()
	family, e := k.readUserWord(sa, base, 8)
	if e != OK {
		return
	}
	if port, e = k.readUserWord(sa, base+8, 8); e != OK {
		return
	}
	if addr, e = k.readUserWord(sa, base+16, 8); e != OK {
		return
	}
	switch {
	case family != AFInet:
		e = EAFNOSUPPORT
	case port == 0 || port > 65535:
		e = EINVAL
	}
	return
}

// unixPath copies in an AF_UNIX address, a path string, and resolves a
// relative one against the CWD, as open does.
func (k *Kernel) unixPath(p *Proc, sa cap.Capability) (string, Errno) {
	path, e := k.copyInStr(sa)
	if e == OK && path != "" && path[0] != '/' {
		path = p.CWD + "/" + path
	}
	return path, e
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
		port, addr, e := k.readSockaddrIn(a.Ptr(0))
		if e != OK {
			return Err(e)
		}
		if addr != 0 && !k.netLocal(addr) || s.state != sockNew || s.port != 0 {
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
	path, e := k.unixPath(p, a.Ptr(0))
	if e != OK {
		return Err(e)
	}
	if path == "" {
		return Err(EINVAL)
	}
	if s.state != sockNew || s.path != "" {
		return Err(EINVAL)
	}
	if k.unixNS[path] != nil {
		return Err(EADDRINUSE)
	}
	k.unixNS[path] = s
	s.path = path
	s.addr = NetLoopback // where the endpoints this listener accepts sit
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
// connection. It resolves the address per family, then sends a Syn to the
// listener: an AF_INET Syn through the NIC, which finds the listener by
// port, and an AF_UNIX Syn straight to the listener its path names.
// Blocking connects park on the endpoint's own queue until the accept's
// SynAck wakes it, and non-blocking connects return EINPROGRESS, with
// completion observed as poll/select writability and the follow-up
// connect returning 0. A connect that hits a full listener backlog, or
// finds no listener, is refused: ECONNREFUSED, with the socket reusable
// for a later retry.
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
		t.blockOn(&s.q)
		return Err(EJUSTRETURN)
	case sockRefused:
		s.state = sockNew // a later retry may succeed
		return Err(ECONNREFUSED)
	case sockListening:
		return Err(EINVAL)
	}
	var l *socketFile // AF_UNIX: the listener the path names, if any
	if s.domain == AFInet {
		port, addr, e := k.readSockaddrIn(a.Ptr(0))
		if e != OK {
			return Err(e)
		}
		s.addr = k.netAddr
		k.nextPort++
		s.port = k.nextPort - 1
		s.peerAddr, s.peerPort = addr, port
	} else {
		path, e := k.unixPath(p, a.Ptr(0))
		if e != OK {
			return Err(e)
		}
		l = k.unixNS[path]
		s.addr, s.peerAddr = NetLoopback, NetLoopback
	}
	k.netAllocConn(s)
	s.state = sockConnecting
	if s.domain == AFUnix {
		k.synArrive(l, s.netHeader(NetSyn)) // no port demux: the path named l
	} else {
		k.netEmit(s.netHeader(NetSyn))
	}
	// Local refusals arrive synchronously, inside the send above: report
	// them now, as FreeBSD does for a local connect, leaving the socket
	// reusable.
	if s.state == sockRefused {
		s.state = sockNew
		return Err(ECONNREFUSED)
	}
	if f.nonblock() {
		return Err(EINPROGRESS)
	}
	t.blockOn(&s.q)
	return Err(EJUSTRETURN)
}

// sysAccept takes the oldest queued Syn, builds the server endpoint and
// completes the connector's handshake with a SynAck.
func sysAccept(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	f, s, e := sockFD(p, int(a.Int(0)))
	if e != OK {
		return Err(e)
	}
	if s.state != sockListening {
		return Err(EINVAL)
	}
	if len(s.pendingSyn) == 0 {
		if f.nonblock() {
			return Err(EAGAIN)
		}
		t.blockOn(&s.q)
		return Err(EJUSTRETURN)
	}
	syn := s.pendingSyn[0]
	s.pendingSyn = s.pendingSyn[:copy(s.pendingSyn, s.pendingSyn[1:])]
	srv := newSocketFile(k, s.domain)
	srv.connReported = true // connect on the server endpoint is EISCONN
	srv.state = sockConnected
	srv.addr, srv.port = s.addr, s.port
	srv.peerAddr, srv.peerPort = syn.SrcAddr, syn.SrcPort
	srv.peerConn = syn.SrcConn
	k.netAllocConn(srv)
	// Complete the connector's handshake. If it closed while the Syn was
	// queued, this SynAck finds no connection and bounces back as Rst,
	// leaving srv with its peer gone.
	k.netEmit(srv.netHeader(NetSynAck))
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
		if !s.sendShut && !s.peerGone {
			k.netEmit(s.netHeader(NetFin)) // peer drains, then EOF
		}
		s.sendShut = true
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
	if e := k.writeSockaddr(a.Ptr(0), s, s.port, s.addr); e != OK {
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
	if e := k.writeSockaddr(a.Ptr(0), s, s.peerPort, s.peerAddr); e != OK {
		return Err(e)
	}
	return Ret(0)
}

// writeSockaddr fills a guest struct sockaddr_in with s's family and
// port and addr; an AF_UNIX name carries the family alone.
func (k *Kernel) writeSockaddr(sa cap.Capability, s *socketFile, port, addr uint64) Errno {
	if s.domain == AFUnix {
		port, addr = 0, 0
	}
	base := sa.Addr()
	if e := k.writeUserWord(sa, base, 8, uint64(s.domain)); e != OK {
		return e
	}
	if e := k.writeUserWord(sa, base+8, 8, port); e != OK {
		return e
	}
	return k.writeUserWord(sa, base+16, 8, addr)
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
