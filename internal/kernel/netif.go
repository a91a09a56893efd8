package kernel

import "bytes"

// The virtual NIC: the kernel side of the network fabric, and the one
// protocol every stream connection speaks (socket.go). Two endpoints of a
// connection never share Go state: everything a connection does
// (handshake, data, credit return, teardown) is a NetPacket, so the
// endpoints of an AF_INET connection may live on different simulated
// machines joined by internal/fabric, or on the same machine (loopback),
// with identical semantics; an AF_UNIX connection is always loopback.
//
// Delivery model:
//
//   - Packets addressed to the machine itself (its fabric address or
//     127.0.0.1) are delivered synchronously, inside the emitting
//     syscall, and passed by value: a Data payload aliases the sender's
//     staging buffer until the receiver copies it, so loopback traffic
//     allocates nothing. A single-machine posix-inet run therefore needs
//     no fabric and stays bit-identical across the differential config
//     matrix.
//   - Packets addressed elsewhere are queued on the NIC's outbound ring,
//     their payload cloned; the fabric drains it between scheduling
//     slices, assigns seeded integer-cycle latency, and calls
//     DeliverNetPacket on the target machine when its virtual clock
//     reaches the delivery time. An unattached machine treats every
//     remote address as unreachable (connects are refused).
//
// Flow control is a credit scheme bounded by sockCap: a sender may have
// at most sockCap un-acknowledged payload bytes per connection
// (socketFile.inFlight); the receiving kernel returns credit with an Ack
// carrying the byte count each time the guest drains its receive buffer.
// The receive buffer therefore never exceeds sockCap, and every delivery
// that changes an endpoint's readiness wakes the endpoint's queue.
//
// Payload bytes cross guest<->kernel exclusively through writeFD /
// readFD's uaccess staging, so the guest<->NIC boundary inherits the
// same capability checks as every other kernel crossing; the NIC only
// ever touches kernel-side staged copies.

// NetLoopback is 127.0.0.1 as a host integer; every machine answers on
// it regardless of fabric attachment.
const NetLoopback = 0x7F000001

// netEphemeralBase is the first ephemeral port assigned to connecting
// sockets (IANA's dynamic range).
const netEphemeralBase = 49152

// NetPacket kinds.
const (
	NetSyn    = iota // connection request (connect -> listener)
	NetSynAck        // connection accepted (accept -> connector)
	NetRst           // refused / no such connection
	NetData          // payload bytes
	NetAck           // credit return: N payload bytes drained by the guest
	NetFin           // orderly shutdown; Close set means full close (hang-up)
)

// NetPacket is one fabric datagram, passed and queued by value. Addresses
// are IPv4 host integers; SrcConn/DstConn are the per-machine connection
// ids of the sending and receiving endpoints (DstConn 0 means "not yet
// known": an AF_INET Syn demuxes by destination port instead, and an
// AF_UNIX Syn goes straight to the listener its path names).
type NetPacket struct {
	Kind             int
	SrcAddr, DstAddr uint64
	SrcPort, DstPort uint64
	SrcConn, DstConn int
	Data             []byte
	N                int  // NetAck: payload bytes acknowledged
	Close            bool // NetFin: full close, not just shutdown(SHUT_WR)
}

// netKindNames label packets in fabric traces.
var netKindNames = [...]string{"syn", "synack", "rst", "data", "ack", "fin"}

// NetKindName returns the trace label for a packet kind.
func NetKindName(kind int) string {
	if kind < 0 || kind >= len(netKindNames) {
		return "?"
	}
	return netKindNames[kind]
}

// AttachNIC connects the machine to a fabric: addr becomes the machine's
// address and non-local packets queue outbound instead of being
// unreachable. The fabric attaches every machine before any guest runs.
func (k *Kernel) AttachNIC(addr uint64) {
	k.netAddr = addr
	k.netAttached = true
}

// NetAddr returns the machine's fabric address (NetLoopback when
// unattached).
func (k *Kernel) NetAddr() uint64 { return k.netAddr }

// NetOutbound returns the NIC's outbound packets, in send order, and
// empties the queue. The returned slice shares the queue's storage, which
// the next outbound packet reuses: it is valid until the machine next
// runs or receives a packet. The fabric drains it between scheduling
// slices.
func (k *Kernel) NetOutbound() []NetPacket {
	out := k.netOut
	k.netOut = k.netOut[:0]
	return out
}

// netLocal reports whether addr names this machine.
func (k *Kernel) netLocal(addr uint64) bool {
	return addr == k.netAddr || addr == NetLoopback
}

// netEmit routes one packet: local destinations deliver synchronously,
// remote ones queue for the fabric with their own copy of the payload. On
// an unattached machine a remote destination is unreachable: connection
// attempts fail as refused, and anything else (stale teardown traffic) is
// dropped.
func (k *Kernel) netEmit(p NetPacket) {
	switch {
	case k.netLocal(p.DstAddr):
		k.DeliverNetPacket(p)
	case k.netAttached:
		p.Data = bytes.Clone(p.Data)
		k.netOut = append(k.netOut, p)
	case p.Kind == NetSyn:
		if s := k.netConns[p.SrcConn]; s != nil && s.state == sockConnecting {
			k.netRefuse(s)
		}
	}
}

// netRefuse moves a connecting endpoint to the refused state and wakes
// it (the restarted connect reports ECONNREFUSED).
func (k *Kernel) netRefuse(s *socketFile) {
	s.state = sockRefused
	delete(k.netConns, s.connID)
	s.connID = 0
	s.q.Wake(k)
}

// netReply builds the return-path header for a reply to p sent by the
// endpoint with connection id conn.
func (k *Kernel) netReply(p NetPacket, kind, conn int) NetPacket {
	return NetPacket{
		Kind:    kind,
		SrcAddr: k.netAddr, SrcPort: p.DstPort,
		DstAddr: p.SrcAddr, DstPort: p.SrcPort,
		SrcConn: conn, DstConn: p.SrcConn,
	}
}

// DeliverNetPacket hands one packet to the machine's inet stack. The
// fabric calls it between scheduling slices once the machine's clock has
// reached the packet's delivery time; loopback calls it synchronously
// from netEmit. Deliveries mutate socket state and wake wait queues but
// never run guest code.
func (k *Kernel) DeliverNetPacket(p NetPacket) {
	switch p.Kind {
	case NetSyn:
		k.synArrive(k.inetNS[p.DstPort], p)
	case NetSynAck:
		s := k.netConns[p.DstConn]
		if s == nil || s.state != sockConnecting {
			// The connector gave up (closed) before the accept completed.
			k.netEmit(k.netReply(p, NetRst, 0))
			return
		}
		s.state = sockConnected
		s.peerConn = p.SrcConn
		s.q.Wake(k) // complete the parked (or polling) connect
	case NetRst:
		s := k.netConns[p.DstConn]
		if s == nil {
			return // both ends already gone; never answer a Rst
		}
		switch s.state {
		case sockConnecting:
			k.netRefuse(s)
		case sockConnected:
			// Hard teardown: the peer endpoint vanished.
			s.peerGone = true
			s.eof = true
			s.q.Wake(k)
		}
	case NetData:
		s := k.netConns[p.DstConn]
		if s == nil || s.state != sockConnected {
			k.netEmit(k.netReply(p, NetRst, 0))
			return
		}
		s.recv = queueWrite(s.recv, p.Data, sockCap)
		s.q.Wake(k) // readers and pollers
	case NetAck:
		s := k.netConns[p.DstConn]
		if s == nil || s.state != sockConnected {
			return
		}
		s.inFlight -= p.N
		if s.inFlight < 0 {
			s.inFlight = 0
		}
		s.q.Wake(k) // writers blocked on credit
	case NetFin:
		s := k.netConns[p.DstConn]
		if s == nil || s.state != sockConnected {
			return
		}
		s.eof = true // drain, then EOF
		if p.Close {
			s.peerGone = true // full close: POLLHUP / EV_EOF, writes EPIPE
		}
		s.q.Wake(k)
	}
}

// synArrive queues a connection request at listener l, the socket its
// address names (nil when nothing is bound there), and wakes accept(2)
// waiters and listener pollers. With no listener, or a full accept
// backlog, it refuses: the connector sees ECONNREFUSED and may retry
// after backoff.
func (k *Kernel) synArrive(l *socketFile, p NetPacket) {
	if l == nil || l.state != sockListening || len(l.pendingSyn) >= l.backlog {
		k.netEmit(k.netReply(p, NetRst, 0))
		return
	}
	l.pendingSyn = append(l.pendingSyn, p)
	l.q.Wake(k)
}

// netAllocConn registers s in the connection demux table under a fresh
// nonzero id.
func (k *Kernel) netAllocConn(s *socketFile) {
	k.nextConn++
	s.connID = k.nextConn
	k.netConns[s.connID] = s
}

// netHeader fills p's addressing from a connected endpoint's view.
func (s *socketFile) netHeader(kind int) NetPacket {
	return NetPacket{
		Kind:    kind,
		SrcAddr: s.addr, SrcPort: s.port,
		DstAddr: s.peerAddr, DstPort: s.peerPort,
		SrcConn: s.connID, DstConn: s.peerConn,
	}
}
