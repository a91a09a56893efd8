// Package fabric is the deterministic in-host network joining multiple
// simulated machines. A Fabric owns per-link FIFO packet queues with
// seeded integer-cycle latency and steps the machines in lockstep with
// their virtual clocks, so a multi-machine run is bit-reproducible:
// delivery order is a pure function of (seed, send order, virtual time).
//
// Time model. Every machine keeps its own cycle clock (the PR 7 virtual
// clock). The coordinator always runs the minimum-clock machine that has
// runnable work, a bounded slice at a time; a packet sent at cycle S on
// one machine is deliverable on another once the receiver's clock
// reaches S plus a seeded per-packet latency, and per-link FIFO order is
// enforced by never letting a link's delivery time regress. A machine
// with nothing runnable does not spin: its clock is advanced directly to
// its next event — its earliest timer deadline or the head packet's
// delivery time — the multi-machine analogue of the kernel's tickless
// timer skip. A blocked client's clock therefore tracks the server's
// progress through the deliveries it receives, which is what makes
// guest-measured round-trip latencies meaningful.
//
// Determinism. The coordinator is single-goroutine host code iterating
// machines in index order with explicit tie-breaks (lowest clock, then
// lowest index), latencies come from a seeded xorshift64 drawn in
// schedule order, and every delivery folds into an FNV-1a trace hash —
// two same-seed runs must produce identical hashes, and the tests gate
// on it.
package fabric

import (
	"fmt"
	"sort"

	"cheriabi/internal/kernel"
)

// BaseAddr is the fabric's address block: machine i answers on
// NodeAddr(i) = 10.0.0.1+i.
const BaseAddr = 0x0A000001

// NodeAddr returns the address Attach will assign to the i-th machine,
// so guests can be handed peer addresses before the fleet boots.
func NodeAddr(i int) uint64 { return BaseAddr + uint64(i) }

// Config seeds a Fabric.
type Config struct {
	// Seed drives per-packet latency draws. Same seed, same send order:
	// same delivery schedule, bit for bit.
	Seed uint64
}

const (
	// minLatency and maxLatency bound the per-packet latency in cycles:
	// 5–20 µs of virtual time at 100 MHz.
	minLatency, maxLatency = 500, 2000
	// slice is the per-turn instruction budget for one machine: smaller
	// slices interleave machines more finely.
	slice = 20_000
)

// packet is one scheduled delivery.
type packet struct {
	p   kernel.NetPacket
	at  uint64 // receiver-clock cycle at which it may be delivered
	seq uint64 // schedule order: the FIFO/determinism tie-break
	src int    // sending node index (trace only)
}

type node struct {
	kern    *kernel.Kernel
	pending []packet // sorted by (at, seq)
}

// Fabric is the switch: per-destination delivery queues plus the
// lockstep coordinator.
type Fabric struct {
	nodes  []*node
	byAddr map[uint64]int
	rng    uint64
	seq    uint64
	// lastAt[link] is the latest delivery time scheduled on a
	// (src<<32|dst) link, enforcing per-link FIFO.
	lastAt map[uint64]uint64

	trace     uint64 // FNV-1a over the delivery record stream
	delivered uint64
	dataBytes uint64
}

// New builds an empty fabric.
func New(cfg Config) *Fabric {
	rng := cfg.Seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	if rng == 0 {
		rng = 0x9E3779B97F4A7C15
	}
	return &Fabric{
		byAddr: map[uint64]int{},
		rng:    rng,
		lastAt: map[uint64]uint64{},
		trace:  14695981039346656037, // FNV-1a offset basis
	}
}

// Attach plugs a machine into the fabric, assigning it the next NodeAddr
// and switching its NIC from loopback-only to fabric routing. Attach
// order defines node indices; attach every machine before running any.
func (f *Fabric) Attach(k *kernel.Kernel) uint64 {
	i := len(f.nodes)
	addr := NodeAddr(i)
	k.AttachNIC(addr)
	f.nodes = append(f.nodes, &node{kern: k})
	f.byAddr[addr] = i
	return addr
}

// TraceHash is the FNV-1a hash of every delivery so far — the
// bit-reproducibility witness for a whole multi-machine run.
func (f *Fabric) TraceHash() uint64 { return f.trace }

// Delivered counts packets delivered so far.
func (f *Fabric) Delivered() uint64 { return f.delivered }

// DataBytes counts payload bytes moved through the fabric (NetData
// packets only; loopback traffic never reaches the fabric).
func (f *Fabric) DataBytes() uint64 { return f.dataBytes }

func (f *Fabric) latency() uint64 {
	s := f.rng
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	f.rng = s
	return minLatency + s%(maxLatency-minLatency+1)
}

// schedule queues p (sent by node src at cycle now) for its destination.
func (f *Fabric) schedule(src int, now uint64, p kernel.NetPacket) {
	dst, ok := f.byAddr[p.DstAddr]
	if !ok {
		// Unreachable address: bounce connection attempts as refused, in
		// FIFO with the link's other traffic; drop stray teardown packets.
		if p.Kind != kernel.NetSyn {
			return
		}
		rst := kernel.NetPacket{
			Kind:    kernel.NetRst,
			SrcAddr: p.DstAddr, SrcPort: p.DstPort,
			DstAddr: p.SrcAddr, DstPort: p.SrcPort,
			DstConn: p.SrcConn,
		}
		f.enqueue(src, src, now, rst)
		return
	}
	f.enqueue(src, dst, now, p)
}

func (f *Fabric) enqueue(src, dst int, now uint64, p kernel.NetPacket) {
	at := now + f.latency()
	link := uint64(src)<<32 | uint64(dst)
	if last := f.lastAt[link]; at < last {
		at = last // FIFO per link: delivery time never regresses
	}
	f.lastAt[link] = at
	f.seq++
	pk := packet{p: p, at: at, seq: f.seq, src: src}
	n := f.nodes[dst]
	n.pending = append(n.pending, pk)
	// Mostly-append workload: restore (at, seq) order only when a short
	// latency draw lands the new packet before an earlier long one.
	if ln := len(n.pending); ln > 1 && pk.at < n.pending[ln-2].at {
		sort.SliceStable(n.pending, func(a, b int) bool {
			pa, pb := n.pending[a], n.pending[b]
			if pa.at != pb.at {
				return pa.at < pb.at
			}
			return pa.seq < pb.seq
		})
	}
}

// collect drains every NIC's outbound ring, in node order, into the
// delivery queues.
func (f *Fabric) collect() {
	for i, n := range f.nodes {
		for _, p := range n.kern.NetOutbound() {
			f.schedule(i, n.kern.Now(), p)
		}
	}
}

// deliver hands every currently-deliverable packet to its machine:
// immediately when the receiver's clock has reached the delivery time,
// and by advancing an idle receiver's clock to it — unless an earlier
// timer deadline must fire first. Returns whether anything was
// delivered.
func (f *Fabric) deliver() bool {
	any := false
	for i, n := range f.nodes {
		k := n.kern
		for len(n.pending) > 0 {
			pk := n.pending[0]
			if k.Now() < pk.at {
				if k.RunnableNow() {
					break // busy: it will reach pk.at by executing
				}
				if dl, ok := k.NextTimerDeadline(); ok && dl < pk.at {
					break // its timer fires first (fireNextTimer)
				}
				k.AdvanceClock(pk.at)
			}
			n.pending = n.pending[1:]
			f.recordDelivery(i, &pk)
			k.DeliverNetPacket(pk.p)
			any = true
		}
	}
	return any
}

func (f *Fabric) recordDelivery(dst int, pk *packet) {
	f.delivered++
	if pk.p.Kind == kernel.NetData {
		f.dataBytes += uint64(len(pk.p.Data))
	}
	rec := fmt.Sprintf("%d:%d>%d %s:%d>%d n%d@%d|",
		pk.src, pk.seq, dst, kernel.NetKindName(pk.p.Kind),
		pk.p.SrcPort, pk.p.DstPort, len(pk.p.Data)+pk.p.N, pk.at)
	for i := 0; i < len(rec); i++ {
		f.trace ^= uint64(rec[i])
		f.trace *= 1099511628211 // FNV-1a prime
	}
}

// fireNextTimer advances the machine with the earliest timer deadline to
// it (lowest node index on ties). Returns false when no machine has a
// live timer.
func (f *Fabric) fireNextTimer() bool {
	best, bestDl := -1, uint64(0)
	for i, n := range f.nodes {
		if dl, ok := n.kern.NextTimerDeadline(); ok && (best < 0 || dl < bestDl) {
			best, bestDl = i, dl
		}
	}
	if best < 0 {
		return false
	}
	f.nodes[best].kern.AdvanceClock(bestDl)
	return true
}

// ErrBudget is returned when the fleet-wide instruction budget runs out.
var ErrBudget = fmt.Errorf("fabric: fleet instruction budget exhausted")

// ErrDeadlock is returned when every machine is idle with no timers and
// no packets in flight while threads remain blocked.
var ErrDeadlock = fmt.Errorf("fabric: all machines idle with threads still blocked (deadlock)")

func (f *Fabric) totalInstructions() uint64 {
	var n uint64
	for _, nd := range f.nodes {
		n += nd.kern.M.CPU.Stats.Instructions
	}
	return n
}

// Run coordinates the fleet until stop returns true, the fleet-wide
// instruction budget (0 = 8e9) runs out, or everything quiesces. The
// loop: drain outbound packets, deliver what is due, then give one slice
// to the lowest-clock machine with runnable work; when no machine can
// run, fire the globally earliest timer; when there are no timers either
// (and deliver could move nothing), the fleet is done — or deadlocked,
// if blocked threads remain.
func (f *Fabric) Run(budget uint64, stop func() bool) error {
	if budget == 0 {
		budget = 8_000_000_000
	}
	start := f.totalInstructions()
	for {
		if stop != nil && stop() {
			return nil
		}
		if f.totalInstructions()-start > budget {
			return ErrBudget
		}
		f.collect()
		if f.deliver() {
			continue // deliveries may wake threads or emit replies
		}
		best := -1
		var bestClock uint64
		for i, n := range f.nodes {
			if n.kern.RunnableNow() && (best < 0 || n.kern.Now() < bestClock) {
				best, bestClock = i, n.kern.Now()
			}
		}
		if best >= 0 {
			f.nodes[best].kern.StepSlice(slice)
			continue
		}
		if f.fireNextTimer() {
			continue
		}
		// Nothing runnable, no timers, nothing deliverable: if packets are
		// still queued something above is wrong, and if threads are still
		// blocked the fleet can never progress again.
		blocked := 0
		for _, n := range f.nodes {
			blocked += n.kern.BlockedThreads()
			if len(n.pending) > 0 {
				return fmt.Errorf("fabric: quiescent with %d undeliverable packets", len(n.pending))
			}
		}
		if blocked > 0 {
			return ErrDeadlock
		}
		return nil
	}
}
