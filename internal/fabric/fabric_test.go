package fabric

import (
	"testing"

	"cheriabi/internal/kernel"
)

// TestRecordDeliveryDoesNotAllocate: folding a delivery into the trace
// hash formats its record into a buffer the Fabric reuses.
func TestRecordDeliveryDoesNotAllocate(t *testing.T) {
	f := New(Config{Seed: 1})
	pk := &packet{
		p:   kernel.NetPacket{Kind: kernel.NetData, SrcPort: 49152, DstPort: 7, DstConn: 3, Data: make([]byte, 64)},
		at:  123456,
		seq: 42,
		src: 1,
	}
	if n := testing.AllocsPerRun(100, func() { f.recordDelivery(0, pk) }); n != 0 {
		t.Fatalf("recordDelivery allocates %v objects per packet, want 0", n)
	}
}

// TestRecordDeliveryTraceRecord: the record bytes the hash folds in are
// "src:seq>dst kind:srcport>dstport n<bytes>@at|", so traces from before
// the record stopped going through fmt hash the same.
func TestRecordDeliveryTraceRecord(t *testing.T) {
	f := New(Config{})
	f.recordDelivery(2, &packet{
		p:  kernel.NetPacket{Kind: kernel.NetAck, SrcPort: 80, DstPort: 49153, N: 512},
		at: 9000, seq: 7, src: 1,
	})
	if got, want := string(f.rec), "1:7>2 ack:80>49153 n512@9000|"; got != want {
		t.Fatalf("record %q, want %q", got, want)
	}
	h := uint64(14695981039346656037)
	for _, c := range []byte("1:7>2 ack:80>49153 n512@9000|") {
		h = (h ^ uint64(c)) * 1099511628211
	}
	if f.TraceHash() != h {
		t.Fatalf("trace hash %#x, want %#x", f.TraceHash(), h)
	}
}

// TestFabricCycleAllocs: in steady state a packet crossing the fabric
// costs no host allocation beyond its payload copy. Node 1 sends node 0
// a data packet for a connection node 0 does not have, so node 0 answers
// with a reset (no payload): emit, collect and deliver then reuse the
// NIC's outbound queue and the fabric's delivery queues, and record the
// deliveries without formatting.
func TestFabricCycleAllocs(t *testing.T) {
	f := New(Config{Seed: 1})
	a := kernel.NewMachine(kernel.Config{MemBytes: 8 << 20}).Kern
	b := kernel.NewMachine(kernel.Config{MemBytes: 8 << 20}).Kern
	f.Attach(a)
	f.Attach(b)
	payload := make([]byte, 256)
	cycle := func() {
		f.schedule(1, b.Now(), kernel.NetPacket{
			Kind:    kernel.NetData,
			SrcAddr: NodeAddr(1), SrcPort: 49152, SrcConn: 5,
			DstAddr: NodeAddr(0), DstPort: 7, DstConn: 9,
			Data: payload,
		})
		f.deliver() // data to node 0, which emits a reset
		f.collect()
		f.deliver() // the reset to node 1
	}
	before := f.Delivered()
	cycle()
	if f.Delivered() != before+2 {
		t.Fatalf("one cycle delivered %d packets, want 2", f.Delivered()-before)
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("emit → collect → deliver allocates %v objects per cycle, want 0", n)
	}
}
