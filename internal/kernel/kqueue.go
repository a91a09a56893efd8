package kernel

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/image"
)

// kevent filters and flags.
const (
	EvfiltRead  = -1
	EvfiltWrite = -2
	EvAdd       = 1
	EvDelete    = 2
	// EvEOF is reported in the returned flags (high word of the filter
	// slot) when the watched object has hung up — the peer or the far end
	// of the pipe is gone.
	EvEOF = 0x8000
)

// knote is one registered event. The user-supplied udata pointer is a
// capability for CheriABI processes — one of the paper's "system calls
// [that] take pointers and store them in kernel data structures for later
// return": "we have modified the kernel structures to store capabilities".
type knote struct {
	ident  uint64 // fd
	filter int16
	udata  cap.Capability
}

type kqueue struct {
	notes []knote
}

// keventLayout: the user-memory struct kevent layout:
//
//	0  ident  u64
//	8  filter i64 (sign-extended i16; change flags packed in the high word)
//	16 data   i64 (output only: the filter's readiness depth)
//	24 udata  pointer (capability or 8-byte address), capability-aligned
//	          for CheriABI — offset 32
//
// This is MiniC's natural layout for
//
//	struct kev { long ident; long filter; long data; char *udata; };
//
// under each ABI: total 32 bytes for the legacy ABI, 32 + cap.Bytes for
// CheriABI.
func keventUdataOff(abi image.ABI) uint64 {
	if abi == image.ABICheri {
		return (24 + cap.Bytes - 1) / cap.Bytes * cap.Bytes
	}
	return 24
}

func keventSize(abi image.ABI) uint64 {
	if abi == image.ABICheri {
		return keventUdataOff(abi) + cap.Bytes
	}
	return 32
}

func sysKqueue(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	kq := &kqueue{}
	fd := p.allocFD(&FDesc{file: &kqueueFile{kq: kq}, flags: ORdWr, refs: 1})
	p.kqs[fd] = kq
	return Ret(uint64(fd))
}

func sysKevent(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	kqfd := int(a.Int(0))
	changes := a.Ptr(0)
	nchanges := a.Int(1)
	events := a.Ptr(1)
	nevents := a.Int(2)
	tmo := a.Ptr(2)

	kq := p.kqs[kqfd]
	if kq == nil {
		return Err(EBADF)
	}
	size := keventSize(p.ABI)
	udataOff := keventUdataOff(p.ABI)

	// Apply the changelist.
	for i := uint64(0); i < nchanges; i++ {
		base := changes.Addr() + i*size
		ident, e1 := k.readUserWord(changes, base, 8)
		filt, e2 := k.readUserWord(changes, base+8, 8)
		if e1 != OK || e2 != OK {
			return Err(EFAULT)
		}
		filter := int16(int64(filt))
		flags := int16(int64(filt) >> 32) // flags packed in the high word
		udata, e := k.copyInPtr(t, changes, base+udataOff)
		if e != OK {
			return Err(e)
		}
		if flags&EvDelete != 0 {
			for j, n := range kq.notes {
				if n.ident == ident && n.filter == filter {
					kq.notes = append(kq.notes[:j], kq.notes[j+1:]...)
					break
				}
			}
			continue
		}
		kq.notes = append(kq.notes, knote{ident: ident, filter: filter, udata: udata})
	}

	if nevents == 0 {
		return Ret(0)
	}

	// Collect ready events; the stored udata capability is returned to the
	// process intact.
	count := uint64(0)
	for _, n := range kq.notes {
		if count >= nevents {
			break
		}
		f := p.fd(int(n.ident))
		if f == nil {
			continue
		}
		// A hang-up satisfies any filter: a read on a drained, hung-up
		// object returns EOF immediately, and a write raises EPIPE — both
		// are "the operation will not block", which is what readiness means.
		hup := f.file.Poll(PollHup)
		ready := hup || (n.filter == EvfiltRead && f.file.Poll(PollIn)) || (n.filter == EvfiltWrite && f.file.Poll(PollOut))
		if !ready {
			continue
		}
		kind := PollIn
		if n.filter == EvfiltWrite {
			kind = PollOut
		}
		base := events.Addr() + count*size
		if e := k.writeUserWord(events, base, 8, n.ident); e != OK {
			return Err(e)
		}
		// The output filter slot mirrors the input convention: the filter
		// in the low 32 bits (truncated, not sign-extended across the whole
		// word) and flags — here EV_EOF on hang-up — in the high word.
		outFilt := uint64(uint32(int32(n.filter)))
		if hup {
			outFilt |= uint64(EvEOF) << 32
		}
		if e := k.writeUserWord(events, base+8, 8, outFilt); e != OK {
			return Err(e)
		}
		if e := k.writeUserWord(events, base+16, 8, uint64(pollDepth(f.file, kind))); e != OK {
			return Err(e)
		}
		if p.ABI == image.ABICheri {
			if err := k.M.CPU.StoreCapVia(events, base+udataOff, n.udata); err != nil {
				return Err(EFAULT)
			}
		} else if e := k.writeUserWord(events, base+udataOff, 8, n.udata.Addr()); e != OK {
			return Err(e)
		}
		count++
	}
	if count == 0 {
		// Nothing ready. With a NULL timeout, park on the wait queues of
		// the watched objects, exactly as select and poll do — kevent is
		// the third thin wrapper over the same readiness predicate and
		// subscription path. Objects that are always ready contribute no
		// queue (their filters would have fired above). The park is
		// unconditional: a kqueue with no registered filters — or none
		// whose object can still transition — has no wake source, so the
		// thread stays Blocked and the scheduler's empty-runq detector
		// reports the deadlock, exactly as kqueue(2) blocks forever. (A
		// silent 0 return here would turn a programming error into a
		// spurious "no events".) Signals still wake the thread through the
		// normal delivery path.
		//
		// A non-NULL timespec bounds the wait on the virtual clock: a zero
		// timespec is the classic non-blocking scan, a positive one parks
		// with a deadline and returns 0 if it fires first.
		block, deadline := tmo.Addr() == 0, uint64(0)
		if !block {
			sec, e1 := k.readUserWord(tmo, tmo.Addr(), 8)
			nsec, e2 := k.readUserWord(tmo, tmo.Addr()+8, 8)
			if e1 != OK || e2 != OK {
				return Err(EFAULT)
			}
			if delta := sec*ClockHz + nsToCycles(nsec); delta > 0 && !k.deadlineExpired(t) {
				block, deadline = true, k.parkDeadline(t, delta)
			}
		}
		if !block {
			return Ret(0)
		}
		var qs []*WaitQueue
		for _, n := range kq.notes {
			if f := p.fd(int(n.ident)); f != nil {
				if q := f.file.Queue(); q != nil {
					qs = append(qs, q)
				}
			}
		}
		if deadline != 0 {
			k.blockOnDeadline(t, deadline, qs...)
		} else {
			t.blockOn(qs...)
		}
		return Err(EJUSTRETURN)
	}
	return Ret(count)
}
