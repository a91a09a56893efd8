package kernel

import (
	"slices"

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
	return Ret(uint64(t.Proc.allocFD(&FDesc{file: &kqueueFile{}, flags: ORdWr, refs: 1})))
}

// sysKevent applies the changelist to the kqueue its descriptor names,
// then reports up to nevents ready notes. EV_ADD registers a note for an
// (ident, filter) pair, or, as kqueue(2) specifies, updates the udata of
// the one already registered; EV_DELETE removes it. A hang-up satisfies
// either filter — a read on a drained, hung-up object returns EOF at once
// and a write raises EPIPE, so neither blocks — and sets EV_EOF. With nothing
// ready it parks on the watched objects' queues as its timespec says
// (see readTimeout); a kqueue with no notes, or none whose object can
// still transition, parks with no wake source, as kqueue(2) blocks
// forever, rather than return a spurious 0.
func sysKevent(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	changes := a.Ptr(0)
	nchanges := a.Int(1)
	events := a.Ptr(1)
	nevents := a.Int(2)

	kqd := p.fd(int(a.Int(0)))
	if kqd == nil {
		return Err(EBADF)
	}
	kq, ok := kqd.file.(*kqueueFile)
	if !ok {
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
		j := slices.IndexFunc(kq.notes, func(n knote) bool { return n.ident == ident && n.filter == filter })
		switch {
		case flags&EvDelete != 0:
			if j >= 0 {
				kq.notes = slices.Delete(kq.notes, j, j+1)
			}
		case j >= 0:
			kq.notes[j].udata = udata // EV_ADD of a registered pair modifies it
		default:
			kq.notes = append(kq.notes, knote{ident: ident, filter: filter, udata: udata})
		}
	}

	if nevents == 0 {
		return Ret(0)
	}

	// Report the ready notes; the stored udata capability is returned to
	// the process intact.
	count := uint64(0)
	k.waitSet = k.waitSet[:0]
	for _, n := range kq.notes {
		if count >= nevents {
			break
		}
		f := p.fd(int(n.ident))
		if f == nil {
			continue
		}
		r := k.scan(f)
		if !r.hup && !(n.filter == EvfiltRead && r.in) && !(n.filter == EvfiltWrite && r.out) {
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
		if r.hup {
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
		w, e := k.readTimeout(a.Ptr(2), 1)
		if e != OK {
			return Err(e)
		}
		if k.park(t, w) {
			return Err(EJUSTRETURN)
		}
	}
	return Ret(count)
}
