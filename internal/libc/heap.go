package libc

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/core"
	"cheriabi/internal/kernel"
	"cheriabi/internal/vm"
)

// heap is the per-process allocator: a jemalloc-flavoured size-class
// allocator ("Dynamic allocation is via a lightly modified version of
// JEMalloc"). Under CheriABI:
//
//   - returned capabilities are bounded to the (representability-rounded)
//     requested size: "We install bounds matching the requested allocation
//     before return";
//   - they are non-executable and carry no vmmap permission: "These
//     allocations are non-executable and have the vmmap permission
//     stripped preventing them from being used to remap memory";
//   - free() looks the allocation up by address and discards the caller's
//     capability: "Freed capabilities are used to look up internal
//     capabilities and are then discarded", so a forged or dangling
//     capability cannot free foreign memory.
type heap struct {
	k    *kernel.Kernel
	p    *kernel.Proc
	asan bool

	// arena runs by size class; each run is carved from a chunk capability
	// acquired via mmap.
	classes map[uint64][]cap.Capability // size class -> free list
	chunk   cap.Capability              // current chunk
	chunkMu uint64                      // bump offset within chunk
	allocs  map[uint64]allocation       // base address -> live allocation
	bytes   uint64                      // live bytes (stats)
}

type allocation struct {
	inner cap.Capability // the allocator's own capability for the block
	size  uint64         // rounded block size
	req   uint64         // requested size
}

// Size classes (bytes). Requests above the largest class are page-backed.
var sizeClasses = []uint64{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096, 8192, 16384}

const chunkSize = 1 << 20

// asanRedzone is the guard placed around allocations in ASan builds.
const asanRedzone = 16

func newHeap(k *kernel.Kernel, p *kernel.Proc, asan bool) *heap {
	return &heap{
		k: k, p: p, asan: asan,
		classes: map[uint64][]cap.Capability{},
		allocs:  map[uint64]allocation{},
	}
}

func classFor(n uint64) uint64 {
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return 0 // large allocation
}

// carve obtains a block of exactly class bytes from the current chunk.
func (h *heap) carve(class uint64) (cap.Capability, kernel.Errno) {
	if !h.chunk.Tag() || h.chunkMu+class > h.chunk.Len() {
		c, errno := h.k.MapAnon(h.p, chunkSize, vm.ProtRead|vm.ProtWrite)
		if errno != kernel.OK {
			return cap.Null(), errno
		}
		h.chunk = c
		h.chunkMu = 0
	}
	blk, err := cap.SetBounds(h.chunk, h.chunk.Base()+h.chunkMu, class)
	if err != nil {
		return cap.Null(), kernel.ENOMEM
	}
	h.chunkMu += class
	return blk, kernel.OK
}

// Malloc returns a pointer for n bytes (a bounded capability under
// CheriABI), or an untagged NULL on exhaustion.
func (h *heap) Malloc(n uint64) (cap.Capability, kernel.Errno) {
	if n == 0 {
		n = 1
	}
	// Representability padding: the size the capability can express
	// exactly ("which must pad allocation sizes up to ensure that
	// capability references do not overlap").
	rn := cap.RepresentableLength(n)
	pad := rn
	if h.asan {
		pad = rn + 2*asanRedzone
	}
	class := classFor(pad)

	var inner cap.Capability
	var errno kernel.Errno
	if class == 0 {
		inner, errno = h.k.MapAnon(h.p, pad, vm.ProtRead|vm.ProtWrite)
	} else if free := h.classes[class]; len(free) > 0 {
		inner = free[len(free)-1]
		h.classes[class] = free[:len(free)-1]
	} else {
		inner, errno = h.carve(class)
	}
	if errno != kernel.OK {
		return cap.Null(), errno
	}

	base := inner.Base()
	if h.asan {
		base += asanRedzone
		h.poison(inner.Base(), asanRedzone, 0xFA)
		h.poison(base+rn, asanRedzone, 0xFB)
		h.unpoison(base, n)
	}
	out, err := cap.SetBounds(inner, base, rn)
	if err != nil {
		return cap.Null(), kernel.ENOMEM
	}
	// Strip vmmap and execute: heap memory cannot remap or run.
	out = out.ClearPerms(cap.PermVMMap | cap.PermExecute)
	h.allocs[base] = allocation{inner: inner, size: classSizeOf(class, pad), req: n}
	h.bytes += rn
	h.k.M.Kern.Ledger.Derive(h.p.Prin, h.p.AbsRoot, out, core.OriginMalloc)
	return out, kernel.OK
}

func classSizeOf(class, pad uint64) uint64 {
	if class == 0 {
		return pad
	}
	return class
}

// Free releases the allocation at ptr's address. Under CheriABI an
// untagged pointer is rejected outright.
func (h *heap) Free(ptr cap.Capability, cheri bool) kernel.Errno {
	if ptr.Addr() == 0 {
		return kernel.OK // free(NULL)
	}
	if cheri && !ptr.Tag() {
		return kernel.EINVAL
	}
	a, ok := h.allocs[ptr.Addr()]
	if !ok {
		return kernel.EINVAL // not an allocation base: ignore, as jemalloc aborts
	}
	delete(h.allocs, ptr.Addr())
	h.bytes -= a.size
	if h.asan {
		h.poison(ptr.Addr(), a.req, 0xFD) // use-after-free poison
	}
	if class := classFor(a.size); class != 0 && a.size <= sizeClasses[len(sizeClasses)-1] {
		h.classes[class] = append(h.classes[class], a.inner)
	}
	return kernel.OK
}

// Lookup returns the live allocation at base, if any.
func (h *heap) Lookup(addr uint64) (allocation, bool) {
	a, ok := h.allocs[addr]
	return a, ok
}

// poison writes v into the shadow bytes covering [addr, addr+n).
func (h *heap) poison(addr, n uint64, v byte) {
	h.shadowSet(addr, n, v)
}

func (h *heap) unpoison(addr, n uint64) {
	// Partially-used trailing granule: shadow holds the in-bounds count.
	full := n / 8
	h.shadowSet(addr, full*8, 0)
	if rem := n % 8; rem != 0 {
		h.shadowSetByte(addr+full*8, byte(rem))
	}
}

func (h *heap) shadowSet(addr, n uint64, v byte) {
	for a := addr &^ 7; a < addr+n; a += 8 {
		h.shadowSetByte(a, v)
	}
}

func (h *heap) shadowSetByte(addr uint64, v byte) {
	sva := uint64(kernel.AsanShadowBase) + addr>>3
	pa, pf := h.p.AS.Translate(sva, vm.ProtWrite)
	if pf != nil {
		return
	}
	h.k.M.Mem.Store(pa, 1, uint64(v))
}
