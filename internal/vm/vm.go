// Package vm implements per-process virtual address spaces over tagged
// physical memory: page tables, demand-zero and copy-on-write pages, and a
// swap store that cannot hold tags (as in the paper: "IO devices have not
// been extended to support capabilities"), so the swapper records tags in
// swap metadata and capabilities are *rederived* from an appropriate root
// on swap-in.
package vm

import (
	"fmt"
	"slices"

	"cheriabi/internal/mem"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// Prot is a page-permission bitset.
type Prot uint8

// Page protections.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// FaultKind classifies hard page faults (soft faults — demand zero, COW,
// swap-in — are resolved inside Translate and only counted).
type FaultKind int

// Hard fault kinds.
const (
	FaultNotMapped FaultKind = iota
	FaultProt
)

// PageFault is a hard memory-management fault, delivered to the guest as a
// signal by the kernel.
type PageFault struct {
	VA     uint64
	Access Prot
	Kind   FaultKind
}

func (f *PageFault) Error() string {
	k := "not-mapped"
	if f.Kind == FaultProt {
		k = "protection"
	}
	return fmt.Sprintf("page fault: %s va=0x%x access=%s", k, f.VA, f.Access)
}

// Stats counts memory-management events per address space.
type Stats struct {
	DemandZero uint64
	COWCopies  uint64
	SwapIns    uint64
	SwapOuts   uint64
	TagsKept   uint64 // tags rederived successfully at swap-in
	TagsLost   uint64 // tags refused by rederivation
}

type pte struct {
	frame   uint64
	prot    Prot
	present bool
	cow     bool
	shared  bool // MAP_SHARED semantics: never copy-on-write
	zero    bool // demand-zero: no frame yet
	swapped bool
	swapID  uint64
}

// Frames is the physical frame allocator, shared by all address spaces.
// Frames are reference counted so copy-on-write sharing works.
//
// Frames never handed out lie in [hw, end) and go out in ascending
// order; freed frames are pushed on the free stack and handed out again,
// most recent first, before the high-water mark moves. The order in
// which frames are handed out decides physical placement, and with it
// cache behaviour, so it is part of the allocator's contract.
type Frames struct {
	hw, end uint64   // the never-allocated frames [hw, end)
	free    []uint64 // freed frames, popped from the tail
	refs    map[uint64]int
}

// NewFrames manages every whole frame in physical addresses [start, end).
func NewFrames(start, end uint64) *Frames {
	hw := (start + PageSize - 1) &^ (PageSize - 1)
	end &^= PageSize - 1
	return &Frames{hw: hw, end: max(hw, end), refs: map[uint64]int{}}
}

// Free returns the number of free frames.
func (f *Frames) Free() int { return len(f.free) + int((f.end-f.hw)/PageSize) }

func (f *Frames) alloc() uint64 {
	var pa uint64
	switch {
	case len(f.free) > 0:
		pa = f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
	case f.hw < f.end:
		pa = f.hw
		f.hw += PageSize
	default:
		panic("vm: out of physical frames")
	}
	f.refs[pa] = 1
	return pa
}

func (f *Frames) incref(pa uint64) { f.refs[pa]++ }

func (f *Frames) decref(pa uint64) {
	f.refs[pa]--
	if f.refs[pa] == 0 {
		delete(f.refs, pa)
		f.free = append(f.free, pa)
	}
}

func (f *Frames) shared(pa uint64) bool { return f.refs[pa] > 1 }

// Clone deep-copies the allocator in O(frames ever freed plus frames in
// use): the clone hands out the same frame sequence as the source would
// from this point on, which is what makes a cloned boot's physical
// placement — and so its cache behaviour — bit-identical to a cold
// boot's.
func (f *Frames) Clone() *Frames {
	nf := &Frames{
		hw:   f.hw,
		end:  f.end,
		free: make([]uint64, len(f.free)),
		refs: make(map[uint64]int, len(f.refs)),
	}
	copy(nf.free, f.free)
	for pa, c := range f.refs {
		nf.refs[pa] = c
	}
	return nf
}

// SwapStore is tag-oblivious backing storage. Pages are stored as raw
// bytes plus the tag bitmap the swapper extracted before eviction.
type SwapStore struct {
	slots map[uint64]swapSlot
	next  uint64
}

type swapSlot struct {
	data []byte
	tags []bool
}

// NewSwapStore returns an empty swap store.
func NewSwapStore() *SwapStore { return &SwapStore{slots: map[uint64]swapSlot{}} }

// Len returns the number of swapped-out pages.
func (s *SwapStore) Len() int { return len(s.slots) }

func (s *SwapStore) put(data []byte, tags []bool) uint64 {
	s.next++
	s.slots[s.next] = swapSlot{data: data, tags: tags}
	return s.next
}

// Inject visits every swapped page for fault-injection testing: fn may
// mutate the raw bytes and tag bitmap, modelling corrupted or hostile
// swap storage. Rederivation at swap-in is the defence.
func (s *SwapStore) Inject(fn func(id uint64, data []byte, tags []bool)) {
	for id, slot := range s.slots {
		fn(id, slot.data, slot.tags)
	}
}

// Clone deep-copies the store: slot IDs (and the next-ID counter) carry
// over, and each slot's bytes and tag bitmap are copied so a clone's
// swap-ins never observe another machine's mutations.
func (s *SwapStore) Clone() *SwapStore {
	ns := &SwapStore{slots: make(map[uint64]swapSlot, len(s.slots)), next: s.next}
	for id, slot := range s.slots {
		data := make([]byte, len(slot.data))
		copy(data, slot.data)
		tags := make([]bool, len(slot.tags))
		copy(tags, slot.tags)
		ns.slots[id] = swapSlot{data: data, tags: tags}
	}
	return ns
}

func (s *SwapStore) take(id uint64) swapSlot {
	slot, ok := s.slots[id]
	if !ok {
		panic(fmt.Sprintf("vm: missing swap slot %d", id))
	}
	delete(s.slots, id)
	return slot
}

// System bundles the machine-wide memory-management state.
type System struct {
	Mem    *mem.Physical
	Frames *Frames
	Swap   *SwapStore
	nextAS uint64
}

// NewSystem manages physical memory above the reserved boot region.
func NewSystem(m *mem.Physical, reserved uint64) *System {
	return &System{
		Mem:    m,
		Frames: NewFrames(reserved, m.Size()),
		Swap:   NewSwapStore(),
	}
}

// RestoreSystem rebuilds a System from snapshotted component state (the
// machine-clone path): the caller supplies already-cloned memory, frame
// allocator, and swap store, plus the address-space ID counter as of the
// snapshot, so clone address spaces receive the same IDs a cold boot
// would mint.
func RestoreSystem(m *mem.Physical, frames *Frames, swap *SwapStore, nextAS uint64) *System {
	return &System{Mem: m, Frames: frames, Swap: swap, nextAS: nextAS}
}

// NextAS returns the address-space ID counter (snapshot support).
func (s *System) NextAS() uint64 { return s.nextAS }

// RederiveFunc validates one swapped-in capability granule. It receives
// the physical address of the granule (whose bytes are already restored)
// and returns whether the tag may be restored. The kernel installs a
// function that decodes the capability and checks it against the address
// space's root capability, implementing the paper's swap rederivation.
type RederiveFunc func(pa uint64) bool

// AddressSpace is one process's page table. Each address space is a fresh
// abstract principal ("Principal IDs are freshly created for the kernel
// and each process address space").
type AddressSpace struct {
	ID       uint64
	sys      *System
	pages    map[uint64]*pte // keyed by VPN
	Stats    Stats
	Rederive RederiveFunc // nil: restore tags verbatim (unsafe; for ablation)
	// Gen increments whenever a translation could change; TLB-style caches
	// key on it.
	Gen uint64
}

// NewAddressSpace returns an empty address space with a fresh principal ID.
func (s *System) NewAddressSpace() *AddressSpace {
	s.nextAS++
	return &AddressSpace{ID: s.nextAS, sys: s, pages: map[uint64]*pte{}}
}

func vpn(va uint64) uint64 { return va >> PageShift }

// AllocFrames allocates and zeroes n physical frames (shared-memory
// segments own their frames directly).
func (s *System) AllocFrames(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = s.Frames.alloc()
		s.Mem.Zero(out[i], PageSize)
	}
	return out
}

// ReleaseFrames drops one reference on each frame.
func (s *System) ReleaseFrames(frames []uint64) {
	for _, f := range frames {
		s.Frames.decref(f)
	}
}

// MapFrames maps existing frames at va (shared memory: multiple address
// spaces can map the same frames). The frames' reference counts are
// incremented; Unmap drops them.
func (as *AddressSpace) MapFrames(va uint64, frames []uint64, prot Prot) error {
	if va%PageSize != 0 {
		return fmt.Errorf("vm: unaligned MapFrames va=0x%x", va)
	}
	for i := range frames {
		if _, ok := as.pages[vpn(va)+uint64(i)]; ok {
			return fmt.Errorf("vm: mapping exists at va=0x%x", va+uint64(i)*PageSize)
		}
	}
	for i, f := range frames {
		as.sys.Frames.incref(f)
		as.pages[vpn(va)+uint64(i)] = &pte{frame: f, prot: prot, present: true, shared: true}
	}
	as.Gen++
	return nil
}

// Map establishes [va, va+length) with the given protection. Pages are
// demand-zero: no frame is allocated until first touch. va and length must
// be page-aligned; overlapping an existing mapping is an error unless
// replace is set (mmap MAP_FIXED semantics).
func (as *AddressSpace) Map(va, length uint64, prot Prot, replace bool) error {
	if va%PageSize != 0 || length%PageSize != 0 || length == 0 {
		return fmt.Errorf("vm: unaligned map va=0x%x len=0x%x", va, length)
	}
	if !replace {
		for p := vpn(va); p < vpn(va+length); p++ {
			if _, ok := as.pages[p]; ok {
				return fmt.Errorf("vm: mapping exists at va=0x%x", p<<PageShift)
			}
		}
	}
	for p := vpn(va); p < vpn(va+length); p++ {
		if old, ok := as.pages[p]; ok {
			as.release(old)
		}
		as.pages[p] = &pte{prot: prot, zero: true}
	}
	as.Gen++
	return nil
}

func (as *AddressSpace) release(e *pte) {
	if e.present {
		as.sys.Frames.decref(e.frame)
	}
	if e.swapped {
		as.sys.Swap.take(e.swapID)
	}
}

// Unmap removes [va, va+length).
func (as *AddressSpace) Unmap(va, length uint64) error {
	if va%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("vm: unaligned unmap va=0x%x len=0x%x", va, length)
	}
	for p := vpn(va); p < vpn(va+length); p++ {
		if e, ok := as.pages[p]; ok {
			as.release(e)
			delete(as.pages, p)
		}
	}
	as.Gen++
	return nil
}

// Protect changes the protection of [va, va+length).
func (as *AddressSpace) Protect(va, length uint64, prot Prot) error {
	if va%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("vm: unaligned protect va=0x%x len=0x%x", va, length)
	}
	for p := vpn(va); p < vpn(va+length); p++ {
		e, ok := as.pages[p]
		if !ok {
			return &PageFault{VA: p << PageShift, Access: prot, Kind: FaultNotMapped}
		}
		e.prot = prot
	}
	as.Gen++
	return nil
}

// Mapped reports whether every page of [va, va+length) is mapped.
func (as *AddressSpace) Mapped(va, length uint64) bool {
	if length == 0 {
		length = 1
	}
	for p := vpn(va); p <= vpn(va+length-1); p++ {
		if _, ok := as.pages[p]; !ok {
			return false
		}
	}
	return true
}

// FindFree returns the lowest page-aligned address >= hint with length
// bytes unmapped (the mmap placement policy).
func (as *AddressSpace) FindFree(hint, length uint64) uint64 {
	length = (length + PageSize - 1) &^ (PageSize - 1)
	va := hint &^ (PageSize - 1)
	for {
		ok := true
		for p := vpn(va); p < vpn(va+length); p++ {
			if _, exists := as.pages[p]; exists {
				ok = false
				va = (p + 1) << PageShift
				break
			}
		}
		if ok {
			return va
		}
	}
}

// Translate resolves va for the given access, handling soft faults
// (demand-zero allocation, copy-on-write, swap-in with rederivation)
// transparently and returning hard faults for the kernel to turn into
// signals.
func (as *AddressSpace) Translate(va uint64, access Prot) (uint64, *PageFault) {
	e, ok := as.pages[vpn(va)]
	if !ok {
		return 0, &PageFault{VA: va, Access: access, Kind: FaultNotMapped}
	}
	if e.prot&access != access {
		return 0, &PageFault{VA: va, Access: access, Kind: FaultProt}
	}
	if e.zero {
		e.frame = as.sys.Frames.alloc()
		as.sys.Mem.Zero(e.frame, PageSize)
		e.zero = false
		e.present = true
		as.Stats.DemandZero++
		as.Gen++
	}
	if e.swapped {
		as.swapIn(e)
	}
	if access&ProtWrite != 0 && e.cow && !e.shared {
		if as.sys.Frames.shared(e.frame) {
			newFrame := as.sys.Frames.alloc()
			as.sys.Mem.CopyTagged(newFrame, e.frame, PageSize)
			as.sys.Frames.decref(e.frame)
			e.frame = newFrame
			as.Stats.COWCopies++
			as.Gen++
		}
		e.cow = false
	}
	return e.frame + va%PageSize, nil
}

// swapIn restores a page from the swap store: bytes first (tags cleared by
// the write), then per-granule capability rederivation.
func (as *AddressSpace) swapIn(e *pte) {
	slot := as.sys.Swap.take(e.swapID)
	e.frame = as.sys.Frames.alloc()
	e.swapped = false
	e.present = true
	as.Gen++
	as.sys.Mem.WriteBytes(e.frame, slot.data)
	granule := as.sys.Mem.Granule()
	buf := make([]byte, granule)
	for i, tagged := range slot.tags {
		if !tagged {
			continue
		}
		pa := e.frame + uint64(i)*granule
		if as.Rederive == nil || as.Rederive(pa) {
			as.sys.Mem.LoadCap(pa, buf)
			as.sys.Mem.StoreCap(pa, buf, true)
			as.Stats.TagsKept++
		} else {
			as.Stats.TagsLost++
		}
	}
	as.Stats.SwapIns++
}

// SwapOut evicts the page containing va: bytes and the tag bitmap go to
// the swap store ("The swap subsystem scans evicted pages, recording tags
// in the swap metadata"), and the frame is freed.
func (as *AddressSpace) SwapOut(va uint64) error {
	e, ok := as.pages[vpn(va)]
	if !ok || !e.present {
		return fmt.Errorf("vm: swap-out of non-resident page va=0x%x", va)
	}
	if as.sys.Frames.shared(e.frame) {
		return fmt.Errorf("vm: page va=0x%x is shared (wired)", va)
	}
	data := make([]byte, PageSize)
	as.sys.Mem.ReadBytes(e.frame, data)
	tags := as.sys.Mem.ExtractTags(e.frame, PageSize)
	e.swapID = as.sys.Swap.put(data, tags)
	e.swapped = true
	e.present = false
	as.Gen++
	as.sys.Frames.decref(e.frame)
	e.frame = 0
	as.Stats.SwapOuts++
	return nil
}

// Resident reports whether the page containing va currently has a frame.
func (as *AddressSpace) Resident(va uint64) bool {
	e, ok := as.pages[vpn(va)]
	return ok && e.present
}

// Fork clones the address space with copy-on-write semantics: writable
// pages are shared read-only until either side writes.
func (as *AddressSpace) Fork() *AddressSpace {
	child := as.sys.NewAddressSpace()
	child.Rederive = nil // kernel installs a fresh one bound to the child root
	child.pages = make(map[uint64]*pte, len(as.pages))
	var swapped []uint64
	for p, e := range as.pages {
		ne := *e
		if e.present {
			as.sys.Frames.incref(e.frame)
			if e.prot&ProtWrite != 0 && !e.shared {
				e.cow = true
				ne.cow = true
			}
		}
		if e.swapped {
			swapped = append(swapped, p)
		}
		if e.zero {
			ne = pte{prot: e.prot, zero: true}
		}
		child.pages[p] = &ne
	}
	// Duplicate each swap slot so each side owns one. Slot IDs are handed
	// out in sequence, so the duplicates are made in page order.
	slices.Sort(swapped)
	for _, p := range swapped {
		slot := as.sys.Swap.slots[as.pages[p].swapID]
		data := make([]byte, len(slot.data))
		copy(data, slot.data)
		tags := make([]bool, len(slot.tags))
		copy(tags, slot.tags)
		child.pages[p].swapID = as.sys.Swap.put(data, tags)
	}
	// The fork mutated the *parent's* page table too (writable pages became
	// copy-on-write), so any cached translation that still allows a direct
	// write to a now-shared frame must die: bump the parent's generation.
	as.Gen++
	return child
}

// Release drops every mapping (process exit). Resident pages are
// released in ascending address order: freed frames re-enter the shared
// allocator in a deterministic sequence, so the physical placement — and
// therefore the cache behaviour — of every later allocation is a pure
// function of the boot seed and the guest's actions. (Map-order frees
// made simulated cycles flicker across identical runs once several
// processes exited mid-run; the posix-sockets differential rows caught
// it.) Only the resident pages are sorted: demand-zero pages free
// nothing, and swap slots are returned in any order.
func (as *AddressSpace) Release() {
	var resident []uint64
	for p, e := range as.pages {
		if e.present {
			resident = append(resident, p)
		}
		if e.swapped {
			as.sys.Swap.take(e.swapID)
		}
	}
	slices.Sort(resident)
	for _, p := range resident {
		as.sys.Frames.decref(as.pages[p].frame)
	}
	clear(as.pages)
}

// Regions returns the mapped ranges, merged and sorted, for /proc-style
// inspection and the debugger.
func (as *AddressSpace) Regions() []Region {
	if len(as.pages) == 0 {
		return nil
	}
	vpns := make([]uint64, 0, len(as.pages))
	for p := range as.pages {
		vpns = append(vpns, p)
	}
	slices.Sort(vpns)
	var out []Region
	cur := Region{Start: vpns[0] << PageShift, End: (vpns[0] + 1) << PageShift, Prot: as.pages[vpns[0]].prot}
	for _, p := range vpns[1:] {
		e := as.pages[p]
		if p<<PageShift == cur.End && e.prot == cur.Prot {
			cur.End += PageSize
			continue
		}
		out = append(out, cur)
		cur = Region{Start: p << PageShift, End: (p + 1) << PageShift, Prot: e.prot}
	}
	return append(out, cur)
}

// Region is a contiguous mapped range with uniform protection.
type Region struct {
	Start, End uint64
	Prot       Prot
}
