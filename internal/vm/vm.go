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

	"cheriabi/internal/cap"
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

// A mapping is one range of an address space with uniform protection.
// An AddressSpace keeps its mappings sorted and non-overlapping and
// merges neighbours that abut and agree, so a mapping costs one entry
// however many pages it spans.
type mapping struct {
	start, end uint64 // VPNs [start, end)
	prot       Prot
	shared     bool // MAP_SHARED semantics (MapFrames): never copy-on-write
}

// A pte is the state of one page that has any: a frame, or a swap slot.
// A demand-zero page that was never touched is just a page inside a
// mapping; Translate makes its pte at first touch.
type pte struct {
	frame   uint64 // the resident frame, unless swapped
	swapID  uint64 // the swap slot, if swapped
	cow     bool
	swapped bool
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

// RederiveFunc validates one swapped-in capability granule. It receives
// the physical address of the granule (whose bytes are already restored)
// and returns whether the tag may be restored. The kernel installs a
// function that decodes the capability and checks it against the address
// space's root capability, implementing the paper's swap rederivation.
type RederiveFunc func(pa uint64) bool

// AddressSpace is one process's page table. Each address space is a fresh
// abstract principal ("Principal IDs are freshly created for the kernel
// and each process address space").
//
// Its host cost follows what the guest touches: mappings are ranges, and
// only pages with a frame or a swap slot have a pte, so Map, Unmap,
// Protect, Mapped, FindFree, Regions, Fork and Release cost O(mappings +
// touched pages) whatever the mapped length.
//
// Frames leave the address space in ascending VPN order (Unmap, Map with
// replace, Release), and Fork duplicates swap slots in page order. The
// order in which frames re-enter the shared allocator decides where later
// allocations land, and so the simulated cache behaviour.
type AddressSpace struct {
	ID       uint64
	sys      *System
	maps     []mapping      // sorted by start, non-overlapping
	pages    map[uint64]pte // keyed by VPN; pages with a frame or a swap slot
	vpns     []uint64       // scratch for ascending-order walks
	Stats    Stats
	Rederive RederiveFunc // nil: restore tags verbatim (unsafe; for ablation)
	// Gen increments whenever a translation could change; TLB-style caches
	// key on it.
	Gen uint64
}

// NewAddressSpace returns an empty address space with a fresh principal ID.
func (s *System) NewAddressSpace() *AddressSpace {
	s.nextAS++
	return &AddressSpace{ID: s.nextAS, sys: s, pages: map[uint64]pte{}}
}

func vpn(va uint64) uint64 { return va >> PageShift }

// vpnLimit bounds every VPN: [0, vpnLimit) spans the whole address space.
const vpnLimit = 1 << (64 - PageShift)

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

// index returns the position of the first mapping that ends after VPN p.
func (as *AddressSpace) index(p uint64) int {
	lo, hi := 0, len(as.maps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if as.maps[mid].end <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lookup returns the mapping containing VPN p.
func (as *AddressSpace) lookup(p uint64) (mapping, bool) {
	if i := as.index(p); i < len(as.maps) && as.maps[i].start <= p {
		return as.maps[i], true
	}
	return mapping{}, false
}

// firstMapped returns the lowest mapped VPN in [s, e).
func (as *AddressSpace) firstMapped(s, e uint64) (uint64, bool) {
	if i := as.index(s); s < e && i < len(as.maps) && as.maps[i].start < e {
		return max(s, as.maps[i].start), true
	}
	return 0, false
}

// firstHole returns the lowest VPN in [s, e) that is unmapped or whose
// mapping lacks prot.
func (as *AddressSpace) firstHole(s, e uint64, prot Prot) (uint64, bool) {
	for i := as.index(s); s < e; i++ {
		if i == len(as.maps) || as.maps[i].start > s || as.maps[i].prot&prot != prot {
			return s, true
		}
		s = as.maps[i].end
	}
	return 0, false
}

// split makes VPN p a mapping boundary: a mapping straddling p becomes
// two.
func (as *AddressSpace) split(p uint64) {
	i := as.index(p)
	if i == len(as.maps) || as.maps[i].start >= p {
		return
	}
	as.maps = slices.Insert(as.maps, i+1, as.maps[i])
	as.maps[i].end = p
	as.maps[i+1].start = p
}

// carve makes [s, e) a run of whole mappings and returns their positions
// [i, j).
func (as *AddressSpace) carve(s, e uint64) (int, int) {
	as.split(s)
	as.split(e)
	return as.index(s), as.index(e)
}

// merge joins neighbouring mappings that abut and agree.
func (as *AddressSpace) merge() {
	out := as.maps[:0]
	for _, m := range as.maps {
		if n := len(out); n > 0 && out[n-1].end == m.start && out[n-1].prot == m.prot && out[n-1].shared == m.shared {
			out[n-1].end = m.end
			continue
		}
		out = append(out, m)
	}
	as.maps = out
}

// touched returns the VPNs in [s, e) that have a pte, in ascending order,
// in the scratch slice as.vpns.
func (as *AddressSpace) touched(s, e uint64) []uint64 {
	out := as.vpns[:0]
	for p := range as.pages {
		if s <= p && p < e {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	as.vpns = out
	return out
}

// drop releases the frame or swap slot of every page in [s, e) that has
// one, in ascending VPN order, and forgets the pages' state.
func (as *AddressSpace) drop(s, e uint64) {
	for _, p := range as.touched(s, e) {
		if e := as.pages[p]; e.swapped {
			as.sys.Swap.take(e.swapID)
		} else {
			as.sys.Frames.decref(e.frame)
		}
		delete(as.pages, p)
	}
}

// insert makes [s, e) the mapping m, dropping whatever was mapped there.
func (as *AddressSpace) insert(s, e uint64, m mapping) {
	as.drop(s, e)
	i, j := as.carve(s, e)
	m.start, m.end = s, e
	as.maps = slices.Replace(as.maps, i, j, m)
	as.merge()
}

// MapFrames maps existing frames at va (shared memory: multiple address
// spaces can map the same frames). The frames' reference counts are
// incremented; Unmap drops them.
func (as *AddressSpace) MapFrames(va uint64, frames []uint64, prot Prot) error {
	if va%PageSize != 0 {
		return fmt.Errorf("vm: unaligned MapFrames va=0x%x", va)
	}
	s, e := vpn(va), vpn(va)+uint64(len(frames))
	if p, ok := as.firstMapped(s, e); ok {
		return fmt.Errorf("vm: mapping exists at va=0x%x", p<<PageShift)
	}
	if s < e {
		as.insert(s, e, mapping{prot: prot, shared: true})
	}
	for i, f := range frames {
		as.sys.Frames.incref(f)
		as.pages[s+uint64(i)] = pte{frame: f}
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
	s, e := vpn(va), vpn(va+length)
	if p, ok := as.firstMapped(s, e); ok && !replace {
		return fmt.Errorf("vm: mapping exists at va=0x%x", p<<PageShift)
	}
	if s < e { // a range that wraps the address space maps nothing
		as.insert(s, e, mapping{prot: prot})
	}
	as.Gen++
	return nil
}

// Unmap removes [va, va+length).
func (as *AddressSpace) Unmap(va, length uint64) error {
	if va%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("vm: unaligned unmap va=0x%x len=0x%x", va, length)
	}
	if s, e := vpn(va), vpn(va+length); s < e {
		as.drop(s, e)
		i, j := as.carve(s, e)
		as.maps = slices.Delete(as.maps, i, j)
	}
	as.Gen++
	return nil
}

// Protect changes the protection of [va, va+length). A range with a hole
// changes nothing and faults at the hole's first page, as FreeBSD's
// vm_map_protect checks the whole range first.
func (as *AddressSpace) Protect(va, length uint64, prot Prot) error {
	if va%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("vm: unaligned protect va=0x%x len=0x%x", va, length)
	}
	if s, e := vpn(va), vpn(va+length); s < e {
		if p, hole := as.firstHole(s, e, 0); hole {
			return &PageFault{VA: p << PageShift, Access: prot, Kind: FaultNotMapped}
		}
		i, j := as.carve(s, e)
		for k := i; k < j; k++ {
			as.maps[k].prot = prot
		}
		as.merge()
	}
	as.Gen++
	return nil
}

// Mapped reports whether every page of [va, va+length) is mapped with at
// least the protection prot (0 asks only that it be mapped). A zero
// length asks about the page containing va; a range that wraps the
// address space is not mapped.
func (as *AddressSpace) Mapped(va, length uint64, prot Prot) bool {
	last := va + max(length, 1) - 1
	if last < va {
		return false
	}
	_, hole := as.firstHole(vpn(va), vpn(last)+1, prot)
	return !hole
}

// MappedPages returns the number of mapped pages, touched or not.
func (as *AddressSpace) MappedPages() uint64 {
	var n uint64
	for _, m := range as.maps {
		n += m.end - m.start
	}
	return n
}

// FindFree returns the lowest page-aligned address >= hint with length
// bytes unmapped that ends at or below end (the mmap placement policy),
// and false when there is none. Each conflict moves the candidate past
// the mapping it found, so the scan stops once the candidate cannot fit
// below end.
func (as *AddressSpace) FindFree(hint, length, end uint64) (uint64, bool) {
	if length > end {
		return 0, false
	}
	length = (length + PageSize - 1) &^ (PageSize - 1)
	va := hint &^ (PageSize - 1)
	for i := as.index(vpn(va)); va <= end && length <= end-va; i++ {
		if length == 0 || i == len(as.maps) || as.maps[i].start >= vpn(va+length) {
			return va, true
		}
		va = as.maps[i].end << PageShift
	}
	return 0, false
}

// Translate resolves va for the given access, handling soft faults
// (demand-zero allocation, copy-on-write, swap-in with rederivation)
// transparently and returning hard faults for the kernel to turn into
// signals.
func (as *AddressSpace) Translate(va uint64, access Prot) (uint64, *PageFault) {
	p := vpn(va)
	m, ok := as.lookup(p)
	if !ok {
		return 0, &PageFault{VA: va, Access: access, Kind: FaultNotMapped}
	}
	if m.prot&access != access {
		return 0, &PageFault{VA: va, Access: access, Kind: FaultProt}
	}
	e, ok := as.pages[p]
	dirty := !ok || e.swapped
	switch {
	case !ok:
		e.frame = as.sys.Frames.alloc()
		as.sys.Mem.Zero(e.frame, PageSize)
		as.Stats.DemandZero++
		as.Gen++
	case e.swapped:
		as.swapIn(&e)
	}
	if access&ProtWrite != 0 && e.cow && !m.shared {
		if as.sys.Frames.shared(e.frame) {
			newFrame := as.sys.Frames.alloc()
			as.sys.Mem.CopyTagged(newFrame, e.frame, PageSize)
			as.sys.Frames.decref(e.frame)
			e.frame = newFrame
			as.Stats.COWCopies++
			as.Gen++
		}
		e.cow = false
		dirty = true
	}
	if dirty {
		as.pages[p] = e
	}
	return e.frame + va%PageSize, nil
}

// swapIn restores a page from the swap store: bytes first (tags cleared by
// the write), then per-granule capability rederivation.
func (as *AddressSpace) swapIn(e *pte) {
	slot := as.sys.Swap.take(e.swapID)
	e.frame = as.sys.Frames.alloc()
	e.swapped = false
	as.Gen++
	as.sys.Mem.WriteBytes(e.frame, slot.data)
	buf := make([]byte, cap.Bytes)
	for i, tagged := range slot.tags {
		if !tagged {
			continue
		}
		pa := e.frame + uint64(i)*cap.Bytes
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
	p := vpn(va)
	e, ok := as.pages[p]
	if !ok || e.swapped {
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
	as.Gen++
	as.sys.Frames.decref(e.frame)
	e.frame = 0
	as.pages[p] = e
	as.Stats.SwapOuts++
	return nil
}

// ResidentPages returns the address of every page that has a frame, in
// ascending order.
func (as *AddressSpace) ResidentPages() []uint64 {
	var out []uint64
	for _, p := range as.touched(0, vpnLimit) {
		if !as.pages[p].swapped {
			out = append(out, p<<PageShift)
		}
	}
	return out
}

// Fork clones the address space with copy-on-write semantics: every
// private page is shared until either side writes it, a read-only one
// included, since mprotect may make it writable later (FreeBSD marks
// every private mapping copy-on-write at fork). Untouched pages
// stay untouched on both sides, so a fork costs O(mappings + touched
// pages).
func (as *AddressSpace) Fork() *AddressSpace {
	child := as.sys.NewAddressSpace()
	child.Rederive = nil // kernel installs a fresh one bound to the child root
	child.maps = slices.Clone(as.maps)
	child.pages = make(map[uint64]pte, len(as.pages))
	var swapped []uint64
	for p, e := range as.pages {
		if e.swapped {
			swapped = append(swapped, p)
		} else {
			as.sys.Frames.incref(e.frame)
			if m, _ := as.lookup(p); !m.shared && !e.cow {
				e.cow = true
				as.pages[p] = e
			}
		}
		child.pages[p] = e
	}
	// Duplicate each swap slot so each side owns one. Slot IDs are handed
	// out in sequence, so the duplicates are made in page order.
	slices.Sort(swapped)
	for _, p := range swapped {
		e := child.pages[p]
		slot := as.sys.Swap.slots[e.swapID]
		e.swapID = as.sys.Swap.put(slices.Clone(slot.data), slices.Clone(slot.tags))
		child.pages[p] = e
	}
	// The fork mutated the *parent's* page table too (private pages became
	// copy-on-write), so any cached translation that still allows a direct
	// write to a now-shared frame must die: bump the parent's generation.
	as.Gen++
	return child
}

// Release drops every mapping (process exit). Frames are released in
// ascending address order: freed frames re-enter the shared allocator in
// a deterministic sequence, so the physical placement — and therefore
// the cache behaviour — of every later allocation is a pure function of
// the boot seed and the guest's actions. (Map-order frees made simulated
// cycles flicker across identical runs once several processes exited
// mid-run; the posix-sockets differential rows caught it.)
func (as *AddressSpace) Release() {
	as.drop(0, vpnLimit)
	as.maps = nil
}

// Regions returns the mapped ranges, merged and sorted, for /proc-style
// inspection and the debugger.
func (as *AddressSpace) Regions() []Region {
	var out []Region
	for _, m := range as.maps {
		start, end := m.start<<PageShift, m.end<<PageShift
		if n := len(out); n > 0 && out[n-1].End == start && out[n-1].Prot == m.prot {
			out[n-1].End = end
			continue
		}
		out = append(out, Region{Start: start, End: end, Prot: m.prot})
	}
	return out
}

// Region is a contiguous mapped range with uniform protection.
type Region struct {
	Start, End uint64
	Prot       Prot
}
