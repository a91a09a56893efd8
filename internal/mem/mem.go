// Package mem models tagged physical memory: a flat byte array plus one
// out-of-band tag bit per capability-sized, capability-aligned granule.
// The tag bit distinguishes data from capabilities and is cleared by any
// data write that touches the granule, which is what enforces capability
// integrity ("Violations of the architectural capability semantics,
// including overwriting their representation with (integer) data, will
// clear the tag").
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageShift is the log2 of the page used for write-generation tracking.
// It must match vm.PageShift: the CPU's decoded-instruction cache keys
// blocks by physical page and validates them against these counters.
const PageShift = 12

// PageSize is the generation-tracking page size in bytes.
const PageSize = 1 << PageShift

// Physical memory is allocated lazily in chunks: booting a 128–256 MiB
// machine used to spend a measurable fraction of short evaluation runs
// zeroing a flat array (and its tag map) that the guest mostly never
// touches. A chunk materializes on first *write*; reads of an untouched
// chunk observe zeroes and clear tags without allocating, so first-touch
// semantics are bit-identical to the eager array (a regression test
// proves it against a flat reference model).
//
// The chunk is also the copy-on-write unit of Snapshot, so its size
// trades the bytes a first write zeroes or copies against the length of
// the chunk tables Snapshot and Clone copy. A short program touches a few
// hundred scattered pages: 1 MiB chunks made every exec zero a whole
// chunk for them, 4 KiB chunks made every Clone copy 32k-entry tables.
const (
	chunkShift = 16 // 64 KiB chunks
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// A page never straddles a chunk: ReadablePage and WritablePage hand out
// one page as a subslice of one chunk.
var _ [0]struct{} = [chunkSize % PageSize]struct{}{}

// Physical is tagged physical memory. Addresses are physical; bounds and
// permission checking happen above this layer (capabilities + MMU), so an
// out-of-range physical access is a simulator bug and panics.
type Physical struct {
	size      uint64
	granule   uint64 // capability size in bytes; one tag per granule
	granShift uint   // log2(granule); granule is asserted a power of two
	// chunks and tags are parallel lazily-allocated arrays: chunks[i] is
	// nil until the chunk's bytes (or tags) are first written, and nil
	// means "all zero bytes, all tags clear". The two materialize
	// together, so chunks[i] == nil ⟺ tags[i] == nil.
	chunks [][]byte
	tags   [][]bool
	// gens holds one write-generation counter per page. Every mutation of
	// page bytes (or tags) bumps the page's counter, so consumers that
	// cache derived views of memory — the CPU's decoded-instruction
	// cache — can validate them with a single compare. This is the
	// innermost layer of the fetch-fast-path invalidation protocol: any
	// store, byte copy, capability store, tagged copy, or zeroing that can
	// change executable bytes lands here.
	gens []uint64
	// cow marks chunks whose backing arrays are shared with a Snapshot
	// (and through it with sibling clones). A shared chunk is read in
	// place; the first mutation privatizes it — copies bytes and tags into
	// fresh arrays — so the snapshot stays immutable and siblings never
	// observe each other's writes. nil means no chunk is shared.
	cow []bool
	// epoch counts backing-identity events: any change to which arrays
	// back a chunk, or to whether a write may mutate them in place (chunk
	// materialization, privatization, Snapshot marking chunks
	// copy-on-write). Consumers holding slices into chunk arrays — the
	// page backings in the CPU's data micro-TLB — revalidate with one
	// compare; contents are NOT covered (in-place writes are visible
	// through such slices by construction).
	epoch uint64
}

// New returns size bytes of zeroed physical memory with one tag per
// granule bytes. size must be a multiple of granule, and granule a power
// of two no larger than a chunk (both capability formats are 16 or 32
// bytes).
func New(size, granule uint64) *Physical {
	if granule == 0 || size%granule != 0 {
		panic(fmt.Sprintf("mem: size %d not a multiple of granule %d", size, granule))
	}
	if granule&(granule-1) != 0 || granule > chunkSize {
		panic(fmt.Sprintf("mem: granule %d must be a power of two ≤ %d", granule, chunkSize))
	}
	nchunks := (size + chunkSize - 1) / chunkSize
	return &Physical{
		size:      size,
		granule:   granule,
		granShift: granShiftOf(granule),
		chunks:    make([][]byte, nchunks),
		tags:      make([][]bool, nchunks),
		gens:      make([]uint64, (size+PageSize-1)/PageSize),
	}
}

// granShiftOf returns log2 of a power-of-two granule.
func granShiftOf(granule uint64) uint {
	var sh uint
	for g := granule; g > 1; g >>= 1 {
		sh++
	}
	return sh
}

// Size returns the memory size in bytes.
func (m *Physical) Size() uint64 { return m.size }

// Granule returns the capability granule size in bytes.
func (m *Physical) Granule() uint64 { return m.granule }

// GranShift returns log2(Granule()), for callers that index the tag
// slices ReadablePage and WritablePage hand out.
func (m *Physical) GranShift() uint { return m.granShift }

func (m *Physical) check(pa, n uint64) {
	if pa+n > m.size || pa+n < pa {
		panic(fmt.Sprintf("mem: physical access out of range: pa=0x%x n=%d size=0x%x", pa, n, m.size))
	}
}

// materialize returns the chunk containing pa for mutation, allocating
// (implicitly zeroed) bytes and tags on first touch and privatizing a
// snapshot-shared chunk first.
func (m *Physical) materialize(pa uint64) ([]byte, []bool) {
	ci := pa >> chunkShift
	ch := m.chunks[ci]
	if ch == nil {
		csize := uint64(chunkSize)
		if rem := m.size - ci<<chunkShift; rem < csize {
			csize = rem
		}
		ch = make([]byte, csize)
		m.chunks[ci] = ch
		m.tags[ci] = make([]bool, csize/m.granule)
		m.epoch++
	} else if m.cow != nil && m.cow[ci] {
		m.privatize(ci)
	}
	return m.chunks[ci], m.tags[ci]
}

// privatize replaces a snapshot-shared chunk's arrays with private copies.
func (m *Physical) privatize(ci uint64) {
	nb := make([]byte, len(m.chunks[ci]))
	copy(nb, m.chunks[ci])
	nt := make([]bool, len(m.tags[ci]))
	copy(nt, m.tags[ci])
	m.chunks[ci], m.tags[ci] = nb, nt
	m.cow[ci] = false
	m.epoch++
}

// writable returns the chunk's arrays for in-place mutation, privatizing
// a snapshot-shared chunk first — but unlike materialize it leaves an
// untouched chunk unmaterialized and returns nils: callers that only
// clear bytes or tags (Zero, clearTags, CopyTagged's zero-source branch)
// can skip a chunk that already reads as zero.
func (m *Physical) writable(ci uint64) ([]byte, []bool) {
	if m.chunks[ci] == nil {
		return nil, nil
	}
	if m.cow != nil && m.cow[ci] {
		m.privatize(ci)
	}
	return m.chunks[ci], m.tags[ci]
}

// touch bumps the write generation of every page overlapping [pa, pa+n).
// Every mutator below calls it; PageGen exposes the counters.
func (m *Physical) touch(pa, n uint64) {
	if n == 0 {
		return
	}
	for p := pa >> PageShift; p <= (pa+n-1)>>PageShift; p++ {
		m.gens[p]++
	}
}

// PageGen returns the write generation of the page containing pa. A cached
// view of the page's contents is valid iff the generation it was built at
// still matches.
func (m *Physical) PageGen(pa uint64) uint64 {
	return m.gens[pa>>PageShift]
}

// PageGenPtr returns a pointer to the page's write-generation counter, for
// hot loops that probe one page's generation repeatedly (the threaded
// engine probes the executing page after every memory instruction). The
// pointer stays valid for the Physical's lifetime: gens is allocated once
// and never reallocated.
func (m *Physical) PageGenPtr(pa uint64) *uint64 {
	return &m.gens[pa>>PageShift]
}

// Epoch returns the backing-identity counter (see the field comment).
// Slices obtained from ReadablePage/WritablePage are valid for the use
// they were handed out for only while Epoch is unchanged.
func (m *Physical) Epoch() uint64 { return m.epoch }

// ReadablePage returns the byte and tag slices backing the page at paPage
// for direct reads, or nils when there is nothing to read in place (page
// out of range, or chunk never materialized — such a page reads as zeroes
// with clear tags through Load and LoadCap). The slices alias live
// memory: in-place mutations by this Physical remain visible through
// them, and they must be dropped when Epoch changes (a privatization or
// snapshot may detach the arrays). They must never be written through: a
// snapshot-shared chunk is handed out as is, unprivatized.
func (m *Physical) ReadablePage(paPage uint64) (data []byte, tags []bool) {
	if paPage%PageSize != 0 || paPage+PageSize > m.size || paPage+PageSize < paPage {
		return nil, nil
	}
	ci := paPage >> chunkShift
	ch := m.chunks[ci]
	if ch == nil {
		return nil, nil
	}
	off := paPage & chunkMask // the whole page lies in chunk ci
	gs := m.granShift
	return ch[off : off+PageSize : off+PageSize],
		m.tags[ci][off>>gs : (off+PageSize)>>gs : (off+PageSize)>>gs]
}

// WritablePage returns the byte and tag slices backing the page at paPage
// for direct mutation, plus the page's write-generation counter, after
// materializing (and, if snapshot-shared, privatizing) the chunk — the
// same preparation Store performs. nils when the page is out of range.
// The caller takes over Store's contract for every write: clear the tags
// of touched granules and bump the generation counter. Slices and pointer
// must be dropped when Epoch changes.
func (m *Physical) WritablePage(paPage uint64) (data []byte, tags []bool, gen *uint64) {
	if paPage%PageSize != 0 || paPage+PageSize > m.size || paPage+PageSize < paPage {
		return nil, nil, nil
	}
	ch, tg := m.materialize(paPage)
	off := paPage & chunkMask // the whole page lies in this chunk
	gs := m.granShift
	return ch[off : off+PageSize : off+PageSize],
		tg[off>>gs : (off+PageSize)>>gs : (off+PageSize)>>gs],
		&m.gens[paPage>>PageShift]
}

// clearTags clears the tags of every granule overlapping [pa, pa+n).
// Untouched chunks already hold no tags and stay unmaterialized.
func (m *Physical) clearTags(pa, n uint64) {
	if n == 0 {
		return
	}
	gs := m.granShift
	first, last := pa>>gs, (pa+n-1)>>gs
	for g := first; g <= last; {
		ci := g << gs >> chunkShift
		chunkEnd := (ci + 1) << chunkShift >> gs // first granule of next chunk
		end := last + 1
		if chunkEnd < end {
			end = chunkEnd
		}
		if _, t := m.writable(ci); t != nil {
			base := ci << chunkShift >> gs
			clear(t[g-base : end-base])
		}
		g = end
	}
}

// byteAt reads one byte, treating untouched chunks as zero.
func (m *Physical) byteAt(pa uint64) byte {
	ch := m.chunks[pa>>chunkShift]
	if ch == nil {
		return 0
	}
	return ch[pa&chunkMask]
}

// Load returns an n-byte little-endian integer at pa (n in 1,2,4,8).
func (m *Physical) Load(pa, n uint64) uint64 {
	m.check(pa, n)
	off := pa & chunkMask
	if off+n <= chunkSize {
		ch := m.chunks[pa>>chunkShift]
		if ch == nil {
			switch n {
			case 1, 2, 4, 8:
				return 0
			}
			panic(fmt.Sprintf("mem: bad load size %d", n))
		}
		switch n {
		case 1:
			return uint64(ch[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(ch[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(ch[off:]))
		case 8:
			return binary.LittleEndian.Uint64(ch[off:])
		}
		panic(fmt.Sprintf("mem: bad load size %d", n))
	}
	// Misaligned access straddling a chunk boundary: assemble bytewise.
	switch n {
	case 2, 4, 8:
	default:
		panic(fmt.Sprintf("mem: bad load size %d", n))
	}
	var v uint64
	for i := uint64(0); i < n; i++ {
		v |= uint64(m.byteAt(pa+i)) << (8 * i)
	}
	return v
}

// Store writes an n-byte little-endian integer at pa and clears the
// granule's tag: integer stores destroy capabilities.
func (m *Physical) Store(pa, n, v uint64) {
	m.check(pa, n)
	off := pa & chunkMask
	if off+n <= chunkSize {
		ch, tags := m.materialize(pa)
		switch n {
		case 1:
			ch[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(ch[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(ch[off:], uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(ch[off:], v)
		default:
			panic(fmt.Sprintf("mem: bad store size %d", n))
		}
		if pa>>m.granShift == (pa+n-1)>>m.granShift {
			// Inside one granule (every naturally aligned scalar store):
			// exactly one tag to clear and — granules never straddle
			// pages — exactly one page generation to bump. The chunk is
			// already materialized and private, so the generic walks'
			// writable() re-checks are skipped too.
			tags[off>>m.granShift] = false
			m.gens[pa>>PageShift]++
			return
		}
		m.clearTags(pa, n)
		m.touch(pa, n)
		return
	}
	// Misaligned store straddling a chunk boundary: scatter bytewise.
	switch n {
	case 2, 4, 8:
	default:
		panic(fmt.Sprintf("mem: bad store size %d", n))
	}
	for i := uint64(0); i < n; i++ {
		ch, _ := m.materialize(pa + i)
		ch[(pa+i)&chunkMask] = byte(v >> (8 * i))
	}
	m.clearTags(pa, n)
	m.touch(pa, n)
}

// ReadBytes copies len(buf) bytes starting at pa into buf.
func (m *Physical) ReadBytes(pa uint64, buf []byte) {
	n := uint64(len(buf))
	m.check(pa, n)
	for done := uint64(0); done < n; {
		span := n - done
		if r := chunkSize - (pa+done)&chunkMask; r < span {
			span = r
		}
		dst := buf[done : done+span]
		if ch := m.chunks[(pa+done)>>chunkShift]; ch != nil {
			copy(dst, ch[(pa+done)&chunkMask:])
		} else {
			clear(dst)
		}
		done += span
	}
}

// WriteBytes copies buf into memory at pa, clearing overlapped tags.
func (m *Physical) WriteBytes(pa uint64, buf []byte) {
	n := uint64(len(buf))
	m.check(pa, n)
	for done := uint64(0); done < n; {
		span := n - done
		if r := chunkSize - (pa+done)&chunkMask; r < span {
			span = r
		}
		ch, _ := m.materialize(pa + done)
		copy(ch[(pa+done)&chunkMask:], buf[done:done+span])
		done += span
	}
	m.clearTags(pa, n)
	m.touch(pa, n)
}

// Tag returns the tag bit of the granule containing pa.
func (m *Physical) Tag(pa uint64) bool {
	m.check(pa, 1)
	t := m.tags[pa>>chunkShift]
	if t == nil {
		return false
	}
	return t[(pa&chunkMask)/m.granule]
}

// LoadCap reads one capability-sized value at pa, returning the raw bytes
// and the granule's tag. pa must be granule-aligned.
func (m *Physical) LoadCap(pa uint64, buf []byte) bool {
	if pa%m.granule != 0 {
		panic(fmt.Sprintf("mem: unaligned capability load at 0x%x", pa))
	}
	m.check(pa, m.granule)
	ch := m.chunks[pa>>chunkShift]
	if ch == nil {
		clear(buf[:m.granule])
		return false
	}
	off := pa & chunkMask
	copy(buf, ch[off:off+m.granule])
	return m.tags[pa>>chunkShift][off/m.granule]
}

// StoreCap writes one capability-sized value at pa with the given tag.
// pa must be granule-aligned.
func (m *Physical) StoreCap(pa uint64, buf []byte, tag bool) {
	if pa%m.granule != 0 {
		panic(fmt.Sprintf("mem: unaligned capability store at 0x%x", pa))
	}
	m.check(pa, m.granule)
	ch, tags := m.materialize(pa)
	off := pa & chunkMask
	copy(ch[off:off+m.granule], buf[:m.granule])
	tags[off/m.granule] = tag
	m.touch(pa, m.granule)
}

// CopyTagged copies n bytes from src to dst preserving tags where both
// sides are granule-aligned granules (used by page copies: COW, fork).
// n, src and dst must be granule-aligned.
func (m *Physical) CopyTagged(dst, src, n uint64) {
	if dst%m.granule != 0 || src%m.granule != 0 || n%m.granule != 0 {
		panic("mem: CopyTagged requires granule alignment")
	}
	m.check(dst, n)
	m.check(src, n)
	// The pre-chunking implementation was a single Go copy, which has
	// memmove semantics for overlapping ranges. Chunk spans are copied
	// front to back, which corrupts a forward overlap (dst inside
	// [src, src+n)) because later spans would re-read already-written
	// bytes — so walk those backwards instead.
	backward := dst > src && dst < src+n
	copySpan := func(done, span uint64) {
		s, d := src+done, dst+done
		srcCh, srcTags := m.chunks[s>>chunkShift], m.tags[s>>chunkShift]
		if srcCh == nil {
			// Source untouched: the destination range becomes zero bytes
			// with clear tags; an untouched destination already is.
			if dstCh, dstTags := m.writable(d >> chunkShift); dstCh != nil {
				off := d & chunkMask
				clear(dstCh[off : off+span])
				clear(dstTags[off/m.granule : (off+span)/m.granule])
			}
		} else {
			dstCh, dstTags := m.materialize(d)
			so, do := s&chunkMask, d&chunkMask
			copy(dstCh[do:do+span], srcCh[so:so+span])
			copy(dstTags[do/m.granule:(do+span)/m.granule], srcTags[so/m.granule:(so+span)/m.granule])
		}
	}
	spanAt := func(done uint64) uint64 {
		span := n - done
		if r := chunkSize - (src+done)&chunkMask; r < span {
			span = r
		}
		if r := chunkSize - (dst+done)&chunkMask; r < span {
			span = r
		}
		return span
	}
	if backward {
		// Collect the span boundaries, then copy last span first. Within a
		// span the single copy() call keeps memmove semantics.
		var starts []uint64
		for done := uint64(0); done < n; done += spanAt(done) {
			starts = append(starts, done)
		}
		for i := len(starts) - 1; i >= 0; i-- {
			copySpan(starts[i], spanAt(starts[i]))
		}
	} else {
		for done := uint64(0); done < n; done += spanAt(done) {
			copySpan(done, spanAt(done))
		}
	}
	m.touch(dst, n)
}

// WriteTagged copies buf into memory at pa and sets the overlapped
// granule tags from tags (one per granule), used by tag-preserving bulk
// copies staged through a host buffer. pa and len(buf) must be
// granule-aligned and len(tags) must be len(buf)/granule.
func (m *Physical) WriteTagged(pa uint64, buf []byte, tags []bool) {
	n := uint64(len(buf))
	if pa%m.granule != 0 || n%m.granule != 0 || uint64(len(tags)) != n/m.granule {
		panic("mem: WriteTagged requires granule alignment")
	}
	m.check(pa, n)
	for done := uint64(0); done < n; {
		span := n - done
		if r := chunkSize - (pa+done)&chunkMask; r < span {
			span = r
		}
		ch, t := m.materialize(pa + done)
		off := (pa + done) & chunkMask
		copy(ch[off:off+span], buf[done:done+span])
		copy(t[off/m.granule:(off+span)/m.granule], tags[done/m.granule:(done+span)/m.granule])
		done += span
	}
	m.touch(pa, n)
}

// Fill stores n copies of v starting at pa, clearing overlapped tags.
// Filling with zero leaves untouched chunks unmaterialized, like Zero.
func (m *Physical) Fill(pa, n uint64, v byte) {
	if v == 0 {
		m.Zero(pa, n)
		return
	}
	m.check(pa, n)
	for done := uint64(0); done < n; {
		p := pa + done
		span := n - done
		if r := chunkSize - p&chunkMask; r < span {
			span = r
		}
		ch, _ := m.materialize(p)
		off := p & chunkMask
		for i := uint64(0); i < span; i++ {
			ch[off+i] = v
		}
		done += span
	}
	m.clearTags(pa, n)
	m.touch(pa, n)
}

// ExtractTags returns the tags of the n/granule granules in [pa, pa+n),
// used by the swapper to preserve abstract capabilities across storage
// that cannot hold tags.
func (m *Physical) ExtractTags(pa, n uint64) []bool {
	if pa%m.granule != 0 || n%m.granule != 0 {
		panic("mem: ExtractTags requires granule alignment")
	}
	m.check(pa, n)
	out := make([]bool, n/m.granule)
	for done := uint64(0); done < n; {
		p := pa + done
		span := n - done
		if r := chunkSize - p&chunkMask; r < span {
			span = r
		}
		if t := m.tags[p>>chunkShift]; t != nil {
			off := p & chunkMask
			copy(out[done/m.granule:(done+span)/m.granule], t[off/m.granule:(off+span)/m.granule])
		}
		done += span
	}
	return out
}

// Zero clears [pa, pa+n) and the overlapped tags. Untouched chunks stay
// unmaterialized — they already read as zero — which is what makes
// boot-time and demand-zero page clearing nearly free.
func (m *Physical) Zero(pa, n uint64) {
	m.check(pa, n)
	for done := uint64(0); done < n; {
		p := pa + done
		span := n - done
		if r := chunkSize - p&chunkMask; r < span {
			span = r
		}
		if ch, _ := m.writable(p >> chunkShift); ch != nil {
			off := p & chunkMask
			clear(ch[off : off+span])
		}
		done += span
	}
	m.clearTags(pa, n)
	m.touch(pa, n)
}

// Snapshot is an immutable image of a Physical's contents at one moment.
// It holds references to the source's materialized chunk arrays — taking
// it is O(materialized chunks), not O(memory) — and both the source and
// every Clone treat those arrays as copy-on-write: reads are served in
// place, the first mutation of a shared chunk privatizes it. The snapshot
// itself never changes, so any number of clones can be stamped from it
// concurrently.
type Snapshot struct {
	size    uint64
	granule uint64
	chunks  [][]byte
	tags    [][]bool
	gens    []uint64
}

// Snapshot freezes the current contents. The source keeps running: its
// materialized chunks are marked copy-on-write, so its next write to each
// one privatizes it and the frozen image stays intact.
func (m *Physical) Snapshot() *Snapshot {
	if m.cow == nil {
		m.cow = make([]bool, len(m.chunks))
	}
	s := &Snapshot{
		size:    m.size,
		granule: m.granule,
		chunks:  make([][]byte, len(m.chunks)),
		tags:    make([][]bool, len(m.tags)),
		gens:    make([]uint64, len(m.gens)),
	}
	copy(s.chunks, m.chunks)
	copy(s.tags, m.tags)
	copy(s.gens, m.gens)
	for i := range m.chunks {
		if m.chunks[i] != nil {
			m.cow[i] = true
		}
	}
	// Chunks just became write-shared: a consumer holding writable slices
	// into them (a CPU micro-TLB page backing) must re-acquire through
	// WritablePage, whose materialize privatizes first.
	m.epoch++
	return s
}

// Clone stamps a new Physical from the snapshot in O(materialized
// chunks): chunk arrays are shared copy-on-write, unmaterialized chunks
// stay unmaterialized, and the page write-generation counters are copied
// so cached views carried over conceptually from the snapshot point
// validate exactly as they would on the source. Writes to a clone
// privatize per chunk; the snapshot and sibling clones are unaffected.
func (s *Snapshot) Clone() *Physical {
	m := &Physical{
		size:      s.size,
		granule:   s.granule,
		granShift: granShiftOf(s.granule),
		chunks:    make([][]byte, len(s.chunks)),
		tags:      make([][]bool, len(s.tags)),
		gens:      make([]uint64, len(s.gens)),
		cow:       make([]bool, len(s.chunks)),
	}
	copy(m.chunks, s.chunks)
	copy(m.tags, s.tags)
	copy(m.gens, s.gens)
	for i, ch := range s.chunks {
		if ch != nil {
			m.cow[i] = true
		}
	}
	return m
}
