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

	"cheriabi/internal/cap"
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
// The chunk size trades the bytes (and tags) a first write allocates and
// zeroes against the two chunk tables New allocates per boot. A short
// program touches a few hundred scattered pages: 1 MiB chunks made every
// exec zero a whole megabyte for them, while 4 KiB chunks would give a
// 256 MiB machine 65,536-entry tables; 64 KiB chunks give 4096.
const (
	chunkShift = 16 // 64 KiB chunks
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// GranShift is log2 of the tag granule: one tag bit per capability
// (cap.Bytes bytes, capability-aligned). Callers index the tag slices
// Page hands out with it.
const GranShift = 4

// The granule is the capability width: one tag per stored capability. A
// cap.Bytes other than 1<<GranShift fails to compile here.
var _ [0]struct{} = [cap.Bytes - 1<<GranShift]struct{}{}

// A page never straddles a chunk: Page hands out one page as a subslice
// of one chunk.
var _ [0]struct{} = [chunkSize % PageSize]struct{}{}

// Physical is tagged physical memory. Addresses are physical; bounds and
// permission checking happen above this layer (capabilities + MMU), so an
// out-of-range physical access is a simulator bug and panics.
type Physical struct {
	size uint64
	// chunks and tags are parallel lazily-allocated arrays: chunks[i] is
	// nil until the chunk's bytes (or tags) are first written, and nil
	// means "all zero bytes, all tags clear". The two materialize
	// together, so chunks[i] == nil ⟺ tags[i] == nil. Once allocated, a
	// chunk's arrays never move: slices into them (the page backings in
	// the CPU's data micro-TLB) stay valid for the Physical's lifetime.
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
}

// New returns size bytes of zeroed physical memory with one tag per
// capability-sized granule. size must be a multiple of cap.Bytes.
func New(size uint64) *Physical {
	if size%cap.Bytes != 0 {
		panic(fmt.Sprintf("mem: size %d not a multiple of the %d-byte granule", size, cap.Bytes))
	}
	nchunks := (size + chunkSize - 1) / chunkSize
	return &Physical{
		size:   size,
		chunks: make([][]byte, nchunks),
		tags:   make([][]bool, nchunks),
		gens:   make([]uint64, (size+PageSize-1)/PageSize),
	}
}

// Size returns the memory size in bytes.
func (m *Physical) Size() uint64 { return m.size }

func (m *Physical) check(pa, n uint64) {
	if pa+n > m.size || pa+n < pa {
		panic(fmt.Sprintf("mem: physical access out of range: pa=0x%x n=%d size=0x%x", pa, n, m.size))
	}
}

// materialize returns the chunk containing pa for mutation, allocating
// (implicitly zeroed) bytes and tags on first touch.
func (m *Physical) materialize(pa uint64) ([]byte, []bool) {
	ci := pa >> chunkShift
	if m.chunks[ci] == nil {
		csize := uint64(chunkSize)
		if rem := m.size - ci<<chunkShift; rem < csize {
			csize = rem
		}
		m.chunks[ci] = make([]byte, csize)
		m.tags[ci] = make([]bool, csize/cap.Bytes)
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

// Page returns the byte and tag slices backing the page at paPage, plus
// the page's write-generation counter, or nils when there is nothing to
// serve in place: the page is out of range, or its chunk was never
// written (such a page reads as zeroes with clear tags through Load and
// LoadCap, and handing it out would materialize it on a read). The
// slices alias live memory for the Physical's lifetime. A caller that
// writes through them takes over Store's contract for every write: clear
// the tags of touched granules and bump the generation counter.
func (m *Physical) Page(paPage uint64) (data []byte, tags []bool, gen *uint64) {
	if paPage%PageSize != 0 || paPage+PageSize > m.size || paPage+PageSize < paPage {
		return nil, nil, nil
	}
	ci := paPage >> chunkShift
	ch := m.chunks[ci]
	if ch == nil {
		return nil, nil, nil
	}
	off := paPage & chunkMask // the whole page lies in chunk ci
	return ch[off : off+PageSize : off+PageSize],
		m.tags[ci][off>>GranShift : (off+PageSize)>>GranShift : (off+PageSize)>>GranShift],
		&m.gens[paPage>>PageShift]
}

// clearTags clears the tags of every granule overlapping [pa, pa+n).
// Untouched chunks already hold no tags and stay unmaterialized.
func (m *Physical) clearTags(pa, n uint64) {
	if n == 0 {
		return
	}
	first, last := pa>>GranShift, (pa+n-1)>>GranShift
	for g := first; g <= last; {
		ci := g << GranShift >> chunkShift
		chunkEnd := (ci + 1) << chunkShift >> GranShift // first granule of next chunk
		end := last + 1
		if chunkEnd < end {
			end = chunkEnd
		}
		if t := m.tags[ci]; t != nil {
			base := ci << chunkShift >> GranShift
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
		if pa>>GranShift == (pa+n-1)>>GranShift {
			// Inside one granule (every naturally aligned scalar store):
			// exactly one tag to clear and — granules never straddle
			// pages — exactly one page generation to bump.
			tags[off>>GranShift] = false
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
	return t[(pa&chunkMask)/cap.Bytes]
}

// LoadCap reads one capability-sized value at pa, returning the raw bytes
// and the granule's tag. pa must be granule-aligned.
func (m *Physical) LoadCap(pa uint64, buf []byte) bool {
	if pa%cap.Bytes != 0 {
		panic(fmt.Sprintf("mem: unaligned capability load at 0x%x", pa))
	}
	m.check(pa, cap.Bytes)
	ch := m.chunks[pa>>chunkShift]
	if ch == nil {
		clear(buf[:cap.Bytes])
		return false
	}
	off := pa & chunkMask
	copy(buf, ch[off:off+cap.Bytes])
	return m.tags[pa>>chunkShift][off/cap.Bytes]
}

// StoreCap writes one capability-sized value at pa with the given tag.
// pa must be granule-aligned.
func (m *Physical) StoreCap(pa uint64, buf []byte, tag bool) {
	if pa%cap.Bytes != 0 {
		panic(fmt.Sprintf("mem: unaligned capability store at 0x%x", pa))
	}
	m.check(pa, cap.Bytes)
	ch, tags := m.materialize(pa)
	off := pa & chunkMask
	copy(ch[off:off+cap.Bytes], buf[:cap.Bytes])
	tags[off/cap.Bytes] = tag
	m.touch(pa, cap.Bytes)
}

// CopyTagged copies n bytes from src to dst preserving tags where both
// sides are granule-aligned granules (used by page copies: COW, fork).
// n, src and dst must be granule-aligned.
func (m *Physical) CopyTagged(dst, src, n uint64) {
	if dst%cap.Bytes != 0 || src%cap.Bytes != 0 || n%cap.Bytes != 0 {
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
			if dstCh, dstTags := m.chunks[d>>chunkShift], m.tags[d>>chunkShift]; dstCh != nil {
				off := d & chunkMask
				clear(dstCh[off : off+span])
				clear(dstTags[off/cap.Bytes : (off+span)/cap.Bytes])
			}
		} else {
			dstCh, dstTags := m.materialize(d)
			so, do := s&chunkMask, d&chunkMask
			copy(dstCh[do:do+span], srcCh[so:so+span])
			copy(dstTags[do/cap.Bytes:(do+span)/cap.Bytes], srcTags[so/cap.Bytes:(so+span)/cap.Bytes])
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
	if pa%cap.Bytes != 0 || n%cap.Bytes != 0 || uint64(len(tags)) != n/cap.Bytes {
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
		copy(t[off/cap.Bytes:(off+span)/cap.Bytes], tags[done/cap.Bytes:(done+span)/cap.Bytes])
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
	if pa%cap.Bytes != 0 || n%cap.Bytes != 0 {
		panic("mem: ExtractTags requires granule alignment")
	}
	m.check(pa, n)
	out := make([]bool, n/cap.Bytes)
	for done := uint64(0); done < n; {
		p := pa + done
		span := n - done
		if r := chunkSize - p&chunkMask; r < span {
			span = r
		}
		if t := m.tags[p>>chunkShift]; t != nil {
			off := p & chunkMask
			copy(out[done/cap.Bytes:(done+span)/cap.Bytes], t[off/cap.Bytes:(off+span)/cap.Bytes])
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
		if ch := m.chunks[p>>chunkShift]; ch != nil {
			off := p & chunkMask
			clear(ch[off : off+span])
		}
		done += span
	}
	m.clearTags(pa, n)
	m.touch(pa, n)
}
