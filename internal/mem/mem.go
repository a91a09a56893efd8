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
// zeroes against the chunk header table New allocates per boot. A short
// program touches a few hundred scattered pages: 1 MiB chunks made every
// exec zero a whole megabyte for them, while 4 KiB chunks would give a
// 256 MiB machine a 65,536-entry table; 64 KiB chunks give 4096.
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
	// chunks holds one header per chunk, nil until one of the chunk's
	// page generations is first bumped or handed out. A nil header means
	// "all zero bytes, all tags clear, every generation 0", so a machine's
	// host memory grows with the chunks its guest touches: New allocates
	// 8 bytes per 64 KiB.
	chunks []*chunk
}

// A chunk is the header of one 64 KiB chunk of physical memory.
type chunk struct {
	// gens holds one write-generation counter per page. Every mutation of
	// page bytes (or tags) bumps the page's counter, so consumers that
	// cache derived views of memory — the CPU's decoded-instruction
	// cache — can validate them with a single compare. This is the
	// innermost layer of the fetch-fast-path invalidation protocol: any
	// store, byte copy, capability store, tagged copy, or zeroing that can
	// change executable bytes lands here. Generations only grow.
	gens [chunkSize / PageSize]uint64
	// data and tags are nil until the chunk's bytes (or tags) are first
	// written; nil means all zero bytes, all tags clear. The two
	// materialize together. Once allocated, neither the header nor its
	// arrays move: pointers to gens and slices into data and tags (the
	// page backings in the CPU's data micro-TLB) stay valid for the
	// Physical's lifetime.
	data []byte
	tags []bool
}

// New returns size bytes of zeroed physical memory with one tag per
// capability-sized granule. size must be a multiple of cap.Bytes.
func New(size uint64) *Physical {
	if size%cap.Bytes != 0 {
		panic(fmt.Sprintf("mem: size %d not a multiple of the %d-byte granule", size, cap.Bytes))
	}
	return &Physical{size: size, chunks: make([]*chunk, (size+chunkSize-1)/chunkSize)}
}

// Size returns the memory size in bytes.
func (m *Physical) Size() uint64 { return m.size }

func (m *Physical) check(pa, n uint64) {
	if pa+n > m.size || pa+n < pa {
		panic(fmt.Sprintf("mem: physical access out of range: pa=0x%x n=%d size=0x%x", pa, n, m.size))
	}
}

// header returns chunk ci's header, allocating it on first use.
func (m *Physical) header(ci uint64) *chunk {
	c := m.chunks[ci]
	if c == nil {
		c = &chunk{}
		m.chunks[ci] = c
	}
	return c
}

// written returns chunk ci's header if the chunk's bytes were ever
// written, else nil.
func (m *Physical) written(ci uint64) *chunk {
	if c := m.chunks[ci]; c != nil && c.data != nil {
		return c
	}
	return nil
}

// materialize returns the header of the chunk containing pa for
// mutation, allocating its (implicitly zeroed) bytes and tags on first
// touch.
func (m *Physical) materialize(pa uint64) *chunk {
	ci := pa >> chunkShift
	c := m.header(ci)
	if c.data == nil {
		csize := uint64(chunkSize)
		if rem := m.size - ci<<chunkShift; rem < csize {
			csize = rem
		}
		c.data = make([]byte, csize)
		c.tags = make([]bool, csize/cap.Bytes)
	}
	return c
}

// genIndex is the index of pa's page in its chunk header's gens.
func genIndex(pa uint64) uint64 { return pa >> PageShift & (chunkSize/PageSize - 1) }

// touch bumps the write generation of every page overlapping [pa, pa+n).
// Every mutator below calls it; PageGen exposes the counters.
func (m *Physical) touch(pa, n uint64) {
	if n == 0 {
		return
	}
	for p := pa >> PageShift; p <= (pa+n-1)>>PageShift; p++ {
		m.header(p << PageShift >> chunkShift).gens[genIndex(p<<PageShift)]++
	}
}

// PageGen returns the write generation of the page containing pa: 0
// until the page is first written or zeroed. A cached view of the page's
// contents is valid iff the generation it was built at still matches.
func (m *Physical) PageGen(pa uint64) uint64 {
	if c := m.chunks[pa>>chunkShift]; c != nil {
		return c.gens[genIndex(pa)]
	}
	return 0
}

// PageGenPtr returns a pointer to the page's write-generation counter, for
// hot loops that probe one page's generation repeatedly (the threaded
// engine probes the executing page after every memory instruction). The
// pointer stays valid for the Physical's lifetime: handing it out
// allocates the chunk's header, which never moves, so a later store to a
// page never written before still shows through it.
func (m *Physical) PageGenPtr(pa uint64) *uint64 {
	return &m.header(pa >> chunkShift).gens[genIndex(pa)]
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
	c := m.written(paPage >> chunkShift)
	if c == nil {
		return nil, nil, nil
	}
	off := paPage & chunkMask // the whole page lies in the chunk
	return c.data[off : off+PageSize : off+PageSize],
		c.tags[off>>GranShift : (off+PageSize)>>GranShift : (off+PageSize)>>GranShift],
		&c.gens[genIndex(paPage)]
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
		if c := m.written(ci); c != nil {
			base := ci << chunkShift >> GranShift
			clear(c.tags[g-base : end-base])
		}
		g = end
	}
}

// byteAt reads one byte, treating untouched chunks as zero.
func (m *Physical) byteAt(pa uint64) byte {
	c := m.written(pa >> chunkShift)
	if c == nil {
		return 0
	}
	return c.data[pa&chunkMask]
}

// Load returns an n-byte little-endian integer at pa (n in 1,2,4,8).
func (m *Physical) Load(pa, n uint64) uint64 {
	m.check(pa, n)
	off := pa & chunkMask
	if off+n <= chunkSize {
		c := m.written(pa >> chunkShift)
		if c == nil {
			switch n {
			case 1, 2, 4, 8:
				return 0
			}
			panic(fmt.Sprintf("mem: bad load size %d", n))
		}
		ch := c.data
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
		c := m.materialize(pa)
		ch := c.data
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
			c.tags[off>>GranShift] = false
			c.gens[genIndex(pa)]++
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
		m.materialize(pa + i).data[(pa+i)&chunkMask] = byte(v >> (8 * i))
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
		if c := m.written((pa + done) >> chunkShift); c != nil {
			copy(dst, c.data[(pa+done)&chunkMask:])
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
		copy(m.materialize(pa + done).data[(pa+done)&chunkMask:], buf[done:done+span])
		done += span
	}
	m.clearTags(pa, n)
	m.touch(pa, n)
}

// Tag returns the tag bit of the granule containing pa.
func (m *Physical) Tag(pa uint64) bool {
	m.check(pa, 1)
	c := m.written(pa >> chunkShift)
	if c == nil {
		return false
	}
	return c.tags[(pa&chunkMask)/cap.Bytes]
}

// LoadCap reads one capability-sized value at pa, returning the raw bytes
// and the granule's tag. pa must be granule-aligned.
func (m *Physical) LoadCap(pa uint64, buf []byte) bool {
	if pa%cap.Bytes != 0 {
		panic(fmt.Sprintf("mem: unaligned capability load at 0x%x", pa))
	}
	m.check(pa, cap.Bytes)
	c := m.written(pa >> chunkShift)
	if c == nil {
		clear(buf[:cap.Bytes])
		return false
	}
	off := pa & chunkMask
	copy(buf, c.data[off:off+cap.Bytes])
	return c.tags[off/cap.Bytes]
}

// StoreCap writes one capability-sized value at pa with the given tag.
// pa must be granule-aligned.
func (m *Physical) StoreCap(pa uint64, buf []byte, tag bool) {
	if pa%cap.Bytes != 0 {
		panic(fmt.Sprintf("mem: unaligned capability store at 0x%x", pa))
	}
	m.check(pa, cap.Bytes)
	c := m.materialize(pa)
	off := pa & chunkMask
	copy(c.data[off:off+cap.Bytes], buf[:cap.Bytes])
	c.tags[off/cap.Bytes] = tag
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
		src := m.written(s >> chunkShift)
		if src == nil {
			// Source untouched: the destination range becomes zero bytes
			// with clear tags; an untouched destination already is.
			if dst := m.written(d >> chunkShift); dst != nil {
				off := d & chunkMask
				clear(dst.data[off : off+span])
				clear(dst.tags[off/cap.Bytes : (off+span)/cap.Bytes])
			}
		} else {
			dst := m.materialize(d)
			so, do := s&chunkMask, d&chunkMask
			copy(dst.data[do:do+span], src.data[so:so+span])
			copy(dst.tags[do/cap.Bytes:(do+span)/cap.Bytes], src.tags[so/cap.Bytes:(so+span)/cap.Bytes])
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
		c := m.materialize(pa + done)
		off := (pa + done) & chunkMask
		copy(c.data[off:off+span], buf[done:done+span])
		copy(c.tags[off/cap.Bytes:(off+span)/cap.Bytes], tags[done/cap.Bytes:(done+span)/cap.Bytes])
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
		off := p & chunkMask
		ch := m.materialize(p).data
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
		if c := m.written(p >> chunkShift); c != nil {
			off := p & chunkMask
			copy(out[done/cap.Bytes:(done+span)/cap.Bytes], c.tags[off/cap.Bytes:(off+span)/cap.Bytes])
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
		if c := m.written(p >> chunkShift); c != nil {
			off := p & chunkMask
			clear(c.data[off : off+span])
		}
		done += span
	}
	m.clearTags(pa, n)
	m.touch(pa, n)
}
