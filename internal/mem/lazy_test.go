package mem

import (
	"runtime"
	"testing"
)

// Physical memory materializes lazily, one chunk at a time, on first
// write. These tests prove the first-touch semantics are indistinguishable
// from the eager flat array they replaced: untouched memory reads as zero
// bytes with clear tags, every mutator produces the same bytes, tags, and
// page generations, and accesses that straddle a chunk boundary behave
// exactly like interior ones.

// reference is a flat eager model of tagged memory, mirroring the
// pre-lazy implementation byte for byte.
type reference struct {
	data    []byte
	tags    []bool
	granule uint64
}

func newReference(size, granule uint64) *reference {
	return &reference{data: make([]byte, size), tags: make([]bool, size/granule), granule: granule}
}

func (r *reference) store(pa, n, v uint64) {
	for i := uint64(0); i < n; i++ {
		r.data[pa+i] = byte(v >> (8 * i))
	}
	r.clearTags(pa, n)
}

func (r *reference) load(pa, n uint64) uint64 {
	var v uint64
	for i := uint64(0); i < n; i++ {
		v |= uint64(r.data[pa+i]) << (8 * i)
	}
	return v
}

func (r *reference) clearTags(pa, n uint64) {
	for g := pa / r.granule; g <= (pa+n-1)/r.granule; g++ {
		r.tags[g] = false
	}
}

// TestLazyFirstTouchZero: reads anywhere in a fresh Physical observe zero
// without materializing anything; ReadBytes must overwrite (not skip) a
// dirty destination buffer.
func TestLazyFirstTouchZero(t *testing.T) {
	m := New(8 << 20)
	for _, pa := range []uint64{0, 1, chunkSize - 8, chunkSize, chunkSize + 1, 8<<20 - 8} {
		if v := m.Load(pa, 8); v != 0 {
			t.Fatalf("untouched Load(0x%x) = %#x, want 0", pa, v)
		}
		if m.Tag(pa) {
			t.Fatalf("untouched Tag(0x%x) = true", pa)
		}
	}
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = 0xFF
	}
	m.ReadBytes(chunkSize-2048, buf) // straddles a chunk boundary
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("ReadBytes left dirty byte %#x at offset %d of untouched memory", b, i)
		}
	}
	var cbuf [16]byte
	cbuf[0] = 0xAA
	if tag := m.LoadCap(chunkSize, cbuf[:]); tag {
		t.Fatal("untouched LoadCap returned a set tag")
	}
	if cbuf[0] != 0 {
		t.Fatal("LoadCap left dirty bytes in the destination buffer")
	}
}

// TestLazyMatchesEagerReference drives the same scripted mutation sequence
// through the lazy Physical and a flat eager reference, comparing every
// byte and tag afterwards. The script deliberately crosses chunk
// boundaries, zeroes untouched and touched regions, and copies from
// untouched sources into touched destinations.
func TestLazyMatchesEagerReference(t *testing.T) {
	const size = 4 << 20
	const granule = 16
	m := New(size)
	ref := newReference(size, granule)

	store := func(pa, n, v uint64) {
		m.Store(pa, n, v)
		ref.store(pa, n, v)
	}
	// Interior writes in the first chunk.
	store(0x100, 8, 0x0123456789ABCDEF)
	store(0x108, 1, 0x42)
	// Misaligned store straddling the chunk boundary.
	store(chunkSize-3, 8, 0xFEEDFACECAFEBEEF)
	// Write bytes across the second boundary.
	blob := make([]byte, 300)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	m.WriteBytes(2*chunkSize-100, blob)
	copy(ref.data[2*chunkSize-100:], blob)
	ref.clearTags(2*chunkSize-100, uint64(len(blob)))
	// A capability store in an otherwise untouched chunk.
	capBytes := make([]byte, granule)
	for i := range capBytes {
		capBytes[i] = byte(0xA0 + i)
	}
	m.StoreCap(3*chunkSize+granule, capBytes, true)
	copy(ref.data[3*chunkSize+granule:], capBytes)
	ref.tags[(3*chunkSize+granule)/granule] = true
	// CopyTagged: touched -> untouched region, untouched -> touched region.
	m.CopyTagged(3*chunkSize, 3*chunkSize+granule, granule) // brings the tag along
	copy(ref.data[3*chunkSize:], ref.data[3*chunkSize+granule:3*chunkSize+2*granule])
	ref.tags[3*chunkSize/granule] = ref.tags[(3*chunkSize+granule)/granule]
	m.CopyTagged(3*chunkSize, chunkSize/2, granule) // untouched source: zeroes, clears tag
	copy(ref.data[3*chunkSize:], ref.data[chunkSize/2:chunkSize/2+granule])
	ref.tags[3*chunkSize/granule] = false
	// Zero spans: one fully untouched, one overlapping the first writes.
	m.Zero(chunkSize/2, 4096)
	m.Zero(0x100, 16)
	for i := uint64(0); i < 16; i++ {
		ref.data[0x100+i] = 0
	}
	ref.clearTags(0x100, 16)

	// Full sweep: every byte and tag must match the eager model.
	got := make([]byte, size)
	m.ReadBytes(0, got)
	for i := range got {
		if got[i] != ref.data[i] {
			t.Fatalf("byte 0x%x: lazy %#x, eager %#x", i, got[i], ref.data[i])
		}
	}
	tags := m.ExtractTags(0, size)
	for i := range tags {
		if tags[i] != ref.tags[i] {
			t.Fatalf("tag %d: lazy %v, eager %v", i, tags[i], ref.tags[i])
		}
	}
	// Scalar loads across the boundaries must agree too.
	for _, pa := range []uint64{0x100, chunkSize - 3, chunkSize - 1, 2*chunkSize - 100, 2*chunkSize - 2} {
		for _, n := range []uint64{2, 4, 8} {
			if a, b := m.Load(pa, n), ref.load(pa, n); a != b {
				t.Fatalf("Load(0x%x, %d): lazy %#x, eager %#x", pa, n, a, b)
			}
		}
	}
}

// TestCopyTaggedOverlap: the flat implementation was a single Go copy,
// which has memmove semantics; the chunked walk must preserve them for
// overlapping ranges in both directions, including across chunk seams.
func TestCopyTaggedOverlap(t *testing.T) {
	const granule = 16
	for _, d := range []struct {
		name     string
		src, dst uint64
	}{
		{"forward-interior", 0x1000, 0x1400},
		{"backward-interior", 0x1400, 0x1000},
		{"forward-chunk-seam", chunkSize - 0x800, chunkSize - 0x400},
		{"backward-chunk-seam", chunkSize - 0x400, chunkSize - 0x800},
	} {
		t.Run(d.name, func(t *testing.T) {
			const n = 0x800
			m := New(4 << 20)
			want := make([]byte, n)
			for i := uint64(0); i < n; i++ {
				b := byte(i*13 + 5)
				m.Store(d.src+i, 1, uint64(b))
				want[i] = b
			}
			// A tagged granule to carry along (StoreCap zeroes its bytes).
			m.StoreCap(d.src, make([]byte, granule), true)
			for i := 0; i < granule; i++ {
				want[i] = 0
			}
			m.CopyTagged(d.dst, d.src, n)
			got := make([]byte, n)
			m.ReadBytes(d.dst, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("overlap copy corrupted byte %#x: got %#x, want %#x", i, got[i], want[i])
				}
			}
			if !m.Tag(d.dst) {
				t.Fatal("tag lost across overlapping CopyTagged")
			}
		})
	}
}

// TestLazyZeroBumpsGenerations: zeroing untouched memory allocates nothing
// but must still bump the page write generations — the decode cache's
// invalidation contract does not care whether bytes physically changed.
func TestLazyZeroBumpsGenerations(t *testing.T) {
	m := New(1 << 20)
	g0 := m.PageGen(0x2000)
	m.Zero(0x2000, PageSize)
	if m.PageGen(0x2000) == g0 {
		t.Fatal("Zero of untouched page did not bump its generation")
	}
	if v := m.Load(0x2000, 8); v != 0 {
		t.Fatalf("zeroed page reads %#x", v)
	}
}

// TestLazyPartialTailChunk: a memory size that is not a chunk multiple
// must still serve its tail bytes.
func TestLazyPartialTailChunk(t *testing.T) {
	size := uint64(chunkSize + chunkSize/2)
	m := New(size)
	m.Store(size-8, 8, 0x1122334455667788)
	if v := m.Load(size-8, 8); v != 0x1122334455667788 {
		t.Fatalf("tail chunk: got %#x", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	m.Load(size-4, 8)
}

// TestGenerationsStartAtZero: a page's generation reads 0 until the page
// is first written or zeroed, and reading it allocates no chunk header.
func TestGenerationsStartAtZero(t *testing.T) {
	m := New(4 * chunkSize)
	for _, pa := range []uint64{0, PageSize, chunkSize + 3*PageSize, 4*chunkSize - 1} {
		if g := m.PageGen(pa); g != 0 {
			t.Fatalf("PageGen(%#x) = %d before any write", pa, g)
		}
	}
	for ci, c := range m.chunks {
		if c != nil {
			t.Fatalf("reading generations allocated chunk %d's header", ci)
		}
	}
	m.Store(chunkSize+3*PageSize, 8, 1)
	if g := m.PageGen(chunkSize + 3*PageSize); g != 1 {
		t.Fatalf("PageGen after one store = %d, want 1", g)
	}
	if g := m.PageGen(chunkSize + 4*PageSize); g != 0 {
		t.Fatalf("a store bumped its neighbour's generation to %d", g)
	}
}

// TestPageGenPtrSeesFirstWrite: the generation pointer handed out for a
// page that was never written (the threaded engine probes the executing
// page's through it) sees a later store to that page, so code patched
// into a fresh page is still caught.
func TestPageGenPtrSeesFirstWrite(t *testing.T) {
	m := New(2 * chunkSize)
	pa := uint64(chunkSize + 2*PageSize)
	gen := m.PageGenPtr(pa)
	if *gen != 0 {
		t.Fatalf("fresh page generation %d", *gen)
	}
	m.Store(pa+8, 4, 0xdeadbeef)
	if *gen != 1 || m.PageGen(pa) != 1 {
		t.Fatalf("store not seen through the pointer: *gen = %d, PageGen = %d", *gen, m.PageGen(pa))
	}
	if _, _, g := m.Page(pa); g != gen {
		t.Fatal("Page hands out a different generation counter than PageGenPtr")
	}
}

// TestNewAllocationIsTheChunkTable: booting a 128 MiB machine allocates
// its chunk header table (8 bytes per 64 KiB chunk) and nothing per page.
func TestNewAllocationIsTheChunkTable(t *testing.T) {
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		New(128 << 20)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 32<<10 {
		t.Fatalf("New(128 MiB) allocates %d bytes, want at most 32 KiB", got)
	}
}
