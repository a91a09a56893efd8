package mem

import (
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1<<16, 16)
	for _, n := range []uint64{1, 2, 4, 8} {
		v := uint64(0x1122334455667788) & ((1 << (8 * n)) - 1)
		if n == 8 {
			v = 0x1122334455667788
		}
		m.Store(0x100, n, v)
		if got := m.Load(0x100, n); got != v {
			t.Fatalf("size %d: got %x want %x", n, got, v)
		}
	}
}

func TestStoreClearsTag(t *testing.T) {
	m := New(1<<16, 16)
	capBytes := make([]byte, 16)
	m.StoreCap(0x40, capBytes, true)
	if !m.Tag(0x40) {
		t.Fatal("tag not set by StoreCap")
	}
	// Any data store into the granule destroys the capability.
	m.Store(0x48, 1, 0xFF)
	if m.Tag(0x40) {
		t.Fatal("data store did not clear tag")
	}
}

func TestStoreAdjacentKeepsTag(t *testing.T) {
	m := New(1<<16, 16)
	m.StoreCap(0x40, make([]byte, 16), true)
	m.Store(0x50, 8, 1) // next granule
	m.Store(0x38, 8, 1) // previous granule
	if !m.Tag(0x40) {
		t.Fatal("adjacent store cleared tag")
	}
}

func TestWriteBytesClearsOverlappedTags(t *testing.T) {
	m := New(1<<16, 16)
	m.StoreCap(0x40, make([]byte, 16), true)
	m.StoreCap(0x50, make([]byte, 16), true)
	m.WriteBytes(0x4F, []byte{1, 2}) // straddles both granules
	if m.Tag(0x40) || m.Tag(0x50) {
		t.Fatal("straddling write left a tag")
	}
}

func TestCapRoundTrip(t *testing.T) {
	m := New(1<<16, 16)
	in := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	m.StoreCap(0x80, in, true)
	out := make([]byte, 16)
	tag := m.LoadCap(0x80, out)
	if !tag {
		t.Fatal("tag lost")
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("byte %d: got %d want %d", i, out[i], in[i])
		}
	}
}

func TestCopyTaggedPreservesTags(t *testing.T) {
	m := New(1<<16, 16)
	m.StoreCap(0x100, []byte{0xAA, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, true)
	m.Store(0x110, 8, 0xDEAD) // untagged data granule
	m.CopyTagged(0x200, 0x100, 32)
	if !m.Tag(0x200) {
		t.Fatal("tag not copied")
	}
	if m.Tag(0x210) {
		t.Fatal("spurious tag copied")
	}
	if m.Load(0x200, 1) != 0xAA || m.Load(0x210, 8) != 0xDEAD {
		t.Fatal("data not copied")
	}
}

func TestExtractTags(t *testing.T) {
	m := New(1<<16, 16)
	m.StoreCap(0x100, make([]byte, 16), true)
	m.StoreCap(0x120, make([]byte, 16), true)
	tags := m.ExtractTags(0x100, 64)
	want := []bool{true, false, true, false}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("tags[%d] = %v want %v", i, tags[i], want[i])
		}
	}
}

func TestZero(t *testing.T) {
	m := New(1<<16, 16)
	m.StoreCap(0x100, []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, true)
	m.Zero(0x100, 32)
	if m.Tag(0x100) {
		t.Fatal("Zero left tag")
	}
	if m.Load(0x100, 8) != 0 {
		t.Fatal("Zero left data")
	}
}

func TestLoadStoreQuick(t *testing.T) {
	m := New(1<<20, 16)
	f := func(addr uint32, v uint64) bool {
		pa := uint64(addr) % (1<<20 - 8)
		m.Store(pa, 8, v)
		return m.Load(pa, 8) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(1<<12, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Load(1<<12, 8)
}

// TestPagesTileChunks: the chunk is a whole number of pages (the
// compile-time assertion beside chunkShift), so the pages on either side
// of a chunk boundary are each served whole from their own chunk, and a
// write through one page's backing never reaches the other.
func TestPagesTileChunks(t *testing.T) {
	m := New(2*chunkSize, 16)
	last, first := uint64(chunkSize-PageSize), uint64(chunkSize)
	d, tags, gen := m.WritablePage(last)
	if len(d) != PageSize || len(tags) != PageSize/16 || gen == nil {
		t.Fatalf("last page of chunk 0: %d bytes, %d tags", len(d), len(tags))
	}
	d[PageSize-1] = 0xAA
	if got := m.Load(first-1, 1); got != 0xAA {
		t.Fatalf("write through the page backing: Load = %#x", got)
	}
	if d, _ := m.ReadablePage(first); d != nil {
		t.Fatal("chunk 1 materialized by a write to chunk 0")
	}
	m.Store(first, 1, 0xBB)
	d, _ = m.ReadablePage(first)
	if len(d) != PageSize || d[0] != 0xBB {
		t.Fatalf("first page of chunk 1: %d bytes, d[0] = %#x", len(d), d[0])
	}
	if got := m.Load(first-1, 1); got != 0xAA {
		t.Fatalf("store to chunk 1 reached chunk 0: %#x", got)
	}
}
