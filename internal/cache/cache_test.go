package cache

import "testing"

// acc issues one access to the line holding pa.
func acc(c *Cache, pa uint64, write bool) (hit, writeback bool) {
	return c.access(c.lineAddr(pa), write)
}

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{Name: "t", Size: 1 << 10, LineSize: 64, Ways: 2, HitLatency: 1})
	if hit, _ := acc(c, 0x100, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _ := acc(c, 0x100, false); !hit {
		t.Fatal("warm access missed")
	}
	if hit, _ := acc(c, 0x13F, false); !hit {
		t.Fatal("same line access missed")
	}
	if hit, _ := acc(c, 0x140, false); hit {
		t.Fatal("next line hit while cold")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 2 sets -> 256B cache.
	c := New(Config{Name: "t", Size: 256, LineSize: 64, Ways: 2, HitLatency: 1})
	// Three lines mapping to set 0 (stride 128).
	acc(c, 0x000, false)
	acc(c, 0x080, false)
	acc(c, 0x000, false) // touch A so B is LRU
	acc(c, 0x100, false) // evicts B
	if hit, _ := acc(c, 0x000, false); !hit {
		t.Fatal("A should still be resident")
	}
	if hit, _ := acc(c, 0x080, false); hit {
		t.Fatal("B should have been evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(Config{Name: "t", Size: 128, LineSize: 64, Ways: 1, HitLatency: 1})
	acc(c, 0x000, true)                     // dirty
	if _, wb := acc(c, 0x080, false); !wb { // conflict evicts dirty line
		t.Fatal("dirty eviction did not write back")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := DefaultHierarchy()
	// Cold: L1 miss + L2 miss -> 1 + 9 + 50.
	if got := h.Data(0x1000, 8, false); got != 60 {
		t.Fatalf("cold access cost %d, want 60", got)
	}
	// Warm: L1 hit -> 1.
	if got := h.Data(0x1000, 8, false); got != 1 {
		t.Fatalf("warm access cost %d, want 1", got)
	}
	if h.DRAMAccesses() != 1 {
		t.Fatalf("dram accesses = %d", h.DRAMAccesses())
	}
}

func TestStraddlingAccessTouchesTwoLines(t *testing.T) {
	h := DefaultHierarchy()
	cost := h.Data(0x103C, 8, false) // crosses the 0x1040 line boundary
	if cost != 120 {
		t.Fatalf("straddling cold access cost %d, want 120", cost)
	}
}

func TestL2SharedBetweenIAndD(t *testing.T) {
	h := DefaultHierarchy()
	h.Fetch(0x2000, 4)                              // fills L2
	if got := h.Data(0x2000, 4, false); got != 10 { // L1D miss, L2 hit
		t.Fatalf("L2 shared access cost %d, want 10", got)
	}
}

func TestFlushAndReset(t *testing.T) {
	h := DefaultHierarchy()
	h.Data(0x1000, 8, false)
	h.Flush()
	h.ResetStats()
	if got := h.Data(0x1000, 8, false); got != 60 {
		t.Fatalf("post-flush access cost %d, want 60", got)
	}
	if h.L1D.Stats().Accesses != 1 {
		t.Fatalf("stats not reset")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "size not a multiple of a set", Size: 100, LineSize: 64, Ways: 4},
		{Name: "line size not a power of two", Size: 48 * 4 * 4, LineSize: 48, Ways: 4},
		{Name: "set count not a power of two", Size: 3 * 64 * 4, LineSize: 64, Ways: 4},
		{Name: "line too small for the packed way", Size: 2 * 4 * 4, LineSize: 2, Ways: 4},
		{Name: "no ways", Size: 1 << 10, LineSize: 64, Ways: 0},
		{Name: "ways not a power of two", Size: 3 * 64 * 4, LineSize: 64, Ways: 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New(%+v) did not panic", cfg.Name, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestNewAllocationsIndependentOfSets: a level's ways are one flat array,
// so building it costs two allocations whatever its set count (the cache
// struct and the ways).
func TestNewAllocationsIndependentOfSets(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "L1", Size: 32 << 10, LineSize: 64, Ways: 4, HitLatency: 1},
		{Name: "L2", Size: 256 << 10, LineSize: 64, Ways: 8, HitLatency: 9},
	} {
		if n := testing.AllocsPerRun(10, func() { New(cfg) }); n > 2 {
			t.Fatalf("%s: %v allocations per New, want at most 2", cfg.Name, n)
		}
	}
}
