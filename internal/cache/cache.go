// Package cache models the memory hierarchy of the paper's FPGA platform:
// split 32-KiB set-associative L1 instruction and data caches and a shared
// 256-KiB L2, in front of a fixed-latency DRAM ("Our FPGA system has
// 32-KiB L1 caches and a shared 256-KiB L2 cache, all set-associative,
// similar to widely shipped CPUs such as many ARM Cortex A53
// implementations, although without pre-fetching").
//
// Tags travel with cache lines (the tag controller is folded into the line
// fill), so capability-width accesses cost the same as data accesses of
// the same size; the purecap overhead emerges from the doubled pointer
// footprint, exactly as in the paper.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name       string
	Size       uint64 // total bytes
	LineSize   uint64 // bytes per line
	Ways       uint64 // associativity
	HitLatency uint64 // cycles charged on hit at this level
}

// Stats counts accesses at one level.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// Hits returns the number of hits.
func (s Stats) Hits() uint64 { return s.Accesses - s.Misses }

// A way holds one line as a packed word, lineAddr<<2 | validBit | dirtyBit;
// 0 is an invalid way.
const (
	dirtyBit = 1
	validBit = 2
)

// Cache is one set-associative, write-back, write-allocate cache level
// with LRU replacement.
//
// Each set is kept in recency order, most recently used way first, so
// LRU needs no timestamps: a hit on way k rotates ways 0..k, and a miss
// shifts the set down one way and fills way 0, evicting the last way.
// Invalid ways therefore always sit at the tail, and the last way is an
// invalid one if the set has any, otherwise its least recently used line
// — exactly the victim a timestamp LRU picks. Most accesses hit way 0,
// which needs one compare and changes nothing but the access counter (and
// the dirty bit, for a write).
type Cache struct {
	cfg       Config
	ways      []uint64 // nsets*Ways words, set s at [s*Ways, (s+1)*Ways)
	lineShift uint
	lineMask  uint64
	setMask   uint64
	stats     Stats
}

// New builds a cache from cfg. The line size and the set count must be
// powers of two (as in all modelled hardware), so addressing is shift and
// mask, and a line must be at least 4 bytes so the packed way word keeps
// every line address bit.
func New(cfg Config) *Cache {
	pow2 := func(n uint64) bool { return n != 0 && n&(n-1) == 0 }
	if cfg.LineSize < 4 || !pow2(cfg.LineSize) || cfg.Ways == 0 ||
		cfg.Size%(cfg.LineSize*cfg.Ways) != 0 || !pow2(cfg.Size/(cfg.LineSize*cfg.Ways)) {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
	c := &Cache{cfg: cfg, ways: make([]uint64, nsets*cfg.Ways),
		lineMask: cfg.LineSize - 1, setMask: nsets - 1}
	for s := cfg.LineSize; s > 1; s >>= 1 {
		c.lineShift++
	}
	return c
}

// lineAddr maps a physical address to its line index.
func (c *Cache) lineAddr(pa uint64) uint64 { return pa >> c.lineShift }

// mru reports whether line la is its set's most recently used line, and
// returns that way's index in c.ways. Small enough to inline into every
// entry point's fast path.
func (c *Cache) mru(la uint64) (i uint64, ok bool) {
	i = (la & c.setMask) * c.cfg.Ways
	return i, c.ways[i]|dirtyBit == la<<2|validBit|dirtyBit
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics (the contents stay warm).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// access looks up line la, making it its set's most recently used line;
// on a miss it fills the line, evicting the set's last way. Returns hit
// and whether a dirty line was written back.
func (c *Cache) access(la uint64, write bool) (hit, writeback bool) {
	c.stats.Accesses++
	lo := (la & c.setMask) * c.cfg.Ways
	set := c.ways[lo : lo+c.cfg.Ways]
	want := la<<2 | validBit
	if write {
		want |= dirtyBit
	}
	for k, w := range set {
		if w == 0 {
			break // invalid ways sit at the tail
		}
		if w|dirtyBit == want|dirtyBit {
			copy(set[1:k+1], set[:k])
			set[0] = w | want
			return true, false
		}
	}
	c.stats.Misses++
	if set[len(set)-1]&dirtyBit != 0 {
		writeback = true
		c.stats.Writebacks++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = want
	return false, writeback
}

// Flush invalidates all lines (e.g. between benchmark repetitions).
func (c *Cache) Flush() { clear(c.ways) }

// Hierarchy is the full memory system: split L1s over a shared L2 over
// DRAM. Access methods return the cycle cost of the access.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	DRAMLatency  uint64
	dramAccesses uint64
}

// DefaultHierarchy reproduces the paper's FPGA geometry: 32-KiB 4-way L1s,
// 256-KiB 8-way shared L2, 64-byte lines.
func DefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		L1I:         New(Config{Name: "L1I", Size: 32 << 10, LineSize: 64, Ways: 4, HitLatency: 1}),
		L1D:         New(Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 4, HitLatency: 1}),
		L2:          New(Config{Name: "L2", Size: 256 << 10, LineSize: 64, Ways: 8, HitLatency: 9}),
		DRAMLatency: 50,
	}
}

// DRAMAccesses returns the number of line fills that reached DRAM.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dramAccesses }

// missWalk charges the L2/DRAM walk completing an L1 line fill at pa;
// l1wb reports whether the L1 eviction wrote back a dirty line. Returns
// the cycles beyond the L1 hit latency.
func (h *Hierarchy) missWalk(pa uint64, l1wb bool) uint64 {
	cycles := h.L2.cfg.HitLatency
	hit2, wb2 := h.L2.access(h.L2.lineAddr(pa), false)
	if !hit2 {
		cycles += h.DRAMLatency
		h.dramAccesses++
	}
	// Dirty evictions drain through a write buffer; charge a small constant.
	if l1wb || wb2 {
		cycles += 2
	}
	return cycles
}

// span walks an access of size bytes at pa through l1 -> L2 -> DRAM one
// line at a time: the path for every access that does not hit way 0.
func (h *Hierarchy) span(l1 *Cache, pa, size uint64, write bool) uint64 {
	last := l1.lineAddr(pa + max(size, 1) - 1)
	var cycles uint64
	for la := l1.lineAddr(pa); la <= last; la++ {
		cycles += l1.cfg.HitLatency
		if hit, wb := l1.access(la, write); !hit {
			cycles += h.missWalk(la<<l1.lineShift, wb)
		}
	}
	return cycles
}

// Fetch models an instruction fetch of size bytes at pa.
func (h *Hierarchy) Fetch(pa, size uint64) uint64 {
	l1 := h.L1I
	if pa&l1.lineMask+size <= l1.cfg.LineSize {
		if _, ok := l1.mru(l1.lineAddr(pa)); ok {
			l1.stats.Accesses++
			return l1.cfg.HitLatency
		}
	}
	return h.span(l1, pa, size, false)
}

// FetchLine returns the L1I line index containing pa, for callers that
// detect same-line instruction fetches and batch them with FetchRepeats.
func (h *Hierarchy) FetchLine(pa uint64) uint64 { return h.L1I.lineAddr(pa) }

// FetchRepeats applies n instruction fetches that all hit the L1I line
// lineAddr, which the caller fetched last: it has issued no other L1I
// access since, so the line is still its set's most recently used. Each
// of the n fetches would be a way-0 hit, whose only effect is the access
// count, so applying them at once leaves state bit-identical to n
// individual Fetch calls. Returns n times the L1I hit latency.
func (h *Hierarchy) FetchRepeats(lineAddr, n uint64) uint64 {
	c := h.L1I
	if _, ok := c.mru(lineAddr); !ok {
		panic("cache: FetchRepeats on a line that is not its set's most recent")
	}
	c.stats.Accesses += n
	return n * c.cfg.HitLatency
}

// DataHit attempts a data access as a way-0 hit alone: a non-spanning
// access to its set's most recently used line is counted and returns its
// hit latency with ok true; anything else returns ok false having changed
// nothing, and the caller issues the access through Data. Split out of
// Data because this probe is small enough to inline into the CPU's scalar
// access path, where the call overhead is measurable per retired memory
// instruction.
func (c *Cache) DataHit(pa, size uint64, write bool) (cycles uint64, ok bool) {
	if pa&c.lineMask+size > c.cfg.LineSize {
		return 0, false
	}
	i, ok := c.mru(c.lineAddr(pa))
	if !ok {
		return 0, false
	}
	if write {
		c.ways[i] |= dirtyBit
	}
	c.stats.Accesses++
	return c.cfg.HitLatency, true
}

// Data models a data access of size bytes at pa.
func (h *Hierarchy) Data(pa, size uint64, write bool) uint64 {
	if lat, ok := h.L1D.DataHit(pa, size, write); ok {
		return lat
	}
	return h.span(h.L1D, pa, size, write)
}

// Flush invalidates the whole hierarchy.
func (h *Hierarchy) Flush() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
}

// ResetStats zeroes statistics at every level.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.dramAccesses = 0
}
