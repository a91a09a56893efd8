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
	probe
	cfg      Config
	lineMask uint64
	stats    Stats
}

// Probe is the part of a cache level that a way-0 hit test reads: the
// ways and the geometry that addresses them. A caller that tests many
// accesses keeps a copy (Cache.Probe), so each test reads the geometry
// from the copy rather than through the cache. The ways slice is the
// cache's own (Flush clears it in place and nothing reallocates it), so a
// copy always sees, and marks, the live lines.
type Probe struct {
	ways      []uint64 // nsets*Ways words, set s at [s<<wayShift, (s+1)<<wayShift)
	lineShift uint
	wayShift  uint // log2(Ways)
	setMask   uint64
	lineSize  uint64
}

// New builds a cache from cfg. The line size, the associativity and the
// set count must be powers of two (as in all modelled hardware), so
// addressing is shift and mask, and a line must be at least 4 bytes so
// the packed way word keeps every line address bit.
func New(cfg Config) *Cache {
	pow2 := func(n uint64) bool { return n != 0 && n&(n-1) == 0 }
	if cfg.LineSize < 4 || !pow2(cfg.LineSize) || !pow2(cfg.Ways) ||
		cfg.Size%(cfg.LineSize*cfg.Ways) != 0 || !pow2(cfg.Size/(cfg.LineSize*cfg.Ways)) {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
	c := &Cache{cfg: cfg, lineMask: cfg.LineSize - 1}
	c.probe = Probe{ways: make([]uint64, nsets*cfg.Ways), setMask: nsets - 1, lineSize: cfg.LineSize}
	for s := cfg.LineSize; s > 1; s >>= 1 {
		c.lineShift++
	}
	for w := cfg.Ways; w > 1; w >>= 1 {
		c.wayShift++
	}
	return c
}

// probe names the embedded Probe, keeping the field unexported.
type probe = Probe

// Probe returns a copy of the cache's probe view, sharing its ways.
func (c *Cache) Probe() Probe { return c.probe }

// LineSize returns the line size in bytes, a power of two.
func (p *Probe) LineSize() uint64 { return p.lineSize }

// lineAddr maps a physical address to its line index.
func (p *Probe) lineAddr(pa uint64) uint64 { return pa >> (p.lineShift & 63) }

// mru reports whether line la is its set's most recently used line, and
// returns that way's index in the ways. Small enough to inline into every
// entry point's fast path.
func (p *Probe) mru(la uint64) (i uint64, ok bool) {
	i = (la & p.setMask) << (p.wayShift & 63) // the masks spare the shifts a range check
	return i, p.ways[i]|dirtyBit == la<<2|validBit|dirtyBit
}

// Hit reports whether an access of size bytes at pa hits its set's most
// recently used way, and marks that way dirty for a write hit. pa must be
// aligned to size, a power of two: such an access stays in one line if it
// is no longer than a line. It does not count the access: a way-0 hit
// changes nothing else, so the caller counts its hits and applies them
// with Cache.Hits before anything reads the statistics. On a miss it
// changes nothing, and the caller issues the access through
// Hierarchy.Data.
func (p *Probe) Hit(pa, size uint64, write bool) bool {
	i, ok := p.mru(p.lineAddr(pa))
	if !ok || size > p.lineSize {
		return false
	}
	if write {
		p.ways[i] |= dirtyBit
	}
	return true
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
	lo := (la & c.setMask) << c.wayShift
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

// Hits applies n accesses that each hit its set's most recently used way
// when it was made, and returns their latency, n times the hit latency.
// Such a hit changes only the access count, and the dirty bit of a write,
// which the caller has already set (Probe.Hit); the count commutes with
// every other access, so applying n of them at once, at any later point
// before the statistics are read, leaves the cache bit-identical to
// issuing them one by one. The caller guarantees the precondition; no
// line is probed here. The CPU's threaded engine applies two batches
// this way when a run ends:
//
//   - its same-line instruction fetches: each fetch after the first from
//     an L1I line, with no L1I access in between, hits the line that
//     first fetch left most recent;
//   - its data accesses that Probe.Hit accepted.
func (c *Cache) Hits(n uint64) uint64 {
	c.stats.Accesses += n
	return n * c.cfg.HitLatency
}

// Data models a data access of size bytes at pa.
func (h *Hierarchy) Data(pa, size uint64, write bool) uint64 {
	l1 := h.L1D
	if pa&l1.lineMask+size <= l1.cfg.LineSize {
		if i, ok := l1.mru(l1.lineAddr(pa)); ok {
			if write {
				l1.ways[i] |= dirtyBit
			}
			l1.stats.Accesses++
			return l1.cfg.HitLatency
		}
	}
	return h.span(l1, pa, size, write)
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
