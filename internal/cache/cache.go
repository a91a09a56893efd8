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

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64 // larger = more recently used
}

// Cache is one set-associative, write-back, write-allocate cache level
// with LRU replacement.
type Cache struct {
	cfg   Config
	sets  [][]line
	nsets uint64
	clock uint64
	stats Stats

	// Last-hit latches: consecutive accesses to the same line (the common
	// case for instruction fetch) skip the set scan, and a second entry
	// catches the two-line ping-pong that call/return pairs and short
	// loops straddling a line boundary produce (each access alternates
	// away from the single-entry latch and back). The latches hold
	// pointers into sets, so an eviction that retags the line is detected
	// by the tag compare; they never change hit/miss outcomes, only the
	// cost of computing them.
	lastAddr  uint64
	last      *line
	lastAddr2 uint64
	last2     *line

	// Pending same-line hit repeats, deferred onto the front latch: a hit
	// on last only increments pendN (recording whether any was a write)
	// instead of ticking the clock, the access counter, and the LRU
	// stamp. flushPend applies all of them at once before anything can
	// observe cache state — any access to another line, a set scan, an
	// eviction, a stats read, or a flush — leaving every observable
	// bit-identical to immediate application, because the intermediate
	// clock values and LRU stamps of a run of same-line hits are never
	// read (a miss, the only LRU reader, flushes first). This generalizes
	// the instruction-fetch batching contract (FetchRepeats) to every
	// level and every access kind.
	pendN     uint64
	pendDirty bool

	// When the geometry is a power of two (as all modelled hardware is),
	// pow2 selects shift/mask addressing in place of division and modulo.
	pow2      bool
	lineShift uint
	lineMask  uint64
	setMask   uint64
}

// New builds a cache from cfg; Size must be divisible by LineSize*Ways.
func New(cfg Config) *Cache {
	nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
	if nsets == 0 || cfg.Size%(cfg.LineSize*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	// One backing array per level, sliced per set with the capacity capped
	// so no set can grow into its neighbour: every machine clone builds
	// three levels, and one allocation per level beats one per set.
	lines := make([]line, nsets*cfg.Ways)
	sets := make([][]line, nsets)
	for i := range sets {
		lo := uint64(i) * cfg.Ways
		sets[i] = lines[lo : lo+cfg.Ways : lo+cfg.Ways]
	}
	c := &Cache{cfg: cfg, sets: sets, nsets: nsets}
	if cfg.LineSize&(cfg.LineSize-1) == 0 && nsets&(nsets-1) == 0 {
		c.pow2 = true
		for s := cfg.LineSize; s > 1; s >>= 1 {
			c.lineShift++
		}
		c.lineMask = cfg.LineSize - 1
		c.setMask = nsets - 1
	}
	return c
}

// lineAddr maps a physical address to its line index.
func (c *Cache) lineAddr(pa uint64) uint64 {
	if c.pow2 {
		return pa >> c.lineShift
	}
	return pa / c.cfg.LineSize
}

// lineOff returns pa's offset within its line. Like lineAddr, the
// power-of-two geometry (all modelled hardware) takes the mask path: a
// variable-divisor modulo is a hardware divide, and this runs on every
// fetch and data access.
func (c *Cache) lineOff(pa uint64) uint64 {
	if c.pow2 {
		return pa & c.lineMask
	}
	return pa % c.cfg.LineSize
}

// set returns the set that lineAddr maps to.
func (c *Cache) set(lineAddr uint64) []line {
	if c.pow2 {
		return c.sets[lineAddr&c.setMask]
	}
	return c.sets[lineAddr%c.nsets]
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access statistics.
func (c *Cache) Stats() Stats {
	c.flushPend()
	return c.stats
}

// ResetStats zeroes the statistics (the contents stay warm). Deferred
// accesses happened before the reset, so they are applied first.
func (c *Cache) ResetStats() {
	c.flushPend()
	c.stats = Stats{}
}

// flushPend applies the deferred same-line hits accumulated on the front
// latch (see the pendN field comment). Every path that can observe cache
// state calls it first.
func (c *Cache) flushPend() {
	if c.pendN != 0 {
		c.clock += c.pendN
		c.stats.Accesses += c.pendN
		c.last.lru = c.clock
		if c.pendDirty {
			c.last.dirty = true
		}
		c.pendN, c.pendDirty = 0, false
	}
}

// access looks up the line containing pa; on miss it allocates, evicting
// LRU. Returns hit and whether a dirty line was written back.
func (c *Cache) access(pa uint64, write bool) (hit, writeback bool) {
	lineAddr := c.lineAddr(pa)
	if l := c.last; l != nil && c.lastAddr == lineAddr && l.valid && l.tag == lineAddr {
		c.pendN++
		c.pendDirty = c.pendDirty || write
		return true, false
	}
	c.flushPend()
	c.clock++
	c.stats.Accesses++
	if l := c.last2; l != nil && c.lastAddr2 == lineAddr && l.valid && l.tag == lineAddr {
		l.lru = c.clock
		if write {
			l.dirty = true
		}
		// Promote to the front latch so a following same-line access hits
		// on the first compare; the displaced line stays in the second.
		c.lastAddr2, c.last2 = c.lastAddr, c.last
		c.lastAddr, c.last = lineAddr, l
		return true, false
	}
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].lru = c.clock
			if write {
				set[i].dirty = true
			}
			c.lastAddr2, c.last2 = c.lastAddr, c.last
			c.lastAddr, c.last = lineAddr, &set[i]
			return true, false
		}
	}
	return false, c.fillLine(set, lineAddr, write)
}

// fillLine allocates lineAddr in set after a miss, evicting LRU, counting
// the miss, and updating the last-hit latch. Returns whether a dirty
// victim was written back.
func (c *Cache) fillLine(set []line, lineAddr uint64, write bool) (writeback bool) {
	c.flushPend() // eviction reads LRU stamps; defensive on pre-flushed paths
	c.stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		writeback = true
		c.stats.Writebacks++
	}
	set[victim] = line{valid: true, dirty: write, tag: lineAddr, lru: c.clock}
	c.lastAddr2, c.last2 = c.lastAddr, c.last
	c.lastAddr, c.last = lineAddr, &set[victim]
	return writeback
}

// Flush invalidates all lines (e.g. between benchmark repetitions).
func (c *Cache) Flush() {
	c.flushPend() // the deferred accesses happened before the flush
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
	c.last, c.last2 = nil, nil
}

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

func (h *Hierarchy) lineSpan(l1 *Cache, pa, size uint64) (first, last uint64) {
	if size == 0 {
		size = 1
	}
	return l1.lineAddr(pa), l1.lineAddr(pa + size - 1)
}

// accessLevel walks one line access through L1 -> L2 -> DRAM.
func (h *Hierarchy) accessLevel(l1 *Cache, lineAddr uint64, write bool) uint64 {
	pa := lineAddr * l1.cfg.LineSize
	cycles := l1.cfg.HitLatency
	hit, wb := l1.access(pa, write)
	if hit {
		return cycles
	}
	return cycles + h.missWalk(pa, wb)
}

// missWalk charges the L2/DRAM walk completing an L1 line fill at pa;
// l1wb reports whether the L1 eviction wrote back a dirty line. Returns
// the cycles beyond the L1 hit latency.
func (h *Hierarchy) missWalk(pa uint64, l1wb bool) uint64 {
	cycles := h.L2.cfg.HitLatency
	hit2, wb2 := h.L2.access(pa, false)
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

// Fetch models an instruction fetch of size bytes at pa.
func (h *Hierarchy) Fetch(pa, size uint64) uint64 {
	// Aligned instruction fetches never span lines; skip the span loop.
	if l1 := h.L1I; l1.lineOff(pa)+size <= l1.cfg.LineSize {
		return h.accessLevel(l1, l1.lineAddr(pa), false)
	}
	first, last := h.lineSpan(h.L1I, pa, size)
	var cycles uint64
	for l := first; l <= last; l++ {
		cycles += h.accessLevel(h.L1I, l, false)
	}
	return cycles
}

// FetchLine returns the L1I line index containing pa, for callers that
// detect same-line instruction fetches and batch them with FetchRepeats.
func (h *Hierarchy) FetchLine(pa uint64) uint64 { return h.L1I.lineAddr(pa) }

// FetchRepeats applies n instruction fetches that are all guaranteed to
// hit the resident L1I line lineAddr: the caller has already fetched that
// line (filling it if needed) and has issued no other L1I access since,
// and nothing but instruction fetches touches L1I state, so each access
// would be a hit whose only effects are the clock tick, the access count,
// and the LRU stamp. Applying all n at once leaves state bit-identical to
// n individual Fetch calls, because the intermediate LRU stamps are never
// observed — no miss (the only reader of LRU ordering) can occur in
// between. Returns the cycle charge, n times the L1I hit latency.
func (h *Hierarchy) FetchRepeats(lineAddr, n uint64) uint64 {
	c := h.L1I
	// The caller guarantees lineAddr is the most recently accessed,
	// resident line, so these n hits simply join the deferred batch on
	// the front latch (flushPend applies them with the same effects the
	// eager implementation had).
	if l := c.last; l != nil && c.lastAddr == lineAddr && l.valid && l.tag == lineAddr {
		c.pendN += n
		return n * c.cfg.HitLatency
	}
	c.flushPend()
	set := c.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			c.lastAddr2, c.last2 = c.lastAddr, c.last
			c.lastAddr, c.last = lineAddr, &set[i]
			c.pendN += n
			return n * c.cfg.HitLatency
		}
	}
	panic("cache: FetchRepeats on a non-resident line")
}

// DataHit attempts a data access as a front-latch hit alone: a
// non-spanning access (power-of-two geometry) to the latched line joins
// the deferred batch and returns its hit latency with ok true; anything
// else returns ok false having changed nothing, and the caller issues
// the access through Data. Split out of Data because this probe is small
// enough to inline into the CPU's scalar access path, where the call
// overhead is measurable per retired memory instruction.
func (c *Cache) DataHit(pa, size uint64, write bool) (cycles uint64, ok bool) {
	if !c.pow2 || (pa&c.lineMask)+size > c.cfg.LineSize {
		return 0, false
	}
	la := pa >> c.lineShift
	l := c.last
	if l == nil || c.lastAddr != la || !l.valid || l.tag != la {
		return 0, false
	}
	c.pendN++
	c.pendDirty = c.pendDirty || write
	return c.cfg.HitLatency, true
}

// Data models a data access of size bytes at pa.
func (h *Hierarchy) Data(pa, size uint64, write bool) uint64 {
	l1 := h.L1D
	if l1.lineOff(pa)+size <= l1.cfg.LineSize {
		// Non-spanning access with the last-hit latch checked inline: the
		// hit joins the deferred batch exactly as in access().
		la := l1.lineAddr(pa)
		if l := l1.last; l != nil && l1.lastAddr == la && l.valid && l.tag == la {
			l1.pendN++
			l1.pendDirty = l1.pendDirty || write
			return l1.cfg.HitLatency
		}
		return h.accessLevel(l1, la, write)
	}
	first, last := h.lineSpan(h.L1D, pa, size)
	var cycles uint64
	for l := first; l <= last; l++ {
		cycles += h.accessLevel(h.L1D, l, write)
	}
	return cycles
}

// DataRun models a multi-line bulk data access of size bytes at pa as one
// batched line walk. Per-line outcomes — hit/miss, LRU stamps, eviction
// choices, writebacks, L2 traffic — are identical to issuing Data over the
// same span, because each step performs the same state updates in the same
// order; only the per-line dispatch overhead (call, latch probe, span
// re-computation) is hoisted out of the loop. Bulk movers (the uaccess
// page-run walker) use this; single accesses keep using Data.
func (h *Hierarchy) DataRun(pa, size uint64, write bool) uint64 {
	l1 := h.L1D
	if size == 0 || l1.lineOff(pa)+size <= l1.cfg.LineSize {
		return h.Data(pa, size, write)
	}
	first, last := h.lineSpan(l1, pa, size)
	l1.flushPend() // the walk below reads and updates set state directly
	cycles := (last - first + 1) * l1.cfg.HitLatency
	l1.stats.Accesses += last - first + 1
	for la := first; la <= last; la++ {
		l1.clock++
		set := l1.set(la)
		hit := false
		for i := range set {
			if set[i].valid && set[i].tag == la {
				set[i].lru = l1.clock
				if write {
					set[i].dirty = true
				}
				l1.lastAddr, l1.last = la, &set[i]
				hit = true
				break
			}
		}
		if !hit {
			wb := l1.fillLine(set, la, write)
			cycles += h.missWalk(la*l1.cfg.LineSize, wb)
		}
	}
	return cycles
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
