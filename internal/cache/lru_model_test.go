package cache

import (
	"fmt"
	"testing"
)

// The LRU oracle: a timestamp-LRU hierarchy with the same geometry and
// latencies as Hierarchy, written for obviousness rather than speed. Each
// access ticks a per-level clock and stamps the line it touches; a miss
// fills the first invalid way, or else evicts the way with the oldest
// stamp. FuzzHierarchyMatchesLRUModel checks that the recency-ordered
// sets of Cache produce the same cycles, Stats and DRAM count.

type modelLine struct {
	valid, dirty bool
	tag, lru     uint64
}

type modelCache struct {
	cfg   Config
	sets  [][]modelLine
	clock uint64
	stats Stats
}

func newModelCache(cfg Config) *modelCache {
	nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
	m := &modelCache{cfg: cfg, sets: make([][]modelLine, nsets)}
	for i := range m.sets {
		m.sets[i] = make([]modelLine, cfg.Ways)
	}
	return m
}

func (m *modelCache) access(la uint64, write bool) (hit, writeback bool) {
	m.clock++
	m.stats.Accesses++
	set := m.sets[la%uint64(len(m.sets))]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].lru = m.clock
			set[i].dirty = set[i].dirty || write
			return true, false
		}
	}
	m.stats.Misses++
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
		m.stats.Writebacks++
	}
	set[victim] = modelLine{valid: true, dirty: write, tag: la, lru: m.clock}
	return false, writeback
}

func (m *modelCache) flush() {
	for _, set := range m.sets {
		clear(set)
	}
}

type modelHierarchy struct {
	l1i, l1d, l2 *modelCache
	dramLatency  uint64
	dram         uint64
}

func newModelHierarchy(h *Hierarchy) *modelHierarchy {
	return &modelHierarchy{
		l1i:         newModelCache(h.L1I.Config()),
		l1d:         newModelCache(h.L1D.Config()),
		l2:          newModelCache(h.L2.Config()),
		dramLatency: h.DRAMLatency,
	}
}

// access charges size bytes at pa through l1, one line at a time.
func (m *modelHierarchy) access(l1 *modelCache, pa, size uint64, write bool) uint64 {
	if size == 0 {
		size = 1
	}
	var cycles uint64
	for la := pa / l1.cfg.LineSize; la <= (pa+size-1)/l1.cfg.LineSize; la++ {
		cycles += l1.cfg.HitLatency
		hit, wb := l1.access(la, write)
		if hit {
			continue
		}
		cycles += m.l2.cfg.HitLatency
		hit2, wb2 := m.l2.access(la*l1.cfg.LineSize/m.l2.cfg.LineSize, false)
		if !hit2 {
			cycles += m.dramLatency
			m.dram++
		}
		if wb || wb2 {
			cycles += 2
		}
	}
	return cycles
}

func (m *modelHierarchy) fetch(pa, size uint64) uint64 { return m.access(m.l1i, pa, size, false) }

func (m *modelHierarchy) data(pa, size uint64, write bool) uint64 {
	return m.access(m.l1d, pa, size, write)
}

// fetchRepeats issues n fetches of line la one by one.
func (m *modelHierarchy) fetchRepeats(la, n uint64) uint64 {
	var cycles uint64
	for range n {
		cycles += m.fetch(la*m.l1i.cfg.LineSize, 1)
	}
	return cycles
}

func (m *modelHierarchy) flush() {
	m.l1i.flush()
	m.l1d.flush()
	m.l2.flush()
}

func (m *modelHierarchy) resetStats() {
	m.l1i.stats, m.l1d.stats, m.l2.stats = Stats{}, Stats{}, Stats{}
	m.dram = 0
}

// fuzzGeometries are the hierarchies the fuzz target drives: the paper's,
// and a tiny one (2-set 2-way L1s, a 4-set 4-way L2, 16-byte lines) where
// a few dozen accesses already evict at both levels.
var fuzzGeometries = []func() *Hierarchy{
	DefaultHierarchy,
	func() *Hierarchy {
		return &Hierarchy{
			L1I:         New(Config{Name: "L1I", Size: 64, LineSize: 16, Ways: 2, HitLatency: 1}),
			L1D:         New(Config{Name: "L1D", Size: 64, LineSize: 16, Ways: 2, HitLatency: 2}),
			L2:          New(Config{Name: "L2", Size: 256, LineSize: 16, Ways: 4, HitLatency: 7}),
			DRAMLatency: 40,
		}
	},
}

// fuzzSizes are the access sizes an op can pick: empty, scalar and
// capability widths, a whole line, and a span over several lines.
var fuzzSizes = [8]uint64{0, 1, 2, 4, 8, 32, 64, 200}

// FuzzHierarchyMatchesLRUModel drives a Hierarchy and the LRU oracle with
// the same random sequence of Fetch, Data, probed data accesses, fetch
// repeats, Flush and ResetStats calls, and requires every call's cycles,
// every level's Stats and the DRAM count to agree after each call.
//
// The two batched forms follow the CPU's contracts. A probed access is
// the CPU's data hit path: Probe.Hit, and Data if it declines; the hits
// it accepts are applied with one L1D.Hits call only before a Flush or a
// ResetStats (and counted in the comparison until then). Fetch repeats
// are applied with L1I.Hits only while the last L1I access was a fetch of
// one line, which is when runBlock counts them.
//
// The first input byte picks the geometry; each following 4-byte group is
// one op: kind and write flag, the line, the offset within the line, and
// the size (or the repeat count). Lines are clustered into four L1 sets
// and, through the line stride, into few L2 sets, so accesses hit, miss,
// evict and write back dirty lines at both levels.
func FuzzHierarchyMatchesLRUModel(f *testing.F) {
	f.Add([]byte{0, 0x01, 0x00, 0x00, 0x03, 0x81, 0x04, 0x08, 0x04})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		h := fuzzGeometries[int(in[0])%len(fuzzGeometries)]()
		m := newModelHierarchy(h)
		lineSize := h.L1I.Config().LineSize
		// Lines one stride apart share an L1 set and fall into at most two
		// L2 sets, so each of the four base sets sees 64 distinct lines.
		stride := 4 * h.L1I.Config().Size / lineSize
		fetched, fetchOK := uint64(0), false // last fetched line, if still MRU
		var pending uint64                   // probed L1D hits not yet applied
		probe := h.L1D.Probe()
		for op, ops := 0, in[1:]; len(ops) >= 4; op, ops = op+1, ops[4:] {
			kind, write := (ops[0]&0x7f)%6, ops[0]&0x80 != 0
			la := uint64(ops[1]&3) + uint64(ops[1]>>2)*stride
			pa := la*lineSize + uint64(ops[2])%lineSize
			size := fuzzSizes[ops[3]&7]
			var got, want uint64
			var what string
			switch kind {
			case 0:
				what = fmt.Sprintf("Fetch(%#x, %d)", pa, size)
				got, want = h.Fetch(pa, size), m.fetch(pa, size)
				fetched, fetchOK = (pa+max(size, 1)-1)/lineSize, true
			case 1:
				what = fmt.Sprintf("Data(%#x, %d, %v)", pa, size, write)
				got, want = h.Data(pa, size, write), m.data(pa, size, write)
			case 2:
				// The CPU's data hit path: an aligned power-of-two access,
				// the probe, then Data if the probe declines (having
				// changed nothing). Hits are counted, not yet applied.
				if size == 0 || size&(size-1) != 0 {
					size = 1
				}
				pa &^= size - 1
				what = fmt.Sprintf("Probe.Hit(%#x, %d, %v)", pa, size, write)
				if probe.Hit(pa, size, write) {
					pending++
					got = h.L1D.Config().HitLatency
				} else {
					got = h.Data(pa, size, write)
				}
				want = m.data(pa, size, write)
			case 3:
				if !fetchOK {
					continue // repeats need the last L1I access's line
				}
				n := uint64(ops[3]) + 1
				what = fmt.Sprintf("L1I.Hits(%d) after fetching line %#x", n, fetched)
				got, want = h.L1I.Hits(n), m.fetchRepeats(fetched, n)
			case 4:
				what = "Flush()"
				h.L1D.Hits(pending)
				pending = 0
				h.Flush()
				m.flush()
				fetchOK = false
			case 5:
				what = "ResetStats()"
				h.L1D.Hits(pending)
				pending = 0
				h.ResetStats()
				m.resetStats()
			}
			if got != want {
				t.Fatalf("op %d %s: %d cycles, model %d", op, what, got, want)
			}
			for _, lv := range []struct {
				c       *Cache
				m       *modelCache
				pending uint64
			}{{h.L1I, m.l1i, 0}, {h.L1D, m.l1d, pending}, {h.L2, m.l2, 0}} {
				got := lv.c.Stats()
				got.Accesses += lv.pending
				if got != lv.m.stats {
					t.Fatalf("op %d %s: %s stats %+v (%d hits pending), model %+v",
						op, what, lv.c.Config().Name, lv.c.Stats(), lv.pending, lv.m.stats)
				}
			}
			if h.DRAMAccesses() != m.dram {
				t.Fatalf("op %d %s: %d DRAM accesses, model %d", op, what, h.DRAMAccesses(), m.dram)
			}
		}
	})
}
