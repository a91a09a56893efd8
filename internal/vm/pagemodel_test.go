package vm

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/mem"
)

// pageModel is the per-page address space that AddressSpace replaced,
// kept as its oracle: one heap entry per mapped page, demand-zero pages
// included, so every operation costs O(mapped pages). It keeps the
// mprotect fix (a range with a hole changes nothing).
// FuzzAddressSpaceMatchesPageModel drives both side by side.
type pageModel struct {
	sys      *System
	pages    map[uint64]*modelPTE // keyed by VPN
	Stats    Stats
	Rederive RederiveFunc
	Gen      uint64
}

type modelPTE struct {
	frame   uint64
	prot    Prot
	present bool
	cow     bool
	shared  bool // MAP_SHARED semantics: never copy-on-write
	zero    bool // demand-zero: no frame yet
	swapped bool
	swapID  uint64
}

func newPageModel(s *System) *pageModel {
	return &pageModel{sys: s, pages: map[uint64]*modelPTE{}}
}

func (as *pageModel) MapFrames(va uint64, frames []uint64, prot Prot) error {
	if va%PageSize != 0 {
		return fmt.Errorf("vm: unaligned MapFrames va=0x%x", va)
	}
	for i := range frames {
		if _, ok := as.pages[vpn(va)+uint64(i)]; ok {
			return fmt.Errorf("vm: mapping exists at va=0x%x", va+uint64(i)*PageSize)
		}
	}
	for i, f := range frames {
		as.sys.Frames.incref(f)
		as.pages[vpn(va)+uint64(i)] = &modelPTE{frame: f, prot: prot, present: true, shared: true}
	}
	as.Gen++
	return nil
}

func (as *pageModel) Map(va, length uint64, prot Prot, replace bool) error {
	if va%PageSize != 0 || length%PageSize != 0 || length == 0 {
		return fmt.Errorf("vm: unaligned map va=0x%x len=0x%x", va, length)
	}
	if !replace {
		for p := vpn(va); p < vpn(va+length); p++ {
			if _, ok := as.pages[p]; ok {
				return fmt.Errorf("vm: mapping exists at va=0x%x", p<<PageShift)
			}
		}
	}
	for p := vpn(va); p < vpn(va+length); p++ {
		if old, ok := as.pages[p]; ok {
			as.release(old)
		}
		as.pages[p] = &modelPTE{prot: prot, zero: true}
	}
	as.Gen++
	return nil
}

func (as *pageModel) release(e *modelPTE) {
	if e.present {
		as.sys.Frames.decref(e.frame)
	}
	if e.swapped {
		as.sys.Swap.take(e.swapID)
	}
}

func (as *pageModel) Unmap(va, length uint64) error {
	if va%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("vm: unaligned unmap va=0x%x len=0x%x", va, length)
	}
	for p := vpn(va); p < vpn(va+length); p++ {
		if e, ok := as.pages[p]; ok {
			as.release(e)
			delete(as.pages, p)
		}
	}
	as.Gen++
	return nil
}

func (as *pageModel) Protect(va, length uint64, prot Prot) error {
	if va%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("vm: unaligned protect va=0x%x len=0x%x", va, length)
	}
	for p := vpn(va); p < vpn(va+length); p++ {
		if _, ok := as.pages[p]; !ok {
			return &PageFault{VA: p << PageShift, Access: prot, Kind: FaultNotMapped}
		}
	}
	for p := vpn(va); p < vpn(va+length); p++ {
		as.pages[p].prot = prot
	}
	as.Gen++
	return nil
}

func (as *pageModel) Mapped(va, length uint64, prot Prot) bool {
	last := va + max(length, 1) - 1
	if last < va {
		return false
	}
	for p := vpn(va); p <= vpn(last); p++ {
		if e, ok := as.pages[p]; !ok || e.prot&prot != prot {
			return false
		}
	}
	return true
}

func (as *pageModel) MappedPages() uint64 { return uint64(len(as.pages)) }

func (as *pageModel) FindFree(hint, length, end uint64) (uint64, bool) {
	if length > end {
		return 0, false
	}
	length = (length + PageSize - 1) &^ (PageSize - 1)
	va := hint &^ (PageSize - 1)
	for va <= end && length <= end-va {
		free := true
		for p := vpn(va); p < vpn(va+length); p++ {
			if _, exists := as.pages[p]; exists {
				free = false
				va = (p + 1) << PageShift
				break
			}
		}
		if free {
			return va, true
		}
	}
	return 0, false
}

func (as *pageModel) Translate(va uint64, access Prot) (uint64, *PageFault) {
	e, ok := as.pages[vpn(va)]
	if !ok {
		return 0, &PageFault{VA: va, Access: access, Kind: FaultNotMapped}
	}
	if e.prot&access != access {
		return 0, &PageFault{VA: va, Access: access, Kind: FaultProt}
	}
	if e.zero {
		e.frame = as.sys.Frames.alloc()
		as.sys.Mem.Zero(e.frame, PageSize)
		e.zero = false
		e.present = true
		as.Stats.DemandZero++
		as.Gen++
	}
	if e.swapped {
		as.swapIn(e)
	}
	if access&ProtWrite != 0 && e.cow && !e.shared {
		if as.sys.Frames.shared(e.frame) {
			newFrame := as.sys.Frames.alloc()
			as.sys.Mem.CopyTagged(newFrame, e.frame, PageSize)
			as.sys.Frames.decref(e.frame)
			e.frame = newFrame
			as.Stats.COWCopies++
			as.Gen++
		}
		e.cow = false
	}
	return e.frame + va%PageSize, nil
}

func (as *pageModel) swapIn(e *modelPTE) {
	slot := as.sys.Swap.take(e.swapID)
	e.frame = as.sys.Frames.alloc()
	e.swapped = false
	e.present = true
	as.Gen++
	as.sys.Mem.WriteBytes(e.frame, slot.data)
	buf := make([]byte, cap.Bytes)
	for i, tagged := range slot.tags {
		if !tagged {
			continue
		}
		pa := e.frame + uint64(i)*cap.Bytes
		if as.Rederive == nil || as.Rederive(pa) {
			as.sys.Mem.LoadCap(pa, buf)
			as.sys.Mem.StoreCap(pa, buf, true)
			as.Stats.TagsKept++
		} else {
			as.Stats.TagsLost++
		}
	}
	as.Stats.SwapIns++
}

func (as *pageModel) SwapOut(va uint64) error {
	e, ok := as.pages[vpn(va)]
	if !ok || !e.present {
		return fmt.Errorf("vm: swap-out of non-resident page va=0x%x", va)
	}
	if as.sys.Frames.shared(e.frame) {
		return fmt.Errorf("vm: page va=0x%x is shared (wired)", va)
	}
	data := make([]byte, PageSize)
	as.sys.Mem.ReadBytes(e.frame, data)
	tags := as.sys.Mem.ExtractTags(e.frame, PageSize)
	e.swapID = as.sys.Swap.put(data, tags)
	e.swapped = true
	e.present = false
	as.Gen++
	as.sys.Frames.decref(e.frame)
	e.frame = 0
	as.Stats.SwapOuts++
	return nil
}

func (as *pageModel) Resident(va uint64) bool {
	e, ok := as.pages[vpn(va)]
	return ok && e.present
}

// ResidentPages is the walk the kernel's SwapOutProc made before
// AddressSpace.ResidentPages: every page of every region, in order.
func (as *pageModel) ResidentPages() []uint64 {
	var out []uint64
	for _, r := range as.Regions() {
		for va := r.Start; va < r.End; va += PageSize {
			if as.Resident(va) {
				out = append(out, va)
			}
		}
	}
	return out
}

func (as *pageModel) Fork() *pageModel {
	child := newPageModel(as.sys)
	child.pages = make(map[uint64]*modelPTE, len(as.pages))
	var swapped []uint64
	for p, e := range as.pages {
		ne := *e
		if e.present {
			as.sys.Frames.incref(e.frame)
			if !e.shared {
				e.cow = true
				ne.cow = true
			}
		}
		if e.swapped {
			swapped = append(swapped, p)
		}
		if e.zero {
			ne = modelPTE{prot: e.prot, zero: true}
		}
		child.pages[p] = &ne
	}
	slices.Sort(swapped)
	for _, p := range swapped {
		slot := as.sys.Swap.slots[as.pages[p].swapID]
		child.pages[p].swapID = as.sys.Swap.put(slices.Clone(slot.data), slices.Clone(slot.tags))
	}
	as.Gen++
	return child
}

func (as *pageModel) Release() {
	var resident []uint64
	for p, e := range as.pages {
		if e.present {
			resident = append(resident, p)
		}
		if e.swapped {
			as.sys.Swap.take(e.swapID)
		}
	}
	slices.Sort(resident)
	for _, p := range resident {
		as.sys.Frames.decref(as.pages[p].frame)
	}
	clear(as.pages)
}

func (as *pageModel) Regions() []Region {
	if len(as.pages) == 0 {
		return nil
	}
	vpns := make([]uint64, 0, len(as.pages))
	for p := range as.pages {
		vpns = append(vpns, p)
	}
	slices.Sort(vpns)
	var out []Region
	cur := Region{Start: vpns[0] << PageShift, End: (vpns[0] + 1) << PageShift, Prot: as.pages[vpns[0]].prot}
	for _, p := range vpns[1:] {
		e := as.pages[p]
		if p<<PageShift == cur.End && e.prot == cur.Prot {
			cur.End += PageSize
			continue
		}
		out = append(out, cur)
		cur = Region{Start: p << PageShift, End: (p + 1) << PageShift, Prot: e.prot}
	}
	return append(out, cur)
}

// FuzzAddressSpaceMatchesPageModel drives AddressSpaces on one System
// and pageModels on a twin System through the same operations, and
// requires equal results, Stats and generations after every step, and
// the same frame allocator state: free stack order, high-water mark and
// reference counts. Frame order decides physical placement, so it must
// match exactly. Each 3-byte group of the input is one op (kind, a, b)
// over 32 pages of address space, so mappings overlap, split and merge.
// Writes store a byte at the translated address on both sides and reads
// compare it, so copy-on-write copies and swap round trips are checked
// too.
func FuzzAddressSpaceMatchesPageModel(f *testing.F) {
	f.Add([]byte{0, 0, 0x3b, 5, 2, 1, 5, 3, 2, 6, 0, 0, 5, 2, 1, 3, 0, 7, 11, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		const reserved, size = 1 << 20, 1<<20 + 512*PageSize
		sys := NewSystem(mem.New(size), reserved)
		ref := NewSystem(mem.New(size), reserved)
		type space struct {
			as *AddressSpace
			pm *pageModel
		}
		spaces := []space{{sys.NewAddressSpace(), newPageModel(ref)}}
		type seg struct{ got, want []uint64 }
		var segs []seg
		same := func(what string, got, want any) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: got %v, model %v", what, got, want)
			}
		}
		sameErr := func(what string, got, want error) {
			t.Helper()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: got error %v, model %v", what, got, want)
			}
		}
		for step := 0; len(in) >= 3; in, step = in[3:], step+1 {
			kind, a, b := in[0]%16, uint64(in[1]), uint64(in[2])
			sp := spaces[int(a)%len(spaces)]
			va := (0x10 + a%32) << PageShift
			length := (1 + b%8) * PageSize
			prot := Prot(b >> 3 % 8)
			what := fmt.Sprintf("step %d op %d(%#x, %#x)", step, kind, a, b)
			if sys.Frames.Free() < 16 && (kind == 2 || kind == 5) {
				continue // keep clear of running out of frames
			}
			switch kind {
			case 0, 1:
				sameErr(what, sp.as.Map(va, length, prot, kind == 1), sp.pm.Map(va, length, prot, kind == 1))
			case 2:
				n := int(1 + b%4)
				s := seg{sys.AllocFrames(n), ref.AllocFrames(n)}
				same(what, s.got, s.want)
				segs = append(segs, s)
				sameErr(what, sp.as.MapFrames(va, s.got, prot), sp.pm.MapFrames(va, s.want, prot))
			case 3:
				sameErr(what, sp.as.Unmap(va, length), sp.pm.Unmap(va, length))
			case 4:
				sameErr(what, sp.as.Protect(va, length, prot), sp.pm.Protect(va, length, prot))
			case 5:
				access := []Prot{ProtRead, ProtWrite, ProtExec, ProtRead | ProtWrite}[b%4]
				addr := va + b*8%PageSize
				got, gpf := sp.as.Translate(addr, access)
				want, wpf := sp.pm.Translate(addr, access)
				same(what, got, want)
				same(what, gpf, wpf)
				switch {
				case gpf != nil:
				case access&ProtWrite != 0:
					sys.Mem.Store(got, 1, uint64(step))
					ref.Mem.Store(want, 1, uint64(step))
				default:
					same(what+" byte", sys.Mem.Load(got, 1), ref.Mem.Load(want, 1))
				}
			case 6:
				if len(spaces) < 8 {
					spaces = append(spaces, space{sp.as.Fork(), sp.pm.Fork()})
				}
			case 7:
				sameErr(what, sp.as.SwapOut(va), sp.pm.SwapOut(va))
			case 8:
				sp.as.Release()
				sp.pm.Release()
				if i := int(a) % len(spaces); len(spaces) > 1 {
					spaces = slices.Delete(spaces, i, i+1)
				}
			case 9:
				hint, end := va-0x8000, (0x10+b%48)<<PageShift
				got, gok := sp.as.FindFree(hint, length, end)
				want, wok := sp.pm.FindFree(hint, length, end)
				same(what, []any{got, gok}, []any{want, wok})
			case 10:
				same(what, sp.as.Mapped(va, length, prot), sp.pm.Mapped(va, length, prot))
			case 11:
				same(what, sp.as.Regions(), sp.pm.Regions())
			case 12:
				same(what, sp.as.MappedPages(), sp.pm.MappedPages())
				same(what, sp.as.ResidentPages(), sp.pm.ResidentPages())
			case 13:
				if len(segs) > 0 {
					i := int(b) % len(segs)
					sys.ReleaseFrames(segs[i].got)
					ref.ReleaseFrames(segs[i].want)
					segs = slices.Delete(segs, i, i+1)
				}
			case 14:
				if len(spaces) < 8 {
					spaces = append(spaces, space{sys.NewAddressSpace(), newPageModel(ref)})
				}
			default:
				continue
			}
			for i, sp := range spaces {
				same(fmt.Sprintf("%s: space %d Stats", what, i), sp.as.Stats, sp.pm.Stats)
				same(fmt.Sprintf("%s: space %d Gen", what, i), sp.as.Gen, sp.pm.Gen)
			}
			same(what+": free frames", sys.Frames.free, ref.Frames.free)
			same(what+": high-water mark", sys.Frames.hw, ref.Frames.hw)
			if !maps.Equal(sys.Frames.refs, ref.Frames.refs) {
				t.Fatalf("%s: frame refs %v, model %v", what, sys.Frames.refs, ref.Frames.refs)
			}
			same(what+": swap slots", []any{sys.Swap.Len(), sys.Swap.next}, []any{ref.Swap.Len(), ref.Swap.next})
		}
	})
}
