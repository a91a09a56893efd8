// Package rtld is the run-time linker. It loads an executable and its
// shared-library dependencies into an address space and performs the
// CheriABI load-time work the paper describes:
//
//   - each image's text gets a per-object code capability ("We bound
//     function symbols' resolved capabilities to the shared object");
//   - each GOT data entry gets a capability bounded to the individual
//     variable ("The run-time linker creates subsets of the program and
//     library data capabilities for each global variable");
//   - function GOT entries are two-slot descriptors [code capability,
//     defining image's GOT capability], so cross-image calls hand the
//     callee its own capability GOT;
//   - capability relocations initialise pointers stored in global data,
//     because tags do not survive on-disk images.
//
// Under the legacy ABI the same tables are filled with 8-byte virtual
// addresses, reproducing classic PIC dynamic linking.
package rtld

import (
	"fmt"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/mem"
	"cheriabi/internal/uaccess"
	"cheriabi/internal/vm"
)

// Resolver supplies shared libraries by name (the kernel backs this with
// the VFS).
type Resolver func(name string) (*image.Image, error)

// TraceFunc observes each capability the linker creates, labelled got or
// capreloc, for the abstract-capability ledger and Figure 5.
type TraceFunc func(kind string, c cap.Capability)

// LinkedImage is one image mapped into the address space.
type LinkedImage struct {
	Img    *image.Image
	Base   uint64
	Layout image.Layout

	// Capability view (CheriABI): per-object capabilities from which the
	// linker derives per-symbol capabilities.
	TextCap cap.Capability
	ROCap   cap.Capability
	GOTCap  cap.Capability
	DataCap cap.Capability
}

// SymbolVA returns the load address of a symbol defined in this image.
func (li *LinkedImage) SymbolVA(s *image.Symbol) uint64 {
	switch s.Sec {
	case image.SecText:
		return li.Base + li.Layout.TextOff + s.Off
	case image.SecROData:
		return li.Base + li.Layout.ROOff + s.Off
	case image.SecData:
		return li.Base + li.Layout.DataOff + s.Off
	case image.SecBSS:
		return li.Base + li.Layout.DataOff + uint64(len(li.Img.Data)) + s.Off
	}
	panic("rtld: bad section")
}

// sectionCap returns the per-object capability covering a symbol's section.
func (li *LinkedImage) sectionCap(s *image.Symbol) cap.Capability {
	switch s.Sec {
	case image.SecText:
		return li.TextCap
	case image.SecROData:
		return li.ROCap
	default:
		return li.DataCap
	}
}

// Linked is the result of loading an executable: the images in load order
// and the executable's view.
type Linked struct {
	Exec   *LinkedImage
	Images map[string]*LinkedImage
	Order  []*LinkedImage
}

// LookupGlobal finds a global symbol across all loaded images.
func (ln *Linked) LookupGlobal(name string) (*LinkedImage, *image.Symbol) {
	for _, li := range ln.Order {
		if s := li.Img.Lookup(name); s != nil && s.Global {
			return li, s
		}
	}
	return nil, nil
}

// Linker loads images into one address space.
type Linker struct {
	AS      *vm.AddressSpace
	Mem     *mem.Physical
	ABI     image.ABI
	Resolve Resolver
	Trace   TraceFunc
	// UserRoot is the process root capability from which all mapped-object
	// capabilities derive.
	UserRoot cap.Capability
	// NextBase is the load address for the next image (advanced per load;
	// the kernel perturbs the initial value per run for layout variance).
	NextBase uint64
	// SyncICache, when set, is called after all text bytes and relocations
	// are written, the point where a real run-time linker would issue an
	// instruction-cache synchronisation. The kernel points this at the
	// CPU's decoded-instruction-cache flush; the write-generation checks
	// already make that cache self-invalidating, so this is the explicit
	// (defence-in-depth) half of the invalidation protocol.
	SyncICache func()
}

func (ld *Linker) trace(kind string, c cap.Capability) {
	if ld.Trace != nil {
		ld.Trace(kind, c)
	}
}

// writeBytes, writeWord and writeCap store into the image's address
// space (pages must already be mapped) through the construction writes
// the kernel's execve also uses.
func (ld *Linker) writeBytes(va uint64, b []byte) error { return uaccess.WriteAS(ld.Mem, ld.AS, va, b) }
func (ld *Linker) writeWord(va, v uint64) error         { return uaccess.WriteWordAS(ld.Mem, ld.AS, va, v) }
func (ld *Linker) writeCap(va uint64, c cap.Capability) error {
	return uaccess.WriteCapAS(ld.Mem, ld.AS, va, c)
}

// Load maps the executable and its dependency closure, fills every GOT,
// and applies capability relocations.
func (ld *Linker) Load(exe *image.Image) (*Linked, error) {
	ln := &Linked{Images: map[string]*LinkedImage{}}
	if err := ld.loadRecursive(exe, ln); err != nil {
		return nil, err
	}
	ln.Exec = ln.Images[exe.Name]
	for _, li := range ln.Order {
		if err := ld.fillGOT(li, ln); err != nil {
			return nil, err
		}
		if err := ld.applyCapRelocs(li, ln); err != nil {
			return nil, err
		}
	}
	if ld.SyncICache != nil {
		ld.SyncICache()
	}
	return ln, nil
}

func (ld *Linker) loadRecursive(img *image.Image, ln *Linked) error {
	if _, done := ln.Images[img.Name]; done {
		return nil
	}
	if img.ABI != ld.ABI {
		return fmt.Errorf("rtld: %s is %v but process is %v", img.Name, img.ABI, ld.ABI)
	}
	li, err := ld.mapImage(img)
	if err != nil {
		return err
	}
	ln.Images[img.Name] = li
	ln.Order = append(ln.Order, li)
	for _, dep := range img.Needed {
		depImg, err := ld.Resolve(dep)
		if err != nil {
			return fmt.Errorf("rtld: resolving %s needed by %s: %w", dep, img.Name, err)
		}
		if err := ld.loadRecursive(depImg, ln); err != nil {
			return err
		}
	}
	return nil
}

// mapImage maps one image's segments and copies in its contents.
func (ld *Linker) mapImage(img *image.Image) (*LinkedImage, error) {
	l := img.Layout()
	base := ld.NextBase
	ld.NextBase = base + l.Total + vm.PageSize // guard page between images

	type seg struct {
		off, size uint64
		prot      vm.Prot
	}
	segs := []seg{
		{l.TextOff, l.TextSize, vm.ProtRead | vm.ProtExec},
		{l.ROOff, l.ROSize, vm.ProtRead},
		{l.GOTOff, l.GOTSize, vm.ProtRead | vm.ProtWrite},
		{l.DataOff, l.DataSize, vm.ProtRead | vm.ProtWrite},
	}
	for _, s := range segs {
		if s.size == 0 {
			continue
		}
		size := (s.size + vm.PageSize - 1) &^ (vm.PageSize - 1)
		if err := ld.AS.Map(base+s.off, size, s.prot, false); err != nil {
			return nil, fmt.Errorf("rtld: mapping %s: %w", img.Name, err)
		}
	}

	// Copy text.
	code := make([]byte, l.TextSize)
	for i, w := range img.Code {
		code[i*4] = byte(w)
		code[i*4+1] = byte(w >> 8)
		code[i*4+2] = byte(w >> 16)
		code[i*4+3] = byte(w >> 24)
	}
	if err := ld.writeBytes(base+l.TextOff, code); err != nil {
		return nil, err
	}
	if err := ld.writeBytes(base+l.ROOff, img.ROData); err != nil {
		return nil, err
	}
	if err := ld.writeBytes(base+l.DataOff, img.Data); err != nil {
		return nil, err
	}

	li := &LinkedImage{Img: img, Base: base, Layout: l}
	if ld.ABI == image.ABICheri {
		var err error
		derive := func(off, size uint64, perms cap.Perm) cap.Capability {
			if err != nil || size == 0 {
				return cap.Null()
			}
			c, e := cap.SetBounds(ld.UserRoot, base+off, size)
			if e != nil {
				err = e
				return cap.Null()
			}
			c = c.AndPerms(perms)
			ld.trace("exec", c)
			return c
		}
		li.TextCap = derive(l.TextOff, l.TextSize, cap.PermCode)
		li.ROCap = derive(l.ROOff, l.ROSize, cap.PermRO)
		li.GOTCap = derive(l.GOTOff, l.GOTSize, cap.PermData)
		li.DataCap = derive(l.DataOff, l.DataSize, cap.PermData)
		if err != nil {
			return nil, fmt.Errorf("rtld: deriving object capabilities for %s: %w", img.Name, err)
		}
	}
	return li, nil
}

// slotVA returns the address of GOT slot n in li.
func (ld *Linker) slotVA(li *LinkedImage, slot int) uint64 {
	return li.Base + li.Layout.GOTOff + uint64(slot)*ld.ABI.PtrSize()
}

// resolve finds the defining image and symbol for a reference from li.
func (ld *Linker) resolve(li *LinkedImage, name string, ln *Linked) (*LinkedImage, *image.Symbol, error) {
	if s := li.Img.Lookup(name); s != nil {
		return li, s, nil
	}
	if def, s := ln.LookupGlobal(name); def != nil {
		return def, s, nil
	}
	return nil, nil, fmt.Errorf("rtld: undefined symbol %q referenced by %s", name, li.Img.Name)
}

// dataCapFor derives the per-symbol bounded capability for a data symbol.
func (ld *Linker) dataCapFor(def *LinkedImage, s *image.Symbol) (cap.Capability, error) {
	va := def.SymbolVA(s)
	size := s.Size
	if size == 0 {
		size = 1
	}
	// Pad to a representable length so large objects keep exact-feeling
	// bounds; the compiler aligns and pads large globals correspondingly.
	c, err := cap.SetBounds(def.sectionCap(s), va, size)
	if err != nil {
		return cap.Null(), fmt.Errorf("rtld: bounding %s: %w", s.Name, err)
	}
	if s.Sec == image.SecROData {
		c = c.AndPerms(cap.PermRO)
	}
	return c, nil
}

// funcCapFor derives the code capability for a function: bounds cover the
// whole defining object ("While these bounds are not minimal, this
// preserves the ability of code to use branches in place of jumps").
func (ld *Linker) funcCapFor(def *LinkedImage, s *image.Symbol) cap.Capability {
	return cap.SetAddr(def.TextCap, def.SymbolVA(s))
}

func (ld *Linker) fillGOT(li *LinkedImage, ln *Linked) error {
	for _, e := range li.Img.GOT {
		def, s, err := ld.resolve(li, e.Sym, ln)
		if err != nil {
			return err
		}
		switch e.Kind {
		case image.GOTData:
			if ld.ABI == image.ABICheri {
				c, err := ld.dataCapFor(def, s)
				if err != nil {
					return err
				}
				ld.trace("glob relocs", c)
				if err := ld.writeCap(ld.slotVA(li, e.Slot), c); err != nil {
					return err
				}
			} else {
				if err := ld.writeWord(ld.slotVA(li, e.Slot), def.SymbolVA(s)); err != nil {
					return err
				}
			}
		case image.GOTFunc:
			if s.Kind != image.SymFunc {
				return fmt.Errorf("rtld: %s: function GOT entry for object symbol %q", li.Img.Name, e.Sym)
			}
			if ld.ABI == image.ABICheri {
				fc := ld.funcCapFor(def, s)
				ld.trace("glob relocs", fc)
				if err := ld.writeCap(ld.slotVA(li, e.Slot), fc); err != nil {
					return err
				}
				if err := ld.writeCap(ld.slotVA(li, e.Slot+1), def.GOTCap); err != nil {
					return err
				}
			} else {
				if err := ld.writeWord(ld.slotVA(li, e.Slot), def.SymbolVA(s)); err != nil {
					return err
				}
				if err := ld.writeWord(ld.slotVA(li, e.Slot+1), def.Base+def.Layout.GOTOff); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// applyCapRelocs initialises pointers in global data. Function targets
// point at this image's descriptor for the function, so stored function
// pointers are callable.
func (ld *Linker) applyCapRelocs(li *LinkedImage, ln *Linked) error {
	for _, r := range li.Img.CapRelocs {
		def, s, err := ld.resolve(li, r.Target, ln)
		if err != nil {
			return err
		}
		loc := li.Base + li.Layout.DataOff + r.Off
		if s.Kind == image.SymFunc {
			ge := li.Img.GOTEntryFor(r.Target)
			if ge == nil {
				return fmt.Errorf("rtld: cap_reloc to %q without descriptor", r.Target)
			}
			descVA := ld.slotVA(li, ge.Slot)
			if ld.ABI == image.ABICheri {
				c, err := cap.SetBounds(li.GOTCap, descVA, 2*cap.Bytes)
				if err != nil {
					return err
				}
				ld.trace("cap relocs", c)
				if err := ld.writeCap(loc, c); err != nil {
					return err
				}
			} else if err := ld.writeWord(loc, descVA); err != nil {
				return err
			}
			continue
		}
		if ld.ABI == image.ABICheri {
			c, err := ld.dataCapFor(def, s)
			if err != nil {
				return err
			}
			c = cap.IncAddr(c, int64(r.Addend))
			ld.trace("cap relocs", c)
			if err := ld.writeCap(loc, c); err != nil {
				return err
			}
		} else if err := ld.writeWord(loc, def.SymbolVA(s)+r.Addend); err != nil {
			return err
		}
	}
	return nil
}

// EntryPoint returns the initial PC/PCC and GOT register values for the
// loaded executable.
func (ld *Linker) EntryPoint(ln *Linked) (pc uint64, pcc, cgp cap.Capability, gotAddr uint64, err error) {
	sym := ln.Exec.Img.Lookup(ln.Exec.Img.Entry)
	if sym == nil {
		return 0, cap.Null(), cap.Null(), 0, fmt.Errorf("rtld: no entry symbol %q", ln.Exec.Img.Entry)
	}
	pc = ln.Exec.SymbolVA(sym)
	if ld.ABI == image.ABICheri {
		pcc = cap.SetAddr(ln.Exec.TextCap, pc)
		cgp = ln.Exec.GOTCap
	}
	gotAddr = ln.Exec.Base + ln.Exec.Layout.GOTOff
	return pc, pcc, cgp, gotAddr, nil
}

// CodeBytes returns total mapped text bytes across images (code-size metric).
func (ln *Linked) CodeBytes() uint64 {
	var total uint64
	for _, li := range ln.Order {
		total += li.Img.CodeSize()
	}
	return total
}
