// Package image defines the simulator's executable and shared-library
// format ("CELF"). Like ELF on CheriBSD, an on-disk image carries no
// capabilities — tags do not survive storage — so pointer initialisation
// is described by tables the run-time linker processes at load time:
// GOT entries ("new dynamic relocations that initialize and bound the
// capability") and capability relocations for global variables containing
// pointers ("Global variables containing pointers are initialized during
// process startup, as tags are not preserved on disk").
package image

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"cheriabi/internal/cap"
	"cheriabi/internal/vm"
)

// ABI selects the process ABI an image is compiled for.
type ABI int

// Process ABIs.
const (
	// ABILegacy is the mips64-flavoured SysV ABI: pointers are 8-byte
	// integers checked only against DDC.
	ABILegacy ABI = iota
	// ABICheri is CheriABI: all pointers are capabilities, DDC is NULL.
	ABICheri
)

func (a ABI) String() string {
	if a == ABICheri {
		return "cheriabi"
	}
	return "mips64"
}

// ParseABI returns the ABI whose String is s.
func ParseABI(s string) (ABI, error) {
	for _, a := range []ABI{ABILegacy, ABICheri} {
		if s == a.String() {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown ABI %q (want %s or %s)", s, ABILegacy, ABICheri)
}

// PtrSize returns the in-memory pointer size for the ABI.
func (a ABI) PtrSize() uint64 {
	if a == ABICheri {
		return cap.Bytes
	}
	return 8
}

// SectionID identifies a section within an image.
type SectionID int

// Sections.
const (
	SecText SectionID = iota
	SecROData
	SecData
	SecBSS
)

func (s SectionID) String() string {
	switch s {
	case SecText:
		return "text"
	case SecROData:
		return "rodata"
	case SecData:
		return "data"
	case SecBSS:
		return "bss"
	}
	return fmt.Sprintf("sec%d", int(s))
}

// SymKind distinguishes code from data symbols.
type SymKind int

// Symbol kinds.
const (
	SymObject SymKind = iota
	SymFunc
)

// Symbol is one defined symbol.
type Symbol struct {
	Name   string
	Kind   SymKind
	Sec    SectionID
	Off    uint64 // offset within the section
	Size   uint64
	Global bool // visible to other images
}

// GOTKind distinguishes the two GOT entry shapes.
type GOTKind int

// GOT entry kinds.
const (
	// GOTData is a single slot holding a bounded data capability (or, for
	// the legacy ABI, the variable's address).
	GOTData GOTKind = iota
	// GOTFunc is a two-slot function descriptor: [code capability,
	// defining image's GOT capability]. Cross-image calls and function
	// pointers go through descriptors so the callee receives its own
	// capability GOT.
	GOTFunc
)

// GOTEntry is one global-offset-table entry. Slot positions are assigned
// by the static linker and referenced by immediate offsets in code.
type GOTEntry struct {
	Sym  string
	Kind GOTKind
	Slot int // first slot index
}

// Slots returns the number of consecutive slots the entry occupies.
func (e GOTEntry) Slots() int {
	if e.Kind == GOTFunc {
		return 2
	}
	return 1
}

// CapReloc initialises a pointer stored in the data section: at load time
// the run-time linker writes a capability (or legacy address) for
// Target+Addend at Off within the data section. Function targets resolve
// to the image's descriptor for that function.
type CapReloc struct {
	Off    uint64 // location within SecData, pointer-aligned
	Target string
	Addend uint64
}

// Image is one linked executable or shared library.
type Image struct {
	Name   string
	ABI    ABI
	Code   []uint32 // encoded instructions
	ROData []byte
	Data   []byte
	BSS    uint64 // zero-initialised bytes following Data
	Entry  string // entry symbol for executables ("_start")

	Symbols   map[string]*Symbol
	GOT       []GOTEntry
	GOTSlots  int // total slots (functions use two)
	CapRelocs []CapReloc
	Needed    []string // shared-library dependencies, load order

	// ASan marks an AddressSanitizer-instrumented binary: execve maps the
	// shadow region for it.
	ASan bool
}

// Lookup returns the named symbol or nil.
func (img *Image) Lookup(name string) *Symbol { return img.Symbols[name] }

// GOTEntryFor returns the GOT entry for a symbol, or nil.
func (img *Image) GOTEntryFor(name string) *GOTEntry {
	for i := range img.GOT {
		if img.GOT[i].Sym == name {
			return &img.GOT[i]
		}
	}
	return nil
}

// Layout describes where each part of a loaded image sits, as offsets from
// the image base. Text, read-only data, the GOT, and writable data are
// page-separated so they can carry distinct page protections and
// capability bounds.
type Layout struct {
	TextOff, TextSize uint64
	ROOff, ROSize     uint64
	GOTOff, GOTSize   uint64
	DataOff, DataSize uint64 // includes BSS
	Total             uint64
}

func pageUp(v uint64) uint64 {
	return (v + vm.PageSize - 1) &^ (vm.PageSize - 1)
}

// Layout computes the load layout. The GOT is writable data (the linker
// fills it) but separated so its capability can be bounded exactly.
func (img *Image) Layout() Layout {
	slot := img.ABI.PtrSize()
	var l Layout
	l.TextSize = uint64(len(img.Code)) * 4
	l.ROSize = uint64(len(img.ROData))
	l.GOTSize = uint64(img.GOTSlots) * slot
	l.DataSize = uint64(len(img.Data)) + img.BSS
	l.TextOff = 0
	l.ROOff = pageUp(l.TextSize)
	l.GOTOff = l.ROOff + pageUp(l.ROSize)
	l.DataOff = l.GOTOff + pageUp(l.GOTSize)
	l.Total = l.DataOff + pageUp(l.DataSize)
	if l.Total == 0 {
		l.Total = vm.PageSize
	}
	return l
}

// CodeSize returns the text size in bytes (the §5.2 code-size metric).
func (img *Image) CodeSize() uint64 { return uint64(len(img.Code)) * 4 }

// The on-disk form, written by Marshal and read by Unmarshal, is the
// magic "CELF\x01" followed by the fields in declaration order: a uint64
// as a uvarint, an int (ABI, kinds, sections, slots) as a zigzag varint, a
// bool as one byte 0 or 1, a string or byte slice as a uvarint length and
// its bytes, and Code as a uvarint count of little-endian 4-byte words.
// Symbols follow as a count and, sorted by key, each key then the
// symbol's fields; GOT, CapRelocs and Needed as a count and their
// elements. Every varint is minimal and nothing follows the last field,
// so an image has exactly one encoding.
const magic = "CELF\x01"

// Minimum encoded sizes of the repeated elements, which bound the counts
// Unmarshal accepts by the bytes left: a symbol is its key, name, kind,
// section, offset, size and global flag; a GOT entry its name, kind and
// slot; a capability relocation its offset, target and addend.
const (
	minSymbol   = 7
	minGOTEntry = 3
	minCapReloc = 3
)

// Marshal serialises the image to bytes for storage in the VFS. The
// encoding holds no capabilities, by construction, and is deterministic:
// equal images marshal to equal bytes.
func (img *Image) Marshal() ([]byte, error) {
	keys := make([]string, 0, len(img.Symbols))
	for k, sym := range img.Symbols {
		if sym == nil {
			return nil, fmt.Errorf("image: marshal %s: nil symbol %q", img.Name, k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := make([]byte, 0, 64+4*len(img.Code)+len(img.ROData)+len(img.Data)+
		32*(len(keys)+len(img.GOT)+len(img.CapRelocs)))
	b = append(b, magic...)
	b = appendString(b, img.Name)
	b = binary.AppendVarint(b, int64(img.ABI))
	b = binary.AppendUvarint(b, uint64(len(img.Code)))
	for _, w := range img.Code {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	b = appendString(b, img.ROData)
	b = appendString(b, img.Data)
	b = binary.AppendUvarint(b, img.BSS)
	b = appendString(b, img.Entry)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		sym := img.Symbols[k]
		b = appendString(b, k)
		b = appendString(b, sym.Name)
		b = binary.AppendVarint(b, int64(sym.Kind))
		b = binary.AppendVarint(b, int64(sym.Sec))
		b = binary.AppendUvarint(b, sym.Off)
		b = binary.AppendUvarint(b, sym.Size)
		b = appendBool(b, sym.Global)
	}
	b = binary.AppendUvarint(b, uint64(len(img.GOT)))
	for _, e := range img.GOT {
		b = appendString(b, e.Sym)
		b = binary.AppendVarint(b, int64(e.Kind))
		b = binary.AppendVarint(b, int64(e.Slot))
	}
	b = binary.AppendVarint(b, int64(img.GOTSlots))
	b = binary.AppendUvarint(b, uint64(len(img.CapRelocs)))
	for _, r := range img.CapRelocs {
		b = binary.AppendUvarint(b, r.Off)
		b = appendString(b, r.Target)
		b = binary.AppendUvarint(b, r.Addend)
	}
	b = binary.AppendUvarint(b, uint64(len(img.Needed)))
	for _, n := range img.Needed {
		b = appendString(b, n)
	}
	return appendBool(b, img.ASan), nil
}

func appendString[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Unmarshal reads an image back from bytes. The input may be hostile (a
// guest can write a file and execve it): every count is checked against
// the bytes left before anything is allocated for it, so a malformed
// image is an error, never a panic or an allocation the input does not
// back. An empty slice or map decodes as nil.
func Unmarshal(b []byte) (*Image, error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("image: unmarshal: not a CELF image")
	}
	d := decoder{b: b[len(magic):]}
	img := &Image{}
	img.Name = d.str()
	img.ABI = ABI(d.int())
	if n := d.count(4); n > 0 {
		img.Code = make([]uint32, n)
		for i := range img.Code {
			img.Code[i] = binary.LittleEndian.Uint32(d.b[4*i:])
		}
		d.b = d.b[4*n:]
	}
	img.ROData = d.bytes()
	img.Data = d.bytes()
	img.BSS = d.uvarint()
	img.Entry = d.str()
	if n := d.count(minSymbol); n > 0 {
		img.Symbols = make(map[string]*Symbol, n)
		syms := make([]Symbol, n)
		prev := ""
		for i := range syms {
			sym := &syms[i]
			key := d.str()
			if d.err == nil && i > 0 && key <= prev {
				d.fail("symbols out of order")
			}
			prev = key
			if name := d.raw(); string(name) == key {
				sym.Name = key
			} else {
				sym.Name = string(name)
			}
			sym.Kind = SymKind(d.int())
			sym.Sec = SectionID(d.int())
			sym.Off = d.uvarint()
			sym.Size = d.uvarint()
			sym.Global = d.bool()
			if d.err != nil {
				break
			}
			img.Symbols[key] = sym
		}
	}
	if n := d.count(minGOTEntry); n > 0 {
		img.GOT = make([]GOTEntry, n)
		for i := range img.GOT {
			e := &img.GOT[i]
			e.Sym = d.symName(img.Symbols)
			e.Kind = GOTKind(d.int())
			e.Slot = d.int()
		}
	}
	img.GOTSlots = d.int()
	if n := d.count(minCapReloc); n > 0 {
		img.CapRelocs = make([]CapReloc, n)
		for i := range img.CapRelocs {
			r := &img.CapRelocs[i]
			r.Off = d.uvarint()
			r.Target = d.symName(img.Symbols)
			r.Addend = d.uvarint()
		}
	}
	if n := d.count(1); n > 0 {
		img.Needed = make([]string, n)
		for i := range img.Needed {
			img.Needed[i] = d.str()
		}
	}
	img.ASan = d.bool()
	if d.err == nil && len(d.b) != 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, fmt.Errorf("image: unmarshal: %w", d.err)
	}
	return img, nil
}

// decoder reads Marshal's encoding from b. The first malformation sets
// err; every later read returns a zero value, so Unmarshal checks once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
	d.b = nil
}

// uvarint reads a minimal uvarint: one that is overlong (ends in a zero
// byte) would decode to the same value as a shorter one.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a zigzag varint into an int.
func (d *decoder) int() int {
	u := d.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

func (d *decoder) bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail("bad bool")
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// count reads an element count and checks that the bytes left can hold
// that many elements of at least size bytes each.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("count exceeds input")
		return 0
	}
	return int(n)
}

// raw reads a length-prefixed byte string without copying it.
func (d *decoder) raw() []byte {
	n := d.count(1)
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string { return string(d.raw()) }

// bytes reads a length-prefixed byte string into a copy, nil when empty.
func (d *decoder) bytes() []byte {
	if v := d.raw(); len(v) > 0 {
		return append([]byte(nil), v...)
	}
	return nil
}

// symName reads a symbol name, sharing the symbol table's string when the
// name is one of its keys.
func (d *decoder) symName(syms map[string]*Symbol) string {
	v := d.raw()
	if sym := syms[string(v)]; sym != nil && sym.Name == string(v) {
		return sym.Name
	}
	return string(v)
}
