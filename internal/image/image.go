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
	"bytes"
	"encoding/gob"
	"fmt"

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
func (a ABI) PtrSize(capBytes uint64) uint64 {
	if a == ABICheri {
		return capBytes
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

// Layout computes the load layout for the given capability size. The GOT
// is writable data (the linker fills it) but separated so its capability
// can be bounded exactly.
func (img *Image) Layout(capBytes uint64) Layout {
	slot := img.ABI.PtrSize(capBytes)
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

// Marshal serialises the image to bytes for storage in the VFS. The
// encoding holds no capabilities, by construction.
func (img *Image) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("image: marshal %s: %w", img.Name, err)
	}
	return buf.Bytes(), nil
}

// Unmarshal reads an image back from bytes.
func Unmarshal(b []byte) (*Image, error) {
	var img Image
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&img); err != nil {
		return nil, fmt.Errorf("image: unmarshal: %w", err)
	}
	return &img, nil
}
