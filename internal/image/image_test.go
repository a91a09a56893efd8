package image

import (
	"strings"
	"testing"

	"cheriabi/internal/vm"
)

func sample() *Image {
	return &Image{
		Name:   "libsample.so",
		ABI:    ABICheri,
		Code:   []uint32{1, 2, 3, 4},
		ROData: []byte("hello"),
		Data:   []byte{9, 9, 9},
		BSS:    64,
		Entry:  "_start",
		Symbols: map[string]*Symbol{
			"f":  {Name: "f", Kind: SymFunc, Sec: SecText, Off: 0, Size: 8, Global: true},
			"g":  {Name: "g", Kind: SymObject, Sec: SecData, Off: 0, Size: 3, Global: true},
			"$s": {Name: "$s", Kind: SymObject, Sec: SecROData, Off: 0, Size: 5},
		},
		GOT: []GOTEntry{
			{Sym: "f", Kind: GOTFunc, Slot: 0},
			{Sym: "g", Kind: GOTData, Slot: 2},
			{Sym: "$s", Kind: GOTData, Slot: 3},
		},
		GOTSlots:  4,
		CapRelocs: []CapReloc{{Off: 0, Target: "$s"}},
		Needed:    []string{"libc.so"},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	img := sample()
	b, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != img.Name || got.ABI != img.ABI || len(got.Code) != 4 || got.BSS != 64 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Lookup("f") == nil || got.Lookup("f").Kind != SymFunc {
		t.Fatal("symbol table lost")
	}
	if e := got.GOTEntryFor("g"); e == nil || e.Slot != 2 {
		t.Fatal("GOT lost")
	}
	if len(got.CapRelocs) != 1 || got.CapRelocs[0].Target != "$s" {
		t.Fatal("cap relocs lost")
	}
}

func TestLayoutPageSeparation(t *testing.T) {
	img := sample()
	l := img.Layout()
	if l.TextOff != 0 || l.TextSize != 16 {
		t.Fatalf("text: %+v", l)
	}
	for _, off := range []uint64{l.ROOff, l.GOTOff, l.DataOff, l.Total} {
		if off%vm.PageSize != 0 {
			t.Fatalf("offset %#x not page aligned", off)
		}
	}
	if !(l.TextOff < l.ROOff && l.ROOff < l.GOTOff && l.GOTOff < l.DataOff) {
		t.Fatalf("sections out of order: %+v", l)
	}
	if l.GOTSize != 4*16 {
		t.Fatalf("purecap GOT size = %d", l.GOTSize)
	}
	if l.DataSize != 3+64 {
		t.Fatalf("data size = %d", l.DataSize)
	}
}

func TestLayoutLegacySlotSize(t *testing.T) {
	img := sample()
	img.ABI = ABILegacy
	l := img.Layout()
	if l.GOTSize != 4*8 {
		t.Fatalf("legacy GOT size = %d", l.GOTSize)
	}
}

func TestGOTEntrySlots(t *testing.T) {
	if (GOTEntry{Kind: GOTFunc}).Slots() != 2 {
		t.Fatal("function descriptors take two slots")
	}
	if (GOTEntry{Kind: GOTData}).Slots() != 1 {
		t.Fatal("data entries take one slot")
	}
}

func TestABIHelpers(t *testing.T) {
	if ABICheri.PtrSize() != 16 || ABILegacy.PtrSize() != 8 {
		t.Fatal("pointer sizes wrong")
	}
	if ABICheri.String() != "cheriabi" || ABILegacy.String() != "mips64" {
		t.Fatal("ABI names wrong")
	}
	if SecText.String() != "text" || SecBSS.String() != "bss" {
		t.Fatal("section names wrong")
	}
}

func TestParseABI(t *testing.T) {
	for _, a := range []ABI{ABILegacy, ABICheri} {
		if got, err := ParseABI(a.String()); err != nil || got != a {
			t.Errorf("ParseABI(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	for _, s := range []string{"", "cheri", "CheriABI", "mips"} {
		_, err := ParseABI(s)
		if err == nil || !strings.Contains(err.Error(), "mips64 or cheriabi") {
			t.Errorf("ParseABI(%q) error = %v, want one naming the valid ABIs", s, err)
		}
	}
}

func TestEmptyImageLayout(t *testing.T) {
	img := &Image{Name: "empty", ABI: ABICheri}
	l := img.Layout()
	if l.Total == 0 {
		t.Fatal("empty image must still occupy a page")
	}
}
