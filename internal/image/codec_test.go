package image_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"cheriabi"
	"cheriabi/internal/image"
	"cheriabi/internal/workload"
)

var writeSeeds = flag.Bool("write-seeds", false, "rewrite testdata/fuzz/FuzzImageUnmarshal from the compiled corpus images")

// seedDir holds FuzzImageUnmarshal's committed seed corpus.
const seedDir = "testdata/fuzz/FuzzImageUnmarshal"

// unmarshalBytesPerByte bounds the bytes Unmarshal allocates per input
// byte, error or not. An input cannot buy more than its length supports:
// every count is checked against the bytes left, so the worst case is a
// symbol table of minimal seven-byte entries, whose slab entries, map
// slots and keys take about seventeen bytes of memory per input byte.
const unmarshalBytesPerByte = 24

// corpusImages compiles the images the seed corpus holds: every Figure 4
// program and library, the kernel-io programs and the load-generator
// pair, all under CheriABI.
func corpusImages(t testing.TB) []*cheriabi.Image {
	t.Helper()
	ws := append([]workload.Workload(nil), workload.Figure4...)
	ws = append(ws,
		workload.Workload{Name: "fileio-file", Src: workload.SrcFileIOBench},
		workload.Workload{Name: "fileio-pipe", Src: workload.SrcFileIOBench},
		workload.Workload{Name: "fileio-zero", Src: workload.SrcFileIOBench},
		workload.Workload{Name: "socket-echo", Src: workload.SrcSocketEchoBench},
		workload.Workload{Name: "syscall-write", Src: workload.SrcSyscallMicro},
		workload.Workload{Name: "poll-storm", Src: workload.SrcPollStormBench},
	)
	var imgs []*cheriabi.Image
	for _, w := range ws {
		exe, libs, err := workload.Build(w, workload.BuildOptions{ABI: cheriabi.ABICheri})
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(append(imgs, libs...), exe)
	}
	server, client, err := workload.LoadGenImages(cheriabi.ABICheri)
	if err != nil {
		t.Fatal(err)
	}
	return append(imgs, server, client)
}

// truncations are the cut points, as fractions of its length, at which
// the seed corpus also holds a prefix of its smallest image.
var truncations = []int{1, 5, 10, 25, 50, 75, 90, 99}

// TestImageSeedCorpus: every corpus image survives a marshal round trip
// byte for byte. With -write-seeds it rewrites the seed corpus from those
// images, plus prefixes of the smallest one.
func TestImageSeedCorpus(t *testing.T) {
	imgs := corpusImages(t)
	seeds := map[string][]byte{}
	var smallest []byte
	for _, img := range imgs {
		b, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := image.Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: %v", img.Name, err)
		}
		if re, err := back.Marshal(); err != nil || !bytes.Equal(re, b) {
			t.Fatalf("%s: re-marshal differs (%v)", img.Name, err)
		}
		seeds["img-"+img.Name] = b
		if smallest == nil || len(b) < len(smallest) {
			smallest = b
		}
	}
	for _, pct := range truncations {
		seeds[fmt.Sprintf("trunc-%02d", pct)] = smallest[:len(smallest)*pct/100]
	}
	if !*writeSeeds {
		return
	}
	if err := os.RemoveAll(seedDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(seedDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(seedDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzImageUnmarshal feeds Unmarshal arbitrary bytes, as a guest can by
// writing a file and execve-ing it. The only outcomes allowed are an
// error or an image that marshals back to exactly the input; neither may
// panic, and neither may allocate more than unmarshalBytesPerByte bytes
// per input byte. The seed corpus, in testdata/fuzz/FuzzImageUnmarshal,
// is every corpus image (see corpusImages) and prefixes of one of them.
func FuzzImageUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CELF\x01"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var img *image.Image
		var err error
		if n := fewestBytes(func() { img, err = image.Unmarshal(b) }); n > unmarshalBytesPerByte*uint64(len(b))+1024 {
			t.Fatalf("Unmarshal of %d bytes allocated %d bytes", len(b), n)
		}
		if err != nil {
			return
		}
		re, err := img.Marshal()
		if err != nil {
			t.Fatalf("decoded image does not marshal: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("decoded image marshals to different bytes:\n in  %q\n out %q", b, re)
		}
	})
}

// fewestBytes returns the fewest bytes any of three calls of f allocated.
// The allocation counter is the process's, and while fuzzing the engine
// allocates on other goroutines now and then; the fewest of three calls
// is f's own figure.
func fewestBytes(f func()) uint64 {
	var fewest uint64
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < fewest {
			fewest = n
		}
	}
	return fewest
}

// manySymbols is an image whose symbol map is large enough that two map
// iterations in the same order are vanishingly unlikely.
func manySymbols() *image.Image {
	img := &image.Image{Name: "many", ABI: image.ABICheri, Symbols: map[string]*image.Symbol{}}
	for i := range 64 {
		name := "sym" + strconv.Itoa(i)
		img.Symbols[name] = &image.Symbol{Name: name, Kind: image.SymKind(i % 2), Off: uint64(i) * 8, Size: 8}
		img.GOT = append(img.GOT, image.GOTEntry{Sym: name, Slot: i})
	}
	img.GOTSlots = len(img.GOT)
	return img
}

// TestImageMarshalDeterministic: an image has one encoding, whatever
// order its symbol map iterates in, so marshalling it again, or
// marshalling its decoded copy, gives the same bytes.
func TestImageMarshalDeterministic(t *testing.T) {
	img := manySymbols()
	first, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		b, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, first) {
			t.Fatalf("marshal %d differs from the first", i+1)
		}
	}
	back, err := image.Unmarshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := back.Marshal(); err != nil || !bytes.Equal(b, first) {
		t.Fatalf("the decoded copy marshals differently (%v)", err)
	}
}

// TestImageUnmarshalKeepsNil: a slice or map that is empty decodes as
// nil, as it did when images were stored with encoding/gob, so no reader
// sees an empty-but-allocated field that the old decoder never produced.
func TestImageUnmarshalKeepsNil(t *testing.T) {
	img := &image.Image{Name: "empty", Code: []uint32{}, ROData: []byte{}, Data: []byte{},
		Symbols: map[string]*image.Symbol{}, GOT: []image.GOTEntry{}, CapRelocs: []image.CapReloc{}, Needed: []string{}}
	b, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := image.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != nil || got.ROData != nil || got.Data != nil || got.Symbols != nil ||
		got.GOT != nil || got.CapRelocs != nil || got.Needed != nil {
		t.Fatalf("empty fields decode as non-nil: %+v", got)
	}
}

// TestImageUnmarshalRejects: malformed encodings are errors.
func TestImageUnmarshalRejects(t *testing.T) {
	valid, err := manySymbols().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("CELF\x02"), valid[5:]...),
		"trailing bytes": append(append([]byte(nil), valid...), 0),
		"overlong count": []byte("CELF\x01\x80\x00"),
		"huge count":     []byte("CELF\x01\x00\x00\xff\xff\xff\xff\x0f"),
		"bad bool":       append(append([]byte(nil), valid[:len(valid)-1]...), 2),
		"truncated":      valid[:len(valid)/2],
	} {
		if _, err := image.Unmarshal(b); err == nil {
			t.Errorf("%s: Unmarshal succeeded", name)
		} else if !strings.HasPrefix(err.Error(), "image: unmarshal: ") {
			t.Errorf("%s: error %q lacks the package prefix", name, err)
		}
	}
	dup := &image.Image{Symbols: map[string]*image.Symbol{"a": {Name: "a"}, "b": {Name: "b"}}}
	b, err := dup.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Rename the second key to the first: the table is no longer sorted.
	i := bytes.LastIndex(b, []byte{1, 'b', 1, 'b'})
	b[i+1], b[i+3] = 'a', 'a'
	if _, err := image.Unmarshal(b); err == nil {
		t.Error("duplicate symbol keys: Unmarshal succeeded")
	}
}

// TestImageUnmarshalAllocs pins the decoder's allocations on a kernel-io
// program: one per symbol name, the names the GOT and the capability
// relocations share with the symbol table allocating nothing, plus at
// most twelve for the image, its name and entry strings, its six slices,
// the symbol slab and the map's header and table.
func TestImageUnmarshalAllocs(t *testing.T) {
	exe, _, err := workload.Build(workload.Workload{Name: "fileio-file", Src: workload.SrcFileIOBench},
		workload.BuildOptions{ABI: cheriabi.ABICheri})
	if err != nil {
		t.Fatal(err)
	}
	b, err := exe.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := image.Unmarshal(b); err != nil {
			t.Fatal(err)
		}
	})
	limit := len(exe.Symbols) + len(exe.Needed) + 12
	t.Logf("%d symbols, %d GOT entries, %d relocations: %v allocations", len(exe.Symbols), len(exe.GOT), len(exe.CapRelocs), allocs)
	if allocs > float64(limit) {
		t.Errorf("Unmarshal allocates %v objects, want at most %d", allocs, limit)
	}
}
