package kernel

import (
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/nat"
)

// Unit tests for the File implementations, below the syscall layer.

func TestVnodeFileReadWriteSeekTruncate(t *testing.T) {
	node := &fsNode{name: "f", kind: nodeFile}
	v := &vnodeFile{node: node}

	if n, e := v.Write([]byte("hello world"), 0); n != 11 || e != OK {
		t.Fatalf("write: %d %v", n, e)
	}
	buf := make([]byte, 5)
	if n, e := v.Read(buf, 0); n != 5 || e != OK || string(buf) != "hello" {
		t.Fatalf("read: %d %v %q", n, e, buf)
	}
	if n, e := v.Read(buf, 6); n != 5 || e != OK || string(buf) != "world" {
		t.Fatalf("read at 6: %d %v %q", n, e, buf)
	}
	if n, e := v.Write([]byte("WORLD"), 6); n != 5 || e != OK {
		t.Fatalf("write at 6: %d %v", n, e)
	}
	if string(node.data) != "hello WORLD" {
		t.Fatalf("data %q", node.data)
	}
	// EOF.
	if n, e := v.Read(buf, 100); n != 0 || e != OK {
		t.Fatalf("read past EOF: %d %v", n, e)
	}
	// Truncate shrinks and grows zero-filled.
	if e := v.Truncate(5); e != OK {
		t.Fatal(e)
	}
	if e := v.Truncate(8); e != OK {
		t.Fatal(e)
	}
	if string(node.data) != "hello\x00\x00\x00" {
		t.Fatalf("after truncate: %q", node.data)
	}
	if e := v.Truncate(-1); e != EINVAL {
		t.Fatalf("negative truncate: %v", e)
	}
	if st := v.Stat(); st.Size != 8 || st.Kind != StatFile {
		t.Fatalf("stat %+v", st)
	}

	// The cursor is the descriptor's: write, lseek and read move it, and
	// an O_APPEND write snaps it to the end first.
	h := newIOProc(t, image.ABICheri)
	fd := h.open(v)
	if n, e := h.call(nat.SysWrite, []uint64{fd, 3}, []cap.Capability{h.buf}); n != 3 || e != OK {
		t.Fatalf("write: %d %v", n, e)
	}
	if pos, e := h.call(nat.SysLseek, []uint64{fd, 1, 1}, nil); pos != 4 || e != OK {
		t.Fatalf("lseek: %d %v", pos, e)
	}
	if n, e := h.call(nat.SysRead, []uint64{fd, 16}, []cap.Capability{h.buf}); n != 4 || e != OK {
		t.Fatalf("read to EOF from the cursor: %d %v", n, e)
	}
	h.th.Proc.fd(int(fd)).flags |= OAppend
	if _, e := h.call(nat.SysLseek, []uint64{fd, 0, 0}, nil); e != OK {
		t.Fatal(e)
	}
	if n, e := h.call(nat.SysWrite, []uint64{fd, 1}, []cap.Capability{h.buf}); n != 1 || e != OK {
		t.Fatalf("append write: %d %v", n, e)
	}
	if pos, _ := h.call(nat.SysLseek, []uint64{fd, 0, 1}, nil); len(node.data) != 9 || pos != 9 {
		t.Fatalf("append landed with size %d, cursor %d", len(node.data), pos)
	}
}

func TestVnodeFileOffsetBounds(t *testing.T) {
	node := &fsNode{name: "f", kind: nodeFile, data: []byte("abc")}
	v := &vnodeFile{node: node}

	// Guest-chosen offsets must not become unbounded host allocations or
	// overflowed slice bounds: past the size limit is EFBIG.
	if _, e := v.Write([]byte("x"), vnodeMaxBytes); e != EFBIG {
		t.Fatalf("write past max: %v", e)
	}
	if _, e := v.Write([]byte("xy"), int64(^uint64(0)>>1)); e != EFBIG {
		t.Fatalf("write at MaxInt64: %v", e)
	}
	if _, e := v.Write([]byte("x"), -1); e != EINVAL {
		t.Fatalf("write at -1: %v", e)
	}
	if e := v.Truncate(vnodeMaxBytes + 1); e != EFBIG {
		t.Fatalf("truncate past max: %v", e)
	}
	if len(node.data) != 3 {
		t.Fatalf("rejected writes changed the file: %q", node.data)
	}
	// A negative resulting position is EINVAL and leaves the cursor.
	h := newIOProc(t, image.ABICheri)
	fd := h.open(v)
	h.th.Proc.fd(int(fd)).off = 2
	for _, c := range []struct{ off, whence int64 }{{-5, 0}, {-10, 1}, {-99, 2}} {
		if _, e := h.call(nat.SysLseek, []uint64{fd, uint64(c.off), uint64(c.whence)}, nil); e != EINVAL {
			t.Fatalf("lseek(%d, %d) to a negative position: %v", c.off, c.whence, e)
		}
	}
	if off := h.th.Proc.fd(int(fd)).off; off != 2 {
		t.Fatalf("failed seek moved the cursor to %d", off)
	}
}

func TestPipeFileSemantics(t *testing.T) {
	pip := &pipe{readers: 1, writers: 1}
	r := &pipeFile{pip: pip}
	w := &pipeFile{pip: pip, writeEnd: true}

	// Wrong-direction transfers fail even below the access-mode check.
	if _, e := r.Write([]byte("x"), 0); e != EBADF {
		t.Fatalf("write to read end: %v", e)
	}
	if _, e := w.Read(make([]byte, 1), 0); e != EBADF {
		t.Fatalf("read from write end: %v", e)
	}
	// Pipes have no positions: pread and pwrite are ESPIPE.
	if positional(r, r.Stat()) || positional(w, w.Stat()) {
		t.Fatal("a pipe end accepts positional I/O")
	}
	// Data round trip; a full pipe accepts a short count.
	if n, e := w.Write([]byte("abc"), 0); n != 3 || e != OK {
		t.Fatalf("write: %d %v", n, e)
	}
	big := make([]byte, pipeCap)
	n, e := w.Write(big, 0)
	if e != OK || n != pipeCap-3 {
		t.Fatalf("short write into a filling pipe: %d %v", n, e)
	}
	buf := make([]byte, 3)
	if n, e := r.Read(buf, 0); n != 3 || e != OK || string(buf) != "abc" {
		t.Fatalf("read: %d %v %q", n, e, buf)
	}
	// Reader-less pipe: EPIPE.
	pip.readers = 0
	if _, e := w.Write([]byte("x"), 0); e != EPIPE {
		t.Fatalf("write to readerless pipe: %v", e)
	}
	// Writer close transitions EOF readiness.
	pip2 := &pipe{readers: 1, writers: 1}
	r2 := &pipeFile{pip: pip2}
	w2 := &pipeFile{pip: pip2, writeEnd: true}
	if r2.Poll(PollIn) {
		t.Fatal("empty pipe with a writer polled readable")
	}
	w2.Close(nil) // nil kernel: the pipe's wait queue is empty
	if pip2.writers != 0 {
		t.Fatal("writer count not dropped")
	}
	if !r2.Poll(PollIn) {
		t.Fatal("writer-less pipe must poll readable (EOF)")
	}
	if n, e := r2.Read(buf, 0); n != 0 || e != OK {
		t.Fatalf("EOF read: %d %v", n, e)
	}
	if st := r2.Stat(); st.Kind != StatPipe {
		t.Fatalf("stat %+v", st)
	}
}

func TestDeviceFiles(t *testing.T) {
	b := []byte{1, 2, 3, 4}

	var z zeroFile
	if n, e := z.Read(b, 0); n != 4 || e != OK {
		t.Fatalf("zero read: %d %v", n, e)
	}
	for _, v := range b {
		if v != 0 {
			t.Fatalf("zero read produced %v", b)
		}
	}
	if n, e := z.Write(b, 0); n != 4 || e != OK {
		t.Fatalf("zero write: %d %v", n, e)
	}

	var nl nullFile
	if n, e := nl.Read(b, 0); n != 0 || e != OK {
		t.Fatalf("null read: %d %v", n, e)
	}
	if n, e := nl.Write(b, 7); n != 4 || e != OK {
		t.Fatalf("null write at 7: %d %v", n, e)
	}
	if !positional(nl, nl.Stat()) || seekable(nl.Stat()) {
		t.Fatal("/dev/null must take pread/pwrite and refuse lseek")
	}

	// Directories read as a sorted dirent stream; writes stay EISDIR.
	dn := &fsNode{name: "d", kind: nodeDir, children: map[string]*fsNode{
		"zz":  {name: "zz", kind: nodeFile},
		"aa":  {name: "aa", kind: nodeDir, children: map[string]*fsNode{}},
		"dev": {name: "dev", kind: nodeDev},
	}}
	d := newDirFile(dn)
	ents := make([]byte, 4*direntSize)
	if n, e := d.Read(ents, 0); n != 3*direntSize || e != OK {
		t.Fatalf("dir read: %d %v", n, e)
	}
	names := []string{"aa", "dev", "zz"}
	kinds := []uint64{StatDir, StatDev, StatFile}
	for i, want := range names {
		rec := ents[i*direntSize:]
		end := 8
		for rec[end] != 0 {
			end++
		}
		if got := string(rec[8:end]); got != want {
			t.Fatalf("dirent %d name %q, want %q", i, got, want)
		}
		if got := uint64(rec[0]); got != kinds[i] {
			t.Fatalf("dirent %d kind %d, want %d", i, got, kinds[i])
		}
	}
	if n, e := d.Read(ents, 3*direntSize); n != 0 || e != OK {
		t.Fatalf("dir read at end: %d %v", n, e)
	}
	if n, e := d.Read(ents, -1); n != 0 || e != EINVAL {
		t.Fatalf("dir read at -1: %d %v", n, e)
	}
	if n, _ := d.Read(ents[:direntSize], direntSize); n != direntSize || ents[8] != 'd' {
		t.Fatalf("read of the second record: %d %q", n, ents[8:11])
	}
	if _, e := d.Write(b, 0); e != EISDIR {
		t.Fatalf("dir write: %v", e)
	}
	if st := d.Stat(); st.Kind != StatDir || st.Size != 3*direntSize {
		t.Fatalf("dir stat %+v", st)
	}

	// kqueue descriptors reject transfers and have no positions.
	kf := &kqueueFile{}
	if _, e := kf.Read(b, 0); e != EBADF {
		t.Fatalf("kqueue read: %v", e)
	}
	if positional(kf, kf.Stat()) || seekable(kf.Stat()) {
		t.Fatal("a kqueue accepts positioned I/O")
	}
	if st := kf.Stat(); st.Kind != StatKqueue {
		t.Fatalf("kqueue stat %+v", st)
	}
}

func TestUrandomDeterministicPerSeed(t *testing.T) {
	read16 := func(cfg Config) [16]byte {
		m := NewMachine(cfg)
		uf := &urandomFile{k: m.Kern}
		var out [16]byte
		if n, e := uf.Read(out[:], 0); n != 16 || e != OK {
			t.Fatalf("urandom read: %d %v", n, e)
		}
		return out
	}
	a := read16(Config{MemBytes: 16 << 20, Seed: 7})
	b := read16(Config{MemBytes: 16 << 20, Seed: 7})
	if a != b {
		t.Fatal("same boot seed produced different urandom streams")
	}
	c := read16(Config{MemBytes: 16 << 20, Seed: 8})
	if a == c {
		t.Fatal("different boot seeds produced the same urandom stream")
	}
	d := read16(Config{MemBytes: 16 << 20, Seed: 7, UrandomSeed: 0xDEADBEEF})
	if a == d {
		t.Fatal("explicit UrandomSeed did not override the derived stream")
	}
	e := read16(Config{MemBytes: 16 << 20, Seed: 9, UrandomSeed: 0xDEADBEEF})
	if d != e {
		t.Fatal("explicit UrandomSeed must pin the stream across boot seeds")
	}
	// Adjacent even/odd seeds are distinct states (regression: the state
	// must not be rounded onto a shared odd value).
	ev := read16(Config{MemBytes: 16 << 20, UrandomSeed: 0xDEADBEE0})
	od := read16(Config{MemBytes: 16 << 20, UrandomSeed: 0xDEADBEE1})
	if ev == od {
		t.Fatal("adjacent UrandomSeeds collapsed onto one stream")
	}
	// The stream advances: successive reads differ.
	m := NewMachine(Config{MemBytes: 16 << 20, Seed: 7})
	uf := &urandomFile{k: m.Kern}
	var x, y [16]byte
	uf.Read(x[:], 0)
	uf.Read(y[:], 0)
	if x == y {
		t.Fatal("urandom stream did not advance between reads")
	}
}

func TestAccessModeHelpers(t *testing.T) {
	cases := []struct {
		flags  int
		rd, wr bool
	}{
		{ORdOnly, true, false},
		{OWrOnly, false, true},
		{ORdWr, true, true},
		{ORdOnly | OCreat | OTrunc, true, false},
		{OWrOnly | OAppend, false, true},
	}
	for _, c := range cases {
		f := &FDesc{flags: c.flags}
		if f.mayRead() != c.rd || f.mayWrite() != c.wr {
			t.Fatalf("flags %#x: mayRead=%v mayWrite=%v", c.flags, f.mayRead(), f.mayWrite())
		}
	}
}
