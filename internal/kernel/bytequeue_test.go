package kernel

import "testing"

// TestByteQueuesCompactInPlace: partial writes and reads of varying
// sizes, interleaved, move more than ten times the buffer bound through
// a pipe and through an AF_UNIX socket pair. Every byte must come out in
// the order it went in, and the buffer's array must never grow past the
// bound (pipeCap, sockCap), however the unread bytes sit in it.
func TestByteQueuesCompactInPlace(t *testing.T) {
	pip := &pipe{readers: 1, writers: 1}
	s1, s2 := newSocketFile(nil, AFUnix), newSocketFile(nil, AFUnix)
	wireSockets(s1, s2, &WaitQueue{})
	for _, tc := range []struct {
		name  string
		w, r  File
		buf   func() []byte
		limit int
	}{
		{"pipe", &pipeFile{pip: pip, writeEnd: true}, &pipeFile{pip: pip}, func() []byte { return pip.buf }, pipeCap},
		{"AF_UNIX", s1, s2, func() []byte { return s1.send.data }, sockCap},
	} {
		var f FDesc
		writeSizes := []int{1000, 7919, 30000, 65536, 12, 40000}
		readSizes := []int{513, 20000, 64, 65536, 9000}
		out := make([]byte, 1<<17)
		var sent, got, step int
		for got < 10*tc.limit+1 {
			in := make([]byte, writeSizes[step%len(writeSizes)])
			for i := range in {
				in[i] = byte((sent + i) % 251)
			}
			n, e := tc.w.Write(&f, in)
			if e != OK {
				t.Fatalf("%s: write: errno %v", tc.name, e)
			}
			sent += n
			if c := cap(tc.buf()); c > tc.limit {
				t.Fatalf("%s: buffer capacity %d after a write, bound %d", tc.name, c, tc.limit)
			}
			n, e = tc.r.Read(&f, out[:readSizes[step%len(readSizes)]])
			if e != OK {
				t.Fatalf("%s: read: errno %v", tc.name, e)
			}
			for i, b := range out[:n] {
				if want := byte((got + i) % 251); b != want {
					t.Fatalf("%s: byte %d = %d, want %d", tc.name, got+i, b, want)
				}
			}
			got += n
			if len(tc.buf()) != sent-got {
				t.Fatalf("%s: %d bytes buffered, want %d", tc.name, len(tc.buf()), sent-got)
			}
			step++
		}
	}
}
