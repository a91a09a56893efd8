// Package uaccess is the unified capability-checked user-memory access
// subsystem: the single layer through which all kernel- and runtime-
// initiated guest-memory access flows. It implements the paper's §5.2
// contract — copyin/copyout derive their authority from the presented
// capability, never from kernel ambient authority — exactly once, so the
// check-then-access discipline is auditable in one place instead of being
// re-implemented by every syscall handler and libc native.
//
// Every operation follows the same shape:
//
//  1. validate the authorizing capability once for the whole access
//     (tag, seal, permissions, bounds via cap.CheckDeref);
//  2. walk the access in page runs, translating each page once through
//     the CPU's micro-TLB and charging the cache model once per run
//     (one cache.Hierarchy.Data call covering every line of the run);
//  3. move whole runs with memmove-style bulk operations on tagged
//     physical memory (the fast path), or byte-at-a-time (the slow
//     path, the one the CPU's Reference switch selects).
//
// The two paths are observation-equivalent by construction: they perform
// identical capability checks, identical translations, identical cache
// charges, and leave identical memory (including partial progress when a
// page fault interrupts a copy — both paths stop at the same page-run
// boundary). The top-level differential matrix runs every workload and
// bodiag program under both settings and requires bit-identical Stats,
// output, and trap sequences.
package uaccess

import (
	"bytes"
	"errors"

	"cheriabi/internal/cap"
	"cheriabi/internal/cpu"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

// ErrTooLong is returned by CString when no NUL terminator appears within
// the caller's limit. Kernel callers map it to ERANGE; libc callers treat
// it as the unterminated-string fault a compiled strlen would take.
var ErrTooLong = errors.New("uaccess: string exceeds limit")

// Stats counts uaccess activity. Like the CPU's DecodeStats these are
// simulator bookkeeping, not architectural state: the differential suite
// uses them to prove the Reference switch is actually honoured (a
// reference run must never move a bulk run, and vice versa).
type Stats struct {
	FastRuns uint64 // page runs moved by bulk memmove
	SlowRuns uint64 // page runs moved byte-at-a-time
}

// Space provides capability-checked bulk access to the guest memory of
// the address space currently on the CPU. One Space serves a whole
// machine: it holds no per-process state, because the authority for every
// access is the capability presented with it. The CPU's Reference switch
// selects the movement strategy; checks, translations, cache charges, and
// resulting memory are identical either way.
type Space struct {
	CPU *cpu.CPU

	// Stats counts page runs per movement strategy (non-architectural).
	Stats Stats
}

// countRun records which strategy moved a page run.
func (u *Space) countRun() {
	if u.CPU.Reference {
		u.Stats.SlowRuns++
	} else {
		u.Stats.FastRuns++
	}
}

// run is one page run of an access: cnt bytes at physical address pa,
// off bytes into the overall access.
type run struct {
	pa, off, cnt uint64
}

// forRuns walks [va, va+n) in page runs, translating each page once and
// charging the data-cache model once per run, then hands the run to fn.
// A translation fault stops the walk — earlier runs have already been
// moved, preserving the byte-loop's partial-progress semantics — and is
// returned as the access error.
func (u *Space) forRuns(va, n uint64, access vm.Prot, write bool, fn func(r run) error) error {
	c := u.CPU
	for done := uint64(0); done < n; {
		pa, pf := c.TranslateData(va+done, access)
		if pf != nil {
			return pf
		}
		cnt := vm.PageSize - (va+done)%vm.PageSize
		if cnt > n-done {
			cnt = n - done
		}
		c.Stats.Cycles += c.Hier.Data(pa, cnt, write)
		u.countRun()
		if err := fn(run{pa: pa, off: done, cnt: cnt}); err != nil {
			return err
		}
		done += cnt
	}
	return nil
}

// Read copies len(buf) bytes from guest memory at va into buf, authorized
// by auth (kernel copyin). Tags never cross this interface: copied
// capabilities arrive as bare bytes, the paper's default tag-stripping
// for user/kernel copies. The capability is validated once for the whole
// range; a page fault mid-copy leaves the bytes of earlier runs in buf.
func (u *Space) Read(auth cap.Capability, va uint64, buf []byte) error {
	n := uint64(len(buf))
	if n == 0 {
		return nil
	}
	if err := auth.CheckDeref(va, n, cap.PermLoad); err != nil {
		return err
	}
	m := u.CPU.Mem
	return u.forRuns(va, n, vm.ProtRead, false, func(r run) error {
		if u.CPU.Reference {
			for i := uint64(0); i < r.cnt; i++ {
				buf[r.off+i] = byte(m.Load(r.pa+i, 1))
			}
			return nil
		}
		m.ReadBytes(r.pa, buf[r.off:r.off+r.cnt])
		return nil
	})
}

// Write copies data into guest memory at va, authorized by auth (kernel
// copyout). The written granules lose any tags, as with any data store.
// A page fault mid-copy leaves earlier runs written (partial progress),
// exactly as the byte loop would.
func (u *Space) Write(auth cap.Capability, va uint64, data []byte) error {
	n := uint64(len(data))
	if n == 0 {
		return nil
	}
	if err := auth.CheckDeref(va, n, cap.PermStore); err != nil {
		return err
	}
	m := u.CPU.Mem
	return u.forRuns(va, n, vm.ProtWrite, true, func(r run) error {
		if u.CPU.Reference {
			for i := uint64(0); i < r.cnt; i++ {
				m.Store(r.pa+i, 1, uint64(data[r.off+i]))
			}
			return nil
		}
		m.WriteBytes(r.pa, data[r.off:r.off+r.cnt])
		return nil
	})
}

// Zero clears n bytes of guest memory at va (calloc, demand-zero-style
// runtime clearing). Equivalent to Write of zeroes without materializing
// a zero buffer: untouched chunks of lazily allocated physical memory
// stay unmaterialized on the fast path.
func (u *Space) Zero(auth cap.Capability, va, n uint64) error {
	if n == 0 {
		return nil
	}
	if err := auth.CheckDeref(va, n, cap.PermStore); err != nil {
		return err
	}
	m := u.CPU.Mem
	return u.forRuns(va, n, vm.ProtWrite, true, func(r run) error {
		if u.CPU.Reference {
			for i := uint64(0); i < r.cnt; i++ {
				m.Store(r.pa+i, 1, 0)
			}
			return nil
		}
		m.Zero(r.pa, r.cnt)
		return nil
	})
}

// Fill stores n copies of v at va (memset).
func (u *Space) Fill(auth cap.Capability, va uint64, v byte, n uint64) error {
	if n == 0 {
		return nil
	}
	if err := auth.CheckDeref(va, n, cap.PermStore); err != nil {
		return err
	}
	m := u.CPU.Mem
	return u.forRuns(va, n, vm.ProtWrite, true, func(r run) error {
		if u.CPU.Reference {
			for i := uint64(0); i < r.cnt; i++ {
				m.Store(r.pa+i, 1, uint64(v))
			}
			return nil
		}
		m.Fill(r.pa, r.cnt, v)
		return nil
	})
}

// CString reads a NUL-terminated guest string starting at va, scanning at
// most max bytes (terminator included). It returns ErrTooLong if no NUL
// appears within the limit. The walk is page-run based, but the
// capability check, translation, and cache charge cover only the bytes
// actually scanned — up to and including the NUL — so faults land exactly
// where a byte-at-a-time walk would take them: a string that terminates
// inside the capability's bounds never faults, and one that runs off the
// end faults at the first out-of-bounds byte.
func (u *Space) CString(auth cap.Capability, va uint64, max uint64) (string, error) {
	c := u.CPU
	m := c.Mem
	var out []byte
	var page [vm.PageSize]byte
	for scanned := uint64(0); scanned < max; {
		cur := va + scanned
		// The per-run capability check is for a single byte — the byte a
		// byte-loop would fault on — then the run is clamped to the
		// capability's remaining bounds so no byte past them is touched.
		if err := auth.CheckDeref(cur, 1, cap.PermLoad); err != nil {
			return "", err
		}
		cnt := vm.PageSize - cur%vm.PageSize
		if rem := auth.Top() - cur; cnt > rem {
			cnt = rem
		}
		if rem := max - scanned; cnt > rem {
			cnt = rem
		}
		pa, pf := c.TranslateData(cur, vm.ProtRead)
		if pf != nil {
			return "", pf
		}
		u.countRun()
		var idx int
		if u.CPU.Reference {
			idx = -1
			for i := uint64(0); i < cnt; i++ {
				page[i] = byte(m.Load(pa+i, 1))
				if page[i] == 0 {
					idx = int(i)
					break
				}
			}
		} else {
			m.ReadBytes(pa, page[:cnt])
			idx = bytes.IndexByte(page[:cnt], 0)
		}
		if idx >= 0 {
			c.Stats.Cycles += c.Hier.Data(pa, uint64(idx)+1, false)
			return string(append(out, page[:idx]...)), nil
		}
		c.Stats.Cycles += c.Hier.Data(pa, cnt, false)
		out = append(out, page[:cnt]...)
		scanned += cnt
	}
	return "", ErrTooLong
}

// Copy moves n bytes from (src, srcVA) to (dst, dstVA) with memmove
// semantics (overlap-safe: the source is read in full before the
// destination is written). Capability tags are preserved for
// capability-granule-aligned spans when the source grants PermLoadCap and
// the destination grants PermStoreCap+PermStoreLocalCap — the paper's
// "capabilities are maintained across explicit and implied memory copies"
// — and are stripped otherwise, exactly as a data copy strips them. Both
// capabilities are validated once for the whole range before any byte
// moves.
func (u *Space) Copy(dst cap.Capability, dstVA uint64, src cap.Capability, srcVA, n uint64) error {
	if n == 0 {
		return nil
	}
	if err := src.CheckDeref(srcVA, n, cap.PermLoad); err != nil {
		return err
	}
	if err := dst.CheckDeref(dstVA, n, cap.PermStore); err != nil {
		return err
	}
	m := u.CPU.Mem
	const g = cap.Bytes

	// Tag preservation needs matching granule alignment on both sides and
	// the capability-copy permissions; otherwise this is a data copy and
	// the destination granules lose their tags like any data store.
	// PermStoreLocalCap is checked per tagged value below, not here: it
	// only gates storing *non-global* capabilities, exactly as a
	// capability-width store instruction would enforce it.
	preserve := srcVA%g == 0 && dstVA%g == 0 && n >= g &&
		src.HasPerm(cap.PermLoadCap) && dst.HasPerm(cap.PermStoreCap)
	nAligned := uint64(0)
	if preserve {
		nAligned = n &^ (g - 1)
	}

	buf := make([]byte, n)
	var tags []bool
	if preserve {
		tags = make([]bool, nAligned/g)
	}

	// Load phase: source page runs. Page runs of the aligned span start
	// and end granule-aligned (pages are granule multiples), so per-run
	// tag extraction lines up.
	err := u.forRuns(srcVA, n, vm.ProtRead, false, func(r run) error {
		if u.CPU.Reference {
			for i := uint64(0); i < r.cnt; i++ {
				buf[r.off+i] = byte(m.Load(r.pa+i, 1))
			}
			if preserve {
				for o := r.off; o < r.off+r.cnt && o < nAligned; o += g {
					tags[o/g] = m.Tag(r.pa + (o - r.off))
				}
			}
			return nil
		}
		m.ReadBytes(r.pa, buf[r.off:r.off+r.cnt])
		if preserve && r.off < nAligned {
			end := r.off + r.cnt
			if end > nAligned {
				end = nAligned
			}
			copy(tags[r.off/g:end/g], m.ExtractTags(r.pa, end-r.off))
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Storing a tagged non-global capability requires PermStoreLocalCap
	// on the destination, as StoreCapVia enforces per store. Checked here
	// — after the load, before any byte lands — so the fast and slow
	// movement paths fault identically.
	if preserve && !dst.HasPerm(cap.PermStoreLocalCap) {
		for o := uint64(0); o < nAligned; o += g {
			if !tags[o/g] {
				continue
			}
			if v := cap.Decode(buf[o:o+g], true); !v.HasPerm(cap.PermGlobal) {
				return &cap.Fault{Cause: cap.FaultUnderivedLocal, Cap: dst, Addr: dstVA + o, Size: g}
			}
		}
	}

	// Store phase: destination page runs.
	return u.forRuns(dstVA, n, vm.ProtWrite, true, func(r run) error {
		if u.CPU.Reference {
			for o := r.off; o < r.off+r.cnt; {
				if preserve && o < nAligned {
					m.StoreCap(r.pa+(o-r.off), buf[o:o+g], tags[o/g])
					o += g
					continue
				}
				m.Store(r.pa+(o-r.off), 1, uint64(buf[o]))
				o++
			}
			return nil
		}
		end := r.off + r.cnt
		if preserve && r.off < nAligned {
			tEnd := end
			if tEnd > nAligned {
				tEnd = nAligned
			}
			m.WriteTagged(r.pa, buf[r.off:tEnd], tags[r.off/g:tEnd/g])
			if tEnd < end {
				m.WriteBytes(r.pa+(tEnd-r.off), buf[tEnd:end])
			}
			return nil
		}
		m.WriteBytes(r.pa, buf[r.off:end])
		return nil
	})
}

// WriteAS writes raw bytes into an address space that need not be the one
// currently on the CPU — the kernel building a fresh image during execve,
// or the run-time linker copying segments before the process exists.
// These are kernel-internal construction writes: there is no user
// capability to check and no cycle model to charge (the paper's exec cost
// constant covers them); the pages must already be mapped.
func WriteAS(m *mem.Physical, as *vm.AddressSpace, va uint64, b []byte) error {
	for len(b) > 0 {
		pa, pf := as.Translate(va, vm.ProtRead) // prot is checked at map time; data may target RO pages
		if pf != nil {
			return pf
		}
		cnt := vm.PageSize - va%vm.PageSize
		if cnt > uint64(len(b)) {
			cnt = uint64(len(b))
		}
		m.WriteBytes(pa, b[:cnt])
		b = b[cnt:]
		va += cnt
	}
	return nil
}

// WriteWordAS writes the 8-byte word v at va into as, as WriteAS writes
// bytes.
func WriteWordAS(m *mem.Physical, as *vm.AddressSpace, va, v uint64) error {
	pa, pf := as.Translate(va, vm.ProtRead)
	if pf != nil {
		return pf
	}
	m.Store(pa, 8, v)
	return nil
}

// WriteCapAS writes c, tag included, at the capability-aligned va into
// as, as WriteAS writes bytes.
func WriteCapAS(m *mem.Physical, as *vm.AddressSpace, va uint64, c cap.Capability) error {
	pa, pf := as.Translate(va, vm.ProtRead)
	if pf != nil {
		return pf
	}
	var buf [cap.Bytes]byte
	cap.Encode(c, buf[:])
	m.StoreCap(pa, buf[:], c.Tag())
	return nil
}
