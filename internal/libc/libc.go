// Package libc is the guest C runtime, implemented as "fast model"
// natives: the bodies run as host code, but every byte they touch moves
// through the same capability- and MMU-checked accessors as guest
// instructions, so library-level bounds violations (memcpy beyond a heap
// allocation, string walks off the end of a buffer) trap exactly as they
// would with a compiled C library.
package libc

import (
	"fmt"
	"strconv"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/kernel"
	"cheriabi/internal/nat"
)

// Runtime holds per-process allocator and PRNG state.
type Runtime struct {
	k     *kernel.Kernel
	heaps map[int]*heap
	tls   map[int]cap.Capability // per-thread TLS blocks
	seed  map[int]uint64         // per-process rand state
}

// Install registers the C runtime natives with the kernel and returns the
// runtime handle.
func Install(k *kernel.Kernel) *Runtime {
	rt := &Runtime{
		k:     k,
		heaps: map[int]*heap{},
		tls:   map[int]cap.Capability{},
		seed:  map[int]uint64{},
	}
	reg := func(id int, fn func(*kernel.Thread, *kernel.SysArgs) (cap.Capability, kernel.Errno)) {
		k.Natives[id] = func(_ *kernel.Kernel, t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
			k.M.CPU.Stats.Cycles += 20 // call/return overhead of the library routine
			return fn(t, a)
		}
	}
	reg(nat.Malloc, rt.nMalloc)
	reg(nat.Free, rt.nFree)
	reg(nat.Realloc, rt.nRealloc)
	reg(nat.Calloc, rt.nCalloc)
	reg(nat.Memcpy, rt.nMemcpy)
	reg(nat.Memmove, rt.nMemcpy) // the simulator's memcpy is already safe for overlap
	reg(nat.Memset, rt.nMemset)
	reg(nat.Memcmp, rt.nMemcmp)
	reg(nat.Strlen, rt.nStrlen)
	reg(nat.Strcpy, rt.nStrcpy)
	reg(nat.Strncpy, rt.nStrncpy)
	reg(nat.Strcmp, rt.nStrcmp)
	reg(nat.Strncmp, rt.nStrncmp)
	reg(nat.Strcat, rt.nStrcat)
	reg(nat.Strchr, rt.nStrchr)
	reg(nat.Qsort, rt.nQsort)
	reg(nat.Printf, rt.nPrintf)
	reg(nat.Snprintf, rt.nSnprintf)
	reg(nat.Puts, rt.nPuts)
	reg(nat.Putchar, rt.nPutchar)
	reg(nat.Atoi, rt.nAtoi)
	reg(nat.Rand, rt.nRand)
	reg(nat.Srand, rt.nSrand)
	reg(nat.Abort, rt.nAbort)
	reg(nat.Getenv, rt.nGetenv)
	reg(nat.TLSGet, rt.nTLSGet)
	reg(nat.AsanReport, rt.nAsanReport)
	return rt
}

func (rt *Runtime) heap(t *kernel.Thread) *heap {
	p := t.Proc
	h, ok := rt.heaps[p.PID]
	if !ok || h.p != p {
		asan := false
		if p.Linked != nil && p.Linked.Exec != nil {
			asan = p.Linked.Exec.Img.ASan
		}
		h = newHeap(rt.k, p, asan)
		rt.heaps[p.PID] = h
	}
	return h
}

func (rt *Runtime) cheri(t *kernel.Thread) bool { return t.Proc.ABI == image.ABICheri }

// HeapBytes reports live heap bytes for a process (tests and stats).
func (rt *Runtime) HeapBytes(pid int) uint64 {
	if h, ok := rt.heaps[pid]; ok {
		return h.bytes
	}
	return 0
}

// ---- allocator ----

func (rt *Runtime) nMalloc(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	n := a.Int(0)
	c, errno := rt.heap(t).Malloc(n)
	if errno != kernel.OK {
		return kernel.Err(errno)
	}
	rt.k.M.Kern.OnMallocTrace(c)
	return c, kernel.OK
}

func (rt *Runtime) nCalloc(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	n := a.Int(0) * a.Int(1)
	c, errno := rt.heap(t).Malloc(n)
	if errno != kernel.OK {
		return kernel.Err(errno)
	}
	// Freshly mapped chunks are demand-zero, but recycled blocks are not.
	if err := rt.k.M.UA.Zero(c, c.Base(), n); err != nil {
		return kernel.Err(kernel.EFAULT)
	}
	rt.k.M.Kern.OnMallocTrace(c)
	return c, kernel.OK
}

func (rt *Runtime) nFree(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	ptr := a.Ptr(0)
	rt.heap(t).Free(ptr, rt.cheri(t))
	return kernel.Ret(0)
}

func (rt *Runtime) nRealloc(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	old := a.Ptr(0)
	n := a.Int(0)
	h := rt.heap(t)
	nc, errno := h.Malloc(n)
	if errno != kernel.OK {
		return kernel.Err(errno)
	}
	if old.Addr() != 0 {
		if blk, ok := h.Lookup(old.Addr()); ok {
			copyN := blk.req
			if copyN > n {
				copyN = n
			}
			// Tag-preserving copy via the allocator's inner capability,
			// mirroring jemalloc's internal rederivation on realloc.
			if err := rt.copyGuest(nc, nc.Base(), blk.inner, old.Addr(), copyN); err != nil {
				return kernel.Err(kernel.EFAULT)
			}
			h.Free(old, rt.cheri(t))
		}
	}
	rt.k.M.Kern.OnMallocTrace(nc)
	return nc, kernel.OK
}

// ---- memory/string ----

// copyGuest copies n bytes through the uaccess bulk engine, preserving
// capability tags for aligned capability-sized spans ("Architectural
// capabilities are maintained across various low-level C idioms including
// explicit and implied memory copies"). The copy is memmove-like
// (overlap-safe), which is why the simulator's memcpy and memmove share
// one implementation.
func (rt *Runtime) copyGuest(dst cap.Capability, dstVA uint64, src cap.Capability, srcVA, n uint64) error {
	return rt.k.M.UA.Copy(dst, dstVA, src, srcVA, n)
}

// asanViolates checks the shadow of [addr, addr+n) for ASan processes,
// standing in for the libc interceptors real AddressSanitizer ships.
func (rt *Runtime) asanViolates(t *kernel.Thread, addr, n uint64) bool {
	if !rt.heap(t).asan || n == 0 {
		return false
	}
	p := t.Proc
	end := addr + n
	for g := addr &^ 7; g < end; g += 8 {
		sva := uint64(kernel.AsanShadowBase) + g>>3
		pa, pf := p.AS.Translate(sva, 0x1) // ProtRead
		if pf != nil {
			continue // unmapped shadow: let the real access fault
		}
		k := rt.k.M.Mem.Load(pa, 1)
		if k == 0 {
			continue
		}
		if k >= 8 {
			return true
		}
		// Partial granule: violation if the access reaches past byte k.
		hi := end
		if g+8 < hi {
			hi = g + 8
		}
		if hi-g > k {
			return true
		}
	}
	return false
}

func (rt *Runtime) asanIntercept(t *kernel.Thread, ranges ...[2]uint64) bool {
	for _, r := range ranges {
		if rt.asanViolates(t, r[0], r[1]) {
			rt.nAsanReport(t, nil)
			return true
		}
	}
	return false
}

func (rt *Runtime) nMemcpy(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	dst := a.Ptr(0)
	src := a.Ptr(1)
	n := a.Int(0)
	if rt.asanIntercept(t, [2]uint64{dst.Addr(), n}, [2]uint64{src.Addr(), n}) {
		return cap.Null(), kernel.OK // the report aborted the process
	}
	if err := rt.copyGuest(dst, dst.Addr(), src, src.Addr(), n); err != nil {
		return rt.memFault(t, err)
	}
	return dst, kernel.OK
}

// memFault converts an access error inside a native into the fault the
// equivalent compiled code would have taken: the process dies on SIGPROT
// (capability) or SIGSEGV (paging).
func (rt *Runtime) memFault(t *kernel.Thread, err error) (cap.Capability, kernel.Errno) {
	if _, ok := err.(*cap.Fault); ok {
		rt.k.PostSignal(t.Proc, kernel.SIGPROT)
	} else {
		rt.k.PostSignal(t.Proc, kernel.SIGSEGV)
	}
	return kernel.Err(kernel.EFAULT)
}

func (rt *Runtime) nMemset(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	dst := a.Ptr(0)
	v := byte(a.Int(0))
	n := a.Int(1)
	if rt.asanIntercept(t, [2]uint64{dst.Addr(), n}) {
		return cap.Null(), kernel.OK // the report aborted the process
	}
	if err := rt.k.M.UA.Fill(dst, dst.Addr(), v, n); err != nil {
		return rt.memFault(t, err)
	}
	return dst, kernel.OK
}

func (rt *Runtime) nMemcmp(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	s1, s2 := a.Ptr(0), a.Ptr(1)
	n := a.Int(0)
	c := rt.k.M.CPU
	for i := uint64(0); i < n; i++ {
		va, err := c.LoadVia(s1, s1.Addr()+i, 1)
		if err != nil {
			return rt.memFault(t, err)
		}
		vb, err := c.LoadVia(s2, s2.Addr()+i, 1)
		if err != nil {
			return rt.memFault(t, err)
		}
		if va != vb {
			return kernel.Ret(uint64(int64(va) - int64(vb)))
		}
	}
	return kernel.Ret(0)
}

// readCStr walks a guest string through its capability via the uaccess
// page-run scanner (bounded at 1 MiB, standing in for an unterminated-
// string runaway).
func (rt *Runtime) readCStr(auth cap.Capability, va uint64) (string, error) {
	return rt.k.M.UA.CString(auth, va, 1<<20)
}

func (rt *Runtime) nStrlen(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	s := a.Ptr(0)
	str, err := rt.readCStr(s, s.Addr())
	if err != nil {
		return rt.memFault(t, err)
	}
	return kernel.Ret(uint64(len(str)))
}

func (rt *Runtime) nStrcpy(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	dst := a.Ptr(0)
	src := a.Ptr(1)
	str, err := rt.readCStr(src, src.Addr())
	if err != nil {
		return rt.memFault(t, err)
	}
	if err := rt.k.M.UA.Write(dst, dst.Addr(), append([]byte(str), 0)); err != nil {
		return rt.memFault(t, err)
	}
	return dst, kernel.OK
}

func (rt *Runtime) nStrncpy(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	dst := a.Ptr(0)
	src := a.Ptr(1)
	n := a.Int(0)
	str, err := rt.readCStr(src, src.Addr())
	if err != nil {
		return rt.memFault(t, err)
	}
	buf := make([]byte, n)
	copy(buf, str)
	if err := rt.k.M.UA.Write(dst, dst.Addr(), buf); err != nil {
		return rt.memFault(t, err)
	}
	return dst, kernel.OK
}

func (rt *Runtime) strcmpCommon(t *kernel.Thread, s1, s2 cap.Capability, n uint64, bounded bool) (cap.Capability, kernel.Errno) {
	c := rt.k.M.CPU
	for i := uint64(0); !bounded || i < n; i++ {
		va, err := c.LoadVia(s1, s1.Addr()+i, 1)
		if err != nil {
			return rt.memFault(t, err)
		}
		vb, err := c.LoadVia(s2, s2.Addr()+i, 1)
		if err != nil {
			return rt.memFault(t, err)
		}
		if va != vb || va == 0 {
			return kernel.Ret(uint64(int64(va) - int64(vb)))
		}
	}
	return kernel.Ret(0)
}

func (rt *Runtime) nStrcmp(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	return rt.strcmpCommon(t, a.Ptr(0), a.Ptr(1), 0, false)
}

func (rt *Runtime) nStrncmp(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	return rt.strcmpCommon(t, a.Ptr(0), a.Ptr(1), a.Int(0), true)
}

func (rt *Runtime) nStrcat(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	dst := a.Ptr(0)
	src := a.Ptr(1)
	d, err := rt.readCStr(dst, dst.Addr())
	if err != nil {
		return rt.memFault(t, err)
	}
	s, err := rt.readCStr(src, src.Addr())
	if err != nil {
		return rt.memFault(t, err)
	}
	if err := rt.k.M.UA.Write(dst, dst.Addr()+uint64(len(d)), append([]byte(s), 0)); err != nil {
		return rt.memFault(t, err)
	}
	return dst, kernel.OK
}

func (rt *Runtime) nStrchr(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	s := a.Ptr(0)
	ch := byte(a.Int(0))
	c := rt.k.M.CPU
	for i := uint64(0); ; i++ {
		v, err := c.LoadVia(s, s.Addr()+i, 1)
		if err != nil {
			return rt.memFault(t, err)
		}
		if byte(v) == ch {
			return cap.IncAddr(s, int64(i)), kernel.OK
		}
		if v == 0 {
			return cap.Null(), kernel.OK
		}
	}
}

// ---- qsort with guest comparator callbacks ----

func (rt *Runtime) nQsort(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	base := a.Ptr(0)
	n := a.Int(0)
	width := a.Int(1)
	cmp := a.Ptr(1)
	if n < 2 || width == 0 {
		return kernel.Ret(0)
	}

	elem := func(i uint64) cap.Capability {
		return cap.SetAddr(base, base.Addr()+i*width)
	}
	less := func(i, j uint64) (bool, error) {
		var capArgs []cap.Capability
		var intArgs []uint64
		if rt.cheri(t) {
			capArgs = []cap.Capability{elem(i), elem(j)}
		} else {
			a, b := elem(i), elem(j)
			intArgs = []uint64{a.Addr(), b.Addr()}
		}
		r, err := rt.k.CallGuest(t, cmp, intArgs, capArgs)
		return int64(r) < 0, err
	}
	// Swap preserves capability tags: "we found that we needed to extend
	// qsort and other sorting routines to preserve capabilities when
	// swapping array elements."
	tmp, errno := rt.heap(t).Malloc(width)
	if errno != kernel.OK {
		return kernel.Err(errno)
	}
	swap := func(i, j uint64) error {
		a, b := elem(i), elem(j)
		if err := rt.copyGuest(tmp, tmp.Base(), base, a.Addr(), width); err != nil {
			return err
		}
		if err := rt.copyGuest(base, a.Addr(), base, b.Addr(), width); err != nil {
			return err
		}
		return rt.copyGuest(base, b.Addr(), tmp, tmp.Base(), width)
	}
	// Heapsort: deterministic, in-place, O(n log n) comparator calls.
	var err error
	siftDown := func(start, end uint64) {
		root := start
		for {
			child := 2*root + 1
			if child > end || err != nil {
				return
			}
			if child+1 <= end {
				l, e := less(child, child+1)
				if e != nil {
					err = e
					return
				}
				if l {
					child++
				}
			}
			l, e := less(root, child)
			if e != nil {
				err = e
				return
			}
			if !l {
				return
			}
			if e := swap(root, child); e != nil {
				err = e
				return
			}
			root = child
		}
	}
	for start := int64(n/2) - 1; start >= 0 && err == nil; start-- {
		siftDown(uint64(start), n-1)
	}
	for end := n - 1; end > 0 && err == nil; end-- {
		if e := swap(0, end); e != nil {
			err = e
			break
		}
		siftDown(0, end-1)
	}
	rt.heap(t).Free(tmp, rt.cheri(t))
	if err != nil {
		return rt.memFault(t, err)
	}
	return kernel.Ret(0)
}

// ---- stdio ----

// formatGuest renders a printf format with arguments from the spilled
// vararg area (16-byte slots; capability slots for %s/%p under CheriABI).
func (rt *Runtime) formatGuest(t *kernel.Thread, format string, va cap.Capability) (string, error) {
	c := rt.k.M.CPU
	out := make([]byte, 0, len(format)+32)
	slot := uint64(0)
	nextInt := func() (uint64, error) {
		v, err := c.LoadVia(va, va.Addr()+slot*16, 8)
		slot++
		return v, err
	}
	nextPtr := func() (cap.Capability, error) {
		if rt.cheri(t) {
			v, err := c.LoadCapVia(va, va.Addr()+slot*16)
			slot++
			return v, err
		}
		v, err := c.LoadVia(va, va.Addr()+slot*16, 8)
		slot++
		auth := cap.SetAddr(t.Proc.Root.AndPerms(cap.PermData), v)
		return auth, err
	}
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' || i+1 >= len(format) {
			out = append(out, ch)
			continue
		}
		i++
		// Skip width/flags (rendered unpadded).
		for i < len(format) && (format[i] == '-' || format[i] == '0' || format[i] >= '1' && format[i] <= '9' || format[i] == 'l') {
			i++
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case 'd':
			v, err := nextInt()
			if err != nil {
				return "", err
			}
			out = append(out, strconv.FormatInt(int64(v), 10)...)
		case 'u':
			v, err := nextInt()
			if err != nil {
				return "", err
			}
			out = append(out, strconv.FormatUint(v, 10)...)
		case 'x':
			v, err := nextInt()
			if err != nil {
				return "", err
			}
			out = append(out, strconv.FormatUint(v, 16)...)
		case 'c':
			v, err := nextInt()
			if err != nil {
				return "", err
			}
			out = append(out, byte(v))
		case 's':
			p, err := nextPtr()
			if err != nil {
				return "", err
			}
			s, err := rt.readCStr(p, p.Addr())
			if err != nil {
				return "", err
			}
			out = append(out, s...)
		case 'p':
			p, err := nextPtr()
			if err != nil {
				return "", err
			}
			out = append(out, "0x"...)
			out = append(out, strconv.FormatUint(p.Addr(), 16)...)
		case '%':
			out = append(out, '%')
		default:
			out = append(out, '%', format[i])
		}
	}
	return string(out), nil
}

func (rt *Runtime) nPrintf(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	fmtCap := a.Ptr(0)
	vaCap := a.Ptr(1)
	format, err := rt.readCStr(fmtCap, fmtCap.Addr())
	if err != nil {
		return rt.memFault(t, err)
	}
	s, err := rt.formatGuest(t, format, vaCap)
	if err != nil {
		return rt.memFault(t, err)
	}
	rt.writeConsole(t, s)
	return kernel.Ret(uint64(len(s)))
}

func (rt *Runtime) nSnprintf(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	buf := a.Ptr(0)
	n := a.Int(0)
	fmtCap := a.Ptr(1)
	vaCap := a.Ptr(2)
	format, err := rt.readCStr(fmtCap, fmtCap.Addr())
	if err != nil {
		return rt.memFault(t, err)
	}
	s, err := rt.formatGuest(t, format, vaCap)
	if err != nil {
		return rt.memFault(t, err)
	}
	full := len(s)
	if uint64(len(s))+1 > n {
		if n == 0 {
			return kernel.Ret(uint64(full))
		}
		s = s[:n-1]
	}
	if err := rt.k.M.UA.Write(buf, buf.Addr(), append([]byte(s), 0)); err != nil {
		return rt.memFault(t, err)
	}
	return kernel.Ret(uint64(full))
}

func (rt *Runtime) writeConsole(t *kernel.Thread, s string) {
	t.Proc.Stdout.WriteString(s)
	if rt.k.Console != nil {
		fmt.Fprint(rt.k.Console, s)
	}
	// Charge for the console device writes.
	rt.k.M.CPU.Stats.Cycles += uint64(len(s)) * 2
}

func (rt *Runtime) nPuts(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	s := a.Ptr(0)
	str, err := rt.readCStr(s, s.Addr())
	if err != nil {
		return rt.memFault(t, err)
	}
	rt.writeConsole(t, str+"\n")
	return kernel.Ret(uint64(len(str) + 1))
}

func (rt *Runtime) nPutchar(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	ch := byte(a.Int(0))
	rt.writeConsole(t, string(ch))
	return kernel.Ret(uint64(ch))
}

// ---- misc ----

func (rt *Runtime) nAtoi(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	s := a.Ptr(0)
	str, err := rt.readCStr(s, s.Addr())
	if err != nil {
		return rt.memFault(t, err)
	}
	v := int64(0)
	neg := false
	i := 0
	for i < len(str) && (str[i] == ' ' || str[i] == '\t') {
		i++
	}
	if i < len(str) && (str[i] == '-' || str[i] == '+') {
		neg = str[i] == '-'
		i++
	}
	for ; i < len(str) && str[i] >= '0' && str[i] <= '9'; i++ {
		v = v*10 + int64(str[i]-'0')
	}
	if neg {
		v = -v
	}
	return kernel.Ret(uint64(v))
}

func (rt *Runtime) nRand(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	s := rt.seed[t.Proc.PID]
	s = s*6364136223846793005 + 1442695040888963407
	rt.seed[t.Proc.PID] = s
	return kernel.Ret((s >> 33) & 0x7FFFFFFF)
}

func (rt *Runtime) nSrand(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	rt.seed[t.Proc.PID] = a.Int(0)
	return kernel.Ret(0)
}

func (rt *Runtime) nAbort(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	rt.k.PostSignal(t.Proc, kernel.SIGABRT)
	return kernel.Ret(0)
}

func (rt *Runtime) nGetenv(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	return cap.Null(), kernel.OK
}

func (rt *Runtime) nTLSGet(t *kernel.Thread, a *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	// Thread-local block, bounded per request ("We have added a
	// CHERI-compatible TLS implementation").
	if c, ok := rt.tls[t.TID]; ok {
		return c, kernel.OK
	}
	n := a.Int(0)
	if n == 0 {
		n = 4096
	}
	c, errno := rt.heap(t).Malloc(n)
	if errno != kernel.OK {
		return kernel.Err(errno)
	}
	rt.tls[t.TID] = c
	return c, kernel.OK
}

func (rt *Runtime) nAsanReport(t *kernel.Thread, _ *kernel.SysArgs) (cap.Capability, kernel.Errno) {
	rt.writeConsole(t, "==ASAN== heap-buffer-overflow or stack violation detected\n")
	rt.k.PostSignal(t.Proc, kernel.SIGABRT)
	return kernel.Ret(0)
}
