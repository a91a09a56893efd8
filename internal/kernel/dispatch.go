package kernel

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
)

// Table-driven syscall dispatch. Every syscall declares its argument spec
// once; the dispatcher performs the work common to all of them —
// argument decode under both ABI register conventions, capability
// validation and cost charging for pointer arguments
// (CostCheriCapCheck / CostLegacyCapConstruct, the asymmetry §5.2
// measures), and copyin of string in-arguments — so the handler bodies
// are pure semantics.
//
// Spec letters, one per declared argument:
//
//	'i'  integer argument.
//	'p'  user pointer: validated and materialized into the authorizing
//	     capability (the user capability under CheriABI, a constructed
//	     kernel capability under legacy) and charged accordingly.
//	'r'  raw pointer: delivered exactly as presented, unvalidated and
//	     uncharged. Used where the capability itself is the operand
//	     rather than an access authority — the mmap placement hint,
//	     munmap/mprotect/shmdt region capabilities (validated against
//	     PermVMMap by checkVMAuth), the sigaction handler pointer the
//	     kernel stores, and declared-but-unused trailing pointers.
//	's'  string in-argument: a 'p' whose NUL-terminated contents the
//	     dispatcher copies in before the handler runs (EFAULT/ERANGE
//	     are returned without entering the handler). All pointer
//	     arguments are materialized (and charged) before any string
//	     bytes are copied, preserving the legacy/CheriABI cost split.
//
// The sig field documents each pointer's direction (in/out) and, for
// copies whose extent a second argument claims to bound, the length
// binding. Direction and length are deliberately *not* enforced by the
// dispatcher: under CheriABI the copy is authorized by the capability's
// bounds at access time, never by a length argument — an over-stated
// length must fault at the capability boundary, not be pre-truncated
// (the BOdiagsuite getcwd cases), and under legacy the kernel's faithful
// use of its own authority is exactly the confused-deputy hazard the
// paper measures.

// SysArgs holds one syscall's decoded arguments: integers, pointer
// capabilities, and copied-in strings, each indexed in declaration order
// of its kind.
type SysArgs struct {
	ints [4]uint64
	ptrs [4]cap.Capability
	strs [2]string
}

// Int returns the i-th integer ('i') argument.
func (a *SysArgs) Int(i int) uint64 { return a.ints[i] }

// Ptr returns the i-th pointer ('p', 'r', or 's') argument.
func (a *SysArgs) Ptr(i int) cap.Capability { return a.ptrs[i] }

// Str returns the i-th copied-in string ('s') argument.
func (a *SysArgs) Str(i int) string { return a.strs[i] }

// sysDef declares one syscall for the dispatch table.
type sysDef struct {
	name string
	spec string
	// sig documents the declaration: pointer direction (in/out) and
	// length bindings, for the audit trail (see the package comment).
	sig string
	fn  func(*Kernel, *Thread, *SysArgs) bool
}

// sysTable is the complete syscall table, indexed by syscall number.
// Adding a syscall is one entry here plus a handler of pure semantics
// (and a compiler builtin to expose it to MiniC).
var sysTable = [...]sysDef{
	SysExit:         {name: "exit", spec: "i", sig: "exit(status)", fn: sysExit},
	SysFork:         {name: "fork", spec: "", sig: "fork()", fn: sysFork},
	SysRead:         {name: "read", spec: "ipi", sig: "read(fd, buf:out[len<=n], n)", fn: sysRead},
	SysWrite:        {name: "write", spec: "ipi", sig: "write(fd, buf:in[len<=n], n)", fn: sysWrite},
	SysOpen:         {name: "open", spec: "sii", sig: "open(path:str, flags, mode)", fn: sysOpen},
	SysClose:        {name: "close", spec: "i", sig: "close(fd)", fn: sysClose},
	SysWait4:        {name: "wait4", spec: "ipi", sig: "wait4(pid, status:out[4], opts)", fn: sysWait4},
	SysPipe:         {name: "pipe", spec: "p", sig: "pipe(fds:out[16])", fn: sysPipe},
	SysDup:          {name: "dup", spec: "i", sig: "dup(fd)", fn: sysDup},
	SysGetpid:       {name: "getpid", spec: "", sig: "getpid()", fn: sysGetpid},
	SysExecve:       {name: "execve", spec: "spp", sig: "execve(path:str, argv:in-vec, envv:in-vec)", fn: sysExecve},
	SysMmap:         {name: "mmap", spec: "riii", sig: "mmap(hint:raw, len, prot, flags)", fn: sysMmap},
	SysMunmap:       {name: "munmap", spec: "ri", sig: "munmap(addr:raw-vmmap, len)", fn: sysMunmap},
	SysMprotect:     {name: "mprotect", spec: "rii", sig: "mprotect(addr:raw-vmmap, len, prot)", fn: sysMprotect},
	SysSbrk:         {name: "sbrk", spec: "i", sig: "sbrk(incr)", fn: sysSbrk},
	SysSelect:       {name: "select", spec: "ipppp", sig: "select(nfds, r:inout[8], w:inout[8], e:inout[8], tmo:in[16])", fn: sysSelect},
	SysKqueue:       {name: "kqueue", spec: "", sig: "kqueue()", fn: sysKqueue},
	SysKevent:       {name: "kevent", spec: "ipipip", sig: "kevent(kq, changes:in[n*evsz], n, events:out[m*evsz], m, tmo:in[16])", fn: sysKevent},
	SysSigaction:    {name: "sigaction", spec: "ir", sig: "sigaction(sig, handler:raw-stored)", fn: sysSigaction},
	SysSigreturn:    {name: "sigreturn", spec: "", sig: "sigreturn()", fn: sysSigreturnWrap},
	SysKill:         {name: "kill", spec: "ii", sig: "kill(pid, sig)", fn: sysKill},
	SysIoctl:        {name: "ioctl", spec: "iip", sig: "ioctl(fd, cmd, argp:inout[cmd])", fn: sysIoctl},
	SysSysctl:       {name: "sysctl", spec: "ippr", sig: "sysctl(id, oldp:out[*oldlenp], oldlenp:inout[8], newp:unused)", fn: sysSysctl},
	SysPtrace:       {name: "ptrace", spec: "iipi", sig: "ptrace(req, pid, addrp:inout[req], data)", fn: sysPtrace},
	SysGetcwd:       {name: "getcwd", spec: "pi", sig: "getcwd(buf:out[cap-bounded], len-claimed)", fn: sysGetcwd},
	SysChdir:        {name: "chdir", spec: "s", sig: "chdir(path:str)", fn: sysChdir},
	SysLseek:        {name: "lseek", spec: "iii", sig: "lseek(fd, off, whence)", fn: sysLseek},
	SysFstat:        {name: "fstat", spec: "ip", sig: "fstat(fd, st:out[16])", fn: sysFstat},
	SysShmget:       {name: "shmget", spec: "ii", sig: "shmget(key, size)", fn: sysShmget},
	SysShmat:        {name: "shmat", spec: "ir", sig: "shmat(id, hint:raw-vmmap)", fn: sysShmat},
	SysShmdt:        {name: "shmdt", spec: "r", sig: "shmdt(addr:raw-vmmap)", fn: sysShmdt},
	SysYield:        {name: "yield", spec: "", sig: "yield()", fn: sysYield},
	SysSigprocmask:  {name: "sigprocmask", spec: "iii", sig: "sigprocmask(how, mask, _)", fn: sysSigprocmask},
	SysGetTime:      {name: "gettime", spec: "", sig: "gettime()", fn: sysGetTime},
	SysUnlink:       {name: "unlink", spec: "s", sig: "unlink(path:str)", fn: sysUnlink},
	SysSwapSelf:     {name: "swapself", spec: "", sig: "swapself()", fn: sysSwapSelf},
	SysReadv:        {name: "readv", spec: "ipi", sig: "readv(fd, iov:in[n*iovsz], n) — per-segment base caps authorize the transfers", fn: sysReadv},
	SysWritev:       {name: "writev", spec: "ipi", sig: "writev(fd, iov:in[n*iovsz], n) — per-segment base caps authorize the transfers", fn: sysWritev},
	SysPread:        {name: "pread", spec: "ipii", sig: "pread(fd, buf:out[len<=n], n, off)", fn: sysPread},
	SysPwrite:       {name: "pwrite", spec: "ipii", sig: "pwrite(fd, buf:in[len<=n], n, off)", fn: sysPwrite},
	SysFtruncate:    {name: "ftruncate", spec: "ii", sig: "ftruncate(fd, len)", fn: sysFtruncate},
	SysSocket:       {name: "socket", spec: "iii", sig: "socket(domain, type, proto)", fn: sysSocket},
	SysSocketpair:   {name: "socketpair", spec: "iiip", sig: "socketpair(domain, type, proto, sv:out[16])", fn: sysSocketpair},
	SysBind:         {name: "bind", spec: "ip", sig: "bind(fd, sa:in) — AF_UNIX: path string; AF_INET: sockaddr_in[24]", fn: sysBind},
	SysListen:       {name: "listen", spec: "ii", sig: "listen(fd, backlog)", fn: sysListen},
	SysConnect:      {name: "connect", spec: "ip", sig: "connect(fd, sa:in) — AF_UNIX: path string; AF_INET: sockaddr_in[24]", fn: sysConnect},
	SysAccept:       {name: "accept", spec: "i", sig: "accept(fd)", fn: sysAccept},
	SysShutdown:     {name: "shutdown", spec: "ii", sig: "shutdown(fd, how)", fn: sysShutdown},
	SysSend:         {name: "send", spec: "ipii", sig: "send(fd, buf:in[len<=n], n, flags)", fn: sysSend},
	SysRecv:         {name: "recv", spec: "ipii", sig: "recv(fd, buf:out[len<=n], n, flags)", fn: sysRecv},
	SysPoll:         {name: "poll", spec: "pii", sig: "poll(fds:inout[n*24], n, timeout-ms)", fn: sysPoll},
	SysFcntl:        {name: "fcntl", spec: "iii", sig: "fcntl(fd, cmd, arg)", fn: sysFcntl},
	SysGetdents:     {name: "getdents", spec: "ipi", sig: "getdents(fd, buf:out[len<=n], n) — 64-byte records", fn: sysGetdents},
	SysNanosleep:    {name: "nanosleep", spec: "pp", sig: "nanosleep(req:in[16], rem:out[16])", fn: sysNanosleep},
	SysSleep:        {name: "sleep", spec: "i", sig: "sleep(seconds)", fn: sysSleep},
	SysUsleep:       {name: "usleep", spec: "i", sig: "usleep(micros)", fn: sysUsleep},
	SysClockGettime: {name: "clock_gettime", spec: "ip", sig: "clock_gettime(clk, tp:out[16])", fn: sysClockGettime},
	SysGettimeofday: {name: "gettimeofday", spec: "p", sig: "gettimeofday(tv:out[16])", fn: sysGettimeofday},
	SysGetsockname:  {name: "getsockname", spec: "ip", sig: "getsockname(fd, sa:out[24])", fn: sysGetsockname},
	SysGetpeername:  {name: "getpeername", spec: "ip", sig: "getpeername(fd, sa:out[24])", fn: sysGetpeername},
}

// SyscallName returns the kernel's name for syscall number num, or ""
// when the number names no syscall. The compiler's builtin table mirrors
// these numbers; its TestBuiltinSyscallNumbers keeps the two in sync
// through this accessor.
func SyscallName(num int) string {
	if num <= 0 || num >= len(sysTable) {
		return ""
	}
	return sysTable[num].name
}

// decodeArgs decodes the register state of the in-flight syscall per
// spec. Pass one reads registers and materializes (and charges) every
// validated pointer; pass two copies in 's' strings, so all pointer
// charges land before any string bytes are touched — the same order the
// hand-rolled handlers used.
func (k *Kernel) decodeArgs(t *Thread, spec string, a *SysArgs) Errno {
	p := t.Proc
	f := &t.Frame
	legacy := p.ABI == image.ABILegacy
	ni, np := 0, 0
	for pos := 0; pos < len(spec); pos++ {
		if spec[pos] == 'i' {
			if legacy {
				a.ints[ni] = f.X[isa.RA0+pos]
			} else {
				a.ints[ni] = f.X[isa.RA0+ni]
			}
			ni++
			continue
		}
		var raw cap.Capability
		if legacy {
			raw = cap.NullWithAddr(f.X[isa.RA0+pos])
		} else {
			raw = f.C[isa.CA0+np]
		}
		if spec[pos] != 'r' {
			raw = k.materializePtr(p, raw)
		}
		a.ptrs[np] = raw
		np++
	}
	np, ns := 0, 0
	for pos := 0; pos < len(spec); pos++ {
		switch spec[pos] {
		case 'i':
		case 's':
			s, e := k.copyInStr(a.ptrs[np])
			if e != OK {
				return e
			}
			a.strs[ns] = s
			ns++
			np++
		default:
			np++
		}
	}
	return OK
}

// syscall dispatches the trapped syscall through the table. Handlers
// return true to advance the PC past the syscall instruction; blocking
// handlers (the syscall restarts on wake) and frame-replacing ones
// (sigreturn, execve) return false.
func (k *Kernel) syscall(t *Thread) {
	p := t.Proc
	num := int(t.Frame.X[isa.RV0])
	k.SyscallCount[num]++
	k.charge(CostSyscallBase)
	advance := true
	if num <= 0 || num >= len(sysTable) || sysTable[num].fn == nil {
		setRet(&t.Frame, ^uint64(0), ENOSYS)
	} else {
		d := &sysTable[num]
		// The per-Kernel argument block, zeroed per call: a local would
		// escape to the heap through the indirect handler call. Reuse is
		// safe because handlers only read their arguments during the call
		// (none keeps the pointer) and syscalls never nest (CallGuest runs
		// callbacks that must end in BREAK, never a dispatched syscall).
		a := &k.args
		*a = SysArgs{}
		if e := k.decodeArgs(t, d.spec, a); e != OK {
			setRet(&t.Frame, ^uint64(0), e)
		} else {
			advance = d.fn(k, t, a)
		}
	}
	if advance {
		// A completed syscall consumes its timed-park state; the next
		// timed syscall arms a fresh deadline. Blocking handlers return
		// false, so a re-park keeps deadline/timedOut/interrupted intact
		// across restarts.
		t.deadline, t.timedOut, t.interrupted = 0, false, false
	}
	if advance && t.State != ThreadExited && p.State != ProcZombie {
		t.Frame.PC += isa.InstSize
	}
}
