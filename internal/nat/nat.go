// Package nat declares the guest call interface: every syscall and every
// run-time native, with its number, its MiniC name, its argument spec,
// its return kind and its audit signature. It is the one definition of
// that interface. The kernel dispatches on it (internal/kernel), the C
// runtime registers a body for each native (internal/libc), and the
// compiler derives its syscall and native builtins from it
// (internal/cc). Adding a syscall is one Syscalls entry plus a kernel
// handler; the compiler needs no edit.
//
// Natives model the C library the way ISA-level "fast models" do: the
// function body runs as host code, but every byte it touches moves through
// the same capability- and MMU-checked accessors as guest instructions,
// so bounds violations inside library calls (memcpy past the end of a
// malloc allocation, say) fault exactly as they would with a compiled
// libc.
package nat

// Call declares one guest-callable entry point.
//
// Spec has one letter per argument, in declaration order:
//
//	'i'  integer argument.
//	'p'  pointer argument. A syscall validates, materializes and charges
//	     it; a native uses the caller's capability (CheriABI) or
//	     DDC-equivalent authority (legacy), uncharged.
//	'r'  raw pointer (syscalls): delivered exactly as presented,
//	     unvalidated and uncharged, where the capability itself is the
//	     operand rather than an access authority.
//	's'  string in-argument (syscalls): a 'p' whose NUL-terminated
//	     contents are copied in before the handler runs.
//
// Integers travel in r4.. and pointers in c3.. under CheriABI ("integer
// and pointer arguments use different register files"); under the legacy
// ABI every argument travels in r4.. in declaration order. To MiniC every
// letter other than 'i' is a pointer.
//
// Sig documents each pointer's direction (in/out) and, where a second
// argument claims to bound a copy, the length binding. The kernel
// deliberately does not enforce direction or length: see DESIGN.md,
// "Table-driven syscall dispatch".
type Call struct {
	// Name is the MiniC builtin name; "" keeps the call hidden from MiniC.
	Name string
	Spec string
	Ret  Ret
	// Variadic marks the printf family: the last Spec argument is a
	// pointer to the spilled variadic arguments, which the compiler
	// supplies rather than the caller.
	Variadic bool
	Sig      string
}

// Ret is a call's return kind. A kernel handler or native body returns
// a value and an errno; the kernel's one result writer encodes them by
// the kind:
//
//	Int   v0 = the value, or ^0 (-1) on error
//	Ptr   v0 = the address and, under CheriABI, c3 = the capability;
//	      0 and NULL on error
//	Void  v0 = 0
//
// v1 is the errno in every case, 0 on success.
type Ret uint8

const (
	Int Ret = iota
	Ptr
	Void
)

// Syscall numbers (the SYSCALL instruction's v0).
const (
	SysExit = iota + 1
	SysFork
	SysRead
	SysWrite
	SysOpen
	SysClose
	SysWait4
	SysPipe
	SysDup
	SysGetpid
	SysExecve
	SysMmap
	SysMunmap
	SysMprotect
	SysSbrk
	SysSelect
	SysKqueue
	SysKevent
	SysSigaction
	SysSigreturn
	SysKill
	SysIoctl
	SysSysctl
	SysPtrace
	SysGetcwd
	SysChdir
	SysLseek
	SysFstat
	SysShmget
	SysShmat
	SysShmdt
	SysYield
	SysSigprocmask
	SysGetTime
	SysUnlink
	SysSwapSelf // simulator-specific: force the process's pages to swap
	SysReadv
	SysWritev
	SysPread
	SysPwrite
	SysFtruncate
	SysSocket
	SysSocketpair
	SysBind
	SysListen
	SysConnect
	SysAccept
	SysShutdown
	SysSend
	SysRecv
	SysPoll
	SysFcntl
	SysGetdents
	SysNanosleep
	SysSleep
	SysUsleep
	SysClockGettime
	SysGettimeofday
	SysGetsockname
	SysGetpeername
)

// Native call ids (the NCALL instruction's immediate).
const (
	Malloc = iota + 1
	Free
	Realloc
	Calloc
	Memcpy
	Memmove
	Memset
	Memcmp
	Strlen
	Strcpy
	Strncpy
	Strcmp
	Strncmp
	Strcat
	Strchr
	Qsort
	Printf
	Snprintf
	Puts
	Putchar
	Atoi
	Rand
	Srand
	Abort
	TLSGet
	Getenv

	// AsanReport is the toolchain-internal ASan failure report that
	// instrumented code calls (it aborts the process).
	AsanReport = 200
)

// Syscalls is the syscall table, indexed by syscall number. A slot whose
// Sig is empty declares no syscall.
var Syscalls = [...]Call{
	SysExit:         {Name: "exit", Spec: "i", Ret: Void, Sig: "exit(status)"},
	SysFork:         {Name: "fork", Sig: "fork()"},
	SysRead:         {Name: "read", Spec: "ipi", Sig: "read(fd, buf:out[len<=n], n)"},
	SysWrite:        {Name: "write", Spec: "ipi", Sig: "write(fd, buf:in[len<=n], n)"},
	SysOpen:         {Name: "open", Spec: "sii", Sig: "open(path:str, flags, mode)"},
	SysClose:        {Name: "close", Spec: "i", Sig: "close(fd)"},
	SysWait4:        {Name: "wait4", Spec: "ipi", Sig: "wait4(pid, status:out[4], opts)"},
	SysPipe:         {Name: "pipe", Spec: "p", Sig: "pipe(fds:out[16])"},
	SysDup:          {Name: "dup", Spec: "i", Sig: "dup(fd)"},
	SysGetpid:       {Name: "getpid", Sig: "getpid()"},
	SysExecve:       {Name: "execve", Spec: "spp", Sig: "execve(path:str, argv:in-vec, envv:in-vec)"},
	SysMmap:         {Name: "mmap", Spec: "riii", Ret: Ptr, Sig: "mmap(hint:raw, len, prot, flags)"},
	SysMunmap:       {Name: "munmap", Spec: "ri", Sig: "munmap(addr:raw-vmmap, len)"},
	SysMprotect:     {Name: "mprotect", Spec: "rii", Sig: "mprotect(addr:raw-vmmap, len, prot)"},
	SysSbrk:         {Name: "sbrk", Spec: "i", Sig: "sbrk(incr)"},
	SysSelect:       {Name: "select", Spec: "ipppp", Sig: "select(nfds, r:inout[8], w:inout[8], e:inout[8], tmo:in[16])"},
	SysKqueue:       {Name: "kqueue", Sig: "kqueue()"},
	SysKevent:       {Name: "kevent", Spec: "ipipip", Sig: "kevent(kq, changes:in[n*evsz], n, events:out[m*evsz], m, tmo:in[16])"},
	SysSigaction:    {Name: "sigaction", Spec: "ir", Sig: "sigaction(sig, handler:raw-stored)"},
	SysSigreturn:    {Sig: "sigreturn() — issued only by the signal trampoline"},
	SysKill:         {Name: "kill", Spec: "ii", Sig: "kill(pid, sig)"},
	SysIoctl:        {Name: "ioctl", Spec: "iip", Sig: "ioctl(fd, cmd, argp:inout[cmd])"},
	SysSysctl:       {Name: "sysctl", Spec: "ippr", Sig: "sysctl(id, oldp:out[*oldlenp], oldlenp:inout[8], newp:unused)"},
	SysPtrace:       {Name: "ptrace", Spec: "iipi", Sig: "ptrace(req, pid, addrp:inout[req], data)"},
	SysGetcwd:       {Name: "getcwd", Spec: "pi", Sig: "getcwd(buf:out[cap-bounded], len-claimed)"},
	SysChdir:        {Name: "chdir", Spec: "s", Sig: "chdir(path:str)"},
	SysLseek:        {Name: "lseek", Spec: "iii", Sig: "lseek(fd, off, whence)"},
	SysFstat:        {Name: "fstat", Spec: "ip", Sig: "fstat(fd, st:out[16])"},
	SysShmget:       {Name: "shmget", Spec: "ii", Sig: "shmget(key, size)"},
	SysShmat:        {Name: "shmat", Spec: "ir", Ret: Ptr, Sig: "shmat(id, hint:raw-vmmap)"},
	SysShmdt:        {Name: "shmdt", Spec: "r", Sig: "shmdt(addr:raw-vmmap)"},
	SysYield:        {Name: "yield", Sig: "yield()"},
	SysSigprocmask:  {Name: "sigprocmask", Spec: "iii", Sig: "sigprocmask(how, mask, _)"},
	SysGetTime:      {Name: "gettime", Sig: "gettime()"},
	SysUnlink:       {Name: "unlink", Spec: "s", Sig: "unlink(path:str)"},
	SysSwapSelf:     {Name: "swapself", Sig: "swapself()"},
	SysReadv:        {Name: "readv", Spec: "ipi", Sig: "readv(fd, iov:in[n*iovsz], n) — per-segment base caps authorize the transfers"},
	SysWritev:       {Name: "writev", Spec: "ipi", Sig: "writev(fd, iov:in[n*iovsz], n) — per-segment base caps authorize the transfers"},
	SysPread:        {Name: "pread", Spec: "ipii", Sig: "pread(fd, buf:out[len<=n], n, off)"},
	SysPwrite:       {Name: "pwrite", Spec: "ipii", Sig: "pwrite(fd, buf:in[len<=n], n, off)"},
	SysFtruncate:    {Name: "ftruncate", Spec: "ii", Sig: "ftruncate(fd, len)"},
	SysSocket:       {Name: "socket", Spec: "iii", Sig: "socket(domain, type, proto)"},
	SysSocketpair:   {Name: "socketpair", Spec: "iiip", Sig: "socketpair(domain, type, proto, sv:out[16])"},
	SysBind:         {Name: "bind", Spec: "ip", Sig: "bind(fd, sa:in) — AF_UNIX: path string; AF_INET: sockaddr_in[24]"},
	SysListen:       {Name: "listen", Spec: "ii", Sig: "listen(fd, backlog)"},
	SysConnect:      {Name: "connect", Spec: "ip", Sig: "connect(fd, sa:in) — AF_UNIX: path string; AF_INET: sockaddr_in[24]"},
	SysAccept:       {Name: "accept", Spec: "i", Sig: "accept(fd)"},
	SysShutdown:     {Name: "shutdown", Spec: "ii", Sig: "shutdown(fd, how)"},
	SysSend:         {Name: "send", Spec: "ipii", Sig: "send(fd, buf:in[len<=n], n, flags)"},
	SysRecv:         {Name: "recv", Spec: "ipii", Sig: "recv(fd, buf:out[len<=n], n, flags)"},
	SysPoll:         {Name: "poll", Spec: "pii", Sig: "poll(fds:inout[n*24], n, timeout-ms)"},
	SysFcntl:        {Name: "fcntl", Spec: "iii", Sig: "fcntl(fd, cmd, arg)"},
	SysGetdents:     {Name: "readdir", Spec: "ipi", Sig: "getdents(fd, buf:out[len<=n], n) — 64-byte records {kind u64, name NUL-terminated}, sorted"},
	SysNanosleep:    {Name: "nanosleep", Spec: "pp", Sig: "nanosleep(req:in[16], rem:out[16]) — virtual clock, 1 cycle = 10 ns"},
	SysSleep:        {Name: "sleep", Spec: "i", Sig: "sleep(seconds)"},
	SysUsleep:       {Name: "usleep", Spec: "i", Sig: "usleep(micros)"},
	SysClockGettime: {Name: "clock_gettime", Spec: "ip", Sig: "clock_gettime(clk, tp:out[16])"},
	SysGettimeofday: {Name: "gettimeofday", Spec: "p", Sig: "gettimeofday(tv:out[16])"},
	SysGetsockname:  {Name: "getsockname", Spec: "ip", Sig: "getsockname(fd, sa:out[24])"},
	SysGetpeername:  {Name: "getpeername", Spec: "ip", Sig: "getpeername(fd, sa:out[24])"},
}

// Natives is the run-time native table, indexed by native id. A slot
// whose Sig is empty declares no native.
var Natives = [...]Call{
	Malloc:     {Name: "malloc", Spec: "i", Ret: Ptr, Sig: "malloc(size)"},
	Free:       {Name: "free", Spec: "p", Ret: Void, Sig: "free(ptr)"},
	Realloc:    {Name: "realloc", Spec: "pi", Ret: Ptr, Sig: "realloc(ptr, size)"},
	Calloc:     {Name: "calloc", Spec: "ii", Ret: Ptr, Sig: "calloc(n, size)"},
	Memcpy:     {Name: "memcpy", Spec: "ppi", Ret: Ptr, Sig: "memcpy(dst:out[n], src:in[n], n)"},
	Memmove:    {Name: "memmove", Spec: "ppi", Ret: Ptr, Sig: "memmove(dst:out[n], src:in[n], n)"},
	Memset:     {Name: "memset", Spec: "pii", Ret: Ptr, Sig: "memset(dst:out[n], c, n)"},
	Memcmp:     {Name: "memcmp", Spec: "ppi", Sig: "memcmp(a:in[n], b:in[n], n)"},
	Strlen:     {Name: "strlen", Spec: "p", Sig: "strlen(s:str)"},
	Strcpy:     {Name: "strcpy", Spec: "pp", Ret: Ptr, Sig: "strcpy(dst:out, src:str)"},
	Strncpy:    {Name: "strncpy", Spec: "ppi", Ret: Ptr, Sig: "strncpy(dst:out[n], src:str, n)"},
	Strcmp:     {Name: "strcmp", Spec: "pp", Sig: "strcmp(a:str, b:str)"},
	Strncmp:    {Name: "strncmp", Spec: "ppi", Sig: "strncmp(a:str, b:str, n)"},
	Strcat:     {Name: "strcat", Spec: "pp", Ret: Ptr, Sig: "strcat(dst:inout, src:str)"},
	Strchr:     {Name: "strchr", Spec: "pi", Ret: Ptr, Sig: "strchr(s:str, c)"},
	Qsort:      {Name: "qsort", Spec: "piip", Ret: Void, Sig: "qsort(base:inout[n*width], n, width, cmp:fn)"},
	Printf:     {Name: "printf", Spec: "pp", Variadic: true, Sig: "printf(fmt:str, args:in-varargs)"},
	Snprintf:   {Name: "snprintf", Spec: "pipp", Variadic: true, Sig: "snprintf(buf:out[n], n, fmt:str, args:in-varargs)"},
	Puts:       {Name: "puts", Spec: "p", Sig: "puts(s:str)"},
	Putchar:    {Name: "putchar", Spec: "i", Sig: "putchar(c)"},
	Atoi:       {Name: "atoi", Spec: "p", Sig: "atoi(s:str)"},
	Rand:       {Name: "rand", Sig: "rand()"},
	Srand:      {Name: "srand", Spec: "i", Ret: Void, Sig: "srand(seed)"},
	Abort:      {Name: "abort", Ret: Void, Sig: "abort()"},
	TLSGet:     {Name: "tls_get", Spec: "i", Ret: Ptr, Sig: "tls_get(size) — this thread's bounded TLS block"},
	Getenv:     {Name: "getenv", Spec: "p", Ret: Ptr, Sig: "getenv(name:str) — always NULL in the simulator"},
	AsanReport: {Ret: Void, Sig: "asan_report() — emitted by ASan instrumentation"},
}
