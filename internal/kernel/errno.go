package kernel

import "fmt"

// Errno is a kernel error number (FreeBSD numbering for the ones we use).
type Errno int

// Error numbers.
const (
	OK      Errno = 0
	EPERM   Errno = 1
	ENOENT  Errno = 2
	ESRCH   Errno = 3
	EINTR   Errno = 4
	EIO     Errno = 5
	E2BIG   Errno = 7
	ENOEXEC Errno = 8
	EBADF   Errno = 9
	ECHILD  Errno = 10
	ENOMEM  Errno = 12
	EACCES  Errno = 13
	EFAULT  Errno = 14
	EBUSY   Errno = 16
	EEXIST  Errno = 17
	ENOTDIR Errno = 20
	EISDIR  Errno = 21
	EINVAL  Errno = 22
	ENFILE  Errno = 23
	EMFILE  Errno = 24
	ENOTTY  Errno = 25
	EFBIG   Errno = 27
	ENOSPC  Errno = 28
	ESPIPE  Errno = 29
	EPIPE   Errno = 32
	ERANGE  Errno = 34
	// EAGAIN: a non-blocking operation would have parked the thread.
	EAGAIN Errno = 35
	// EINPROGRESS: a non-blocking connect was queued on the listener; its
	// completion is observed through poll/select writability.
	EINPROGRESS Errno = 36
	ENOTSOCK    Errno = 38
	// EAFNOSUPPORT: socket(2) with an address family the kernel does not
	// implement (POSIX reserves EINVAL for a bad type/protocol).
	EAFNOSUPPORT Errno = 47
	EADDRINUSE   Errno = 48
	EISCONN      Errno = 56
	ENOTCONN     Errno = 57
	ECONNREFUSED Errno = 61
	ENOSYS       Errno = 78
	// ECAPMODE mirrors CheriBSD's capability-violation errno for syscall
	// argument checks.
	ECAPMODE Errno = 94
	// EJUSTRETURN is FreeBSD's pseudo-errno for a call that must leave
	// the frame alone: its handler parked the thread (the call restarts
	// on wake) or replaced the frame (execve, sigreturn). The dispatcher
	// consumes it; it never reaches a guest register.
	EJUSTRETURN Errno = -2
)

var errnoNames = map[Errno]string{
	OK: "OK", EPERM: "EPERM", ENOENT: "ENOENT", ESRCH: "ESRCH", EINTR: "EINTR",
	EIO: "EIO", E2BIG: "E2BIG", ENOEXEC: "ENOEXEC", EBADF: "EBADF",
	ECHILD: "ECHILD", ENOMEM: "ENOMEM", EACCES: "EACCES", EFAULT: "EFAULT",
	EBUSY: "EBUSY", EEXIST: "EEXIST", ENOTDIR: "ENOTDIR", EISDIR: "EISDIR",
	EINVAL: "EINVAL", ENFILE: "ENFILE", EMFILE: "EMFILE", ENOTTY: "ENOTTY", EFBIG: "EFBIG",
	ENOSPC: "ENOSPC", ESPIPE: "ESPIPE", EPIPE: "EPIPE", ERANGE: "ERANGE", ENOSYS: "ENOSYS",
	EAGAIN: "EAGAIN", EINPROGRESS: "EINPROGRESS", ENOTSOCK: "ENOTSOCK",
	EAFNOSUPPORT: "EAFNOSUPPORT",
	EADDRINUSE:   "EADDRINUSE", EISCONN: "EISCONN", ENOTCONN: "ENOTCONN",
	ECONNREFUSED: "ECONNREFUSED",
	ECAPMODE:     "ECAPMODE", EJUSTRETURN: "EJUSTRETURN",
}

func (e Errno) String() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return fmt.Sprintf("errno(%d)", int(e))
}

func (e Errno) Error() string { return e.String() }
