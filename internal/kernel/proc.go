package kernel

import (
	"bytes"

	"cheriabi/internal/cap"
	"cheriabi/internal/core"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/rtld"
	"cheriabi/internal/vm"
)

// Frame is the saved user register state of a thread: both register files
// plus the program counter, code and default-data capabilities. Context
// switching "saves and restores user-thread register capability state".
type Frame struct {
	X   [isa.NumRegs]uint64
	C   [isa.NumRegs]cap.Capability
	PC  uint64
	PCC cap.Capability
	DDC cap.Capability
}

// ThreadState is the scheduler state of a thread.
type ThreadState int

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadBlocked
	ThreadExited
)

// Thread is one schedulable user thread.
type Thread struct {
	TID   int
	Proc  *Proc
	Frame Frame
	State ThreadState
	// waitq lists the wait queues a blocked thread subscribes to (see
	// wait.go); the blocked syscall re-executes when any of them wakes.
	waitq []*WaitQueue
	// deadline is the in-flight timed syscall's absolute deadline in
	// cycles (0 = none). It survives spurious wakes and re-parks; the
	// dispatcher clears it when the syscall completes (see timer.go).
	deadline uint64
	// timedOut records that the deadline fired; the restarted syscall
	// reads it through Kernel.deadlineExpired.
	timedOut bool
	// timer is the live heap entry backing deadline, nil when none is
	// armed; unsubscribe nils the entry's thread pointer (lazy cancel).
	timer *timerEntry
	// interrupted records that a signal handler frame was pushed while
	// this thread's syscall was in flight — the cue for nanosleep's
	// EINTR (sleeps must not restart). blockOn clears it.
	interrupted bool
}

// ProcState is the lifecycle state of a process.
type ProcState int

// Process states.
const (
	ProcRunning ProcState = iota
	ProcZombie
)

// SigAction is one registered signal handler. Handler is stored as a
// capability for CheriABI processes — "we have modified the kernel
// structures to store capabilities" — and as a bare address for legacy.
type SigAction struct {
	Handler cap.Capability // descriptor pointer; untagged for legacy
	Set     bool
}

// Proc is one process.
type Proc struct {
	PID    int
	Name   string
	ABI    image.ABI
	AS     *vm.AddressSpace
	State  ProcState
	Status int // wait4 status when zombie

	// Root is the process's user root capability: the source from which
	// execve-time mappings, mmap returns, and swap rederivations derive.
	Root cap.Capability
	// Prin is the process's abstract principal (fresh at every execve).
	Prin *core.Principal
	// AbsRoot is the abstract capability root for the ledger.
	AbsRoot *core.AbstractCap

	Parent   *Proc
	Children map[int]*Proc

	Threads []*Thread
	FDs     []*FDesc
	CWD     string

	Sig        [NSig]SigAction
	SigPending uint64
	SigMask    uint64

	// childq wakes wait4 callers when a child changes state.
	childq WaitQueue

	// Linked is the rtld view of the loaded images (debugger, trace).
	Linked *rtld.Linked
	// MmapHint is the next mmap placement address.
	MmapHint uint64
	// Stdout collects fd 1 and 2 output.
	Stdout bytes.Buffer
	// Brk tracking (legacy only; CheriABI rejects sbrk by design).
	brk uint64
	// Suspended marks a ptrace-stopped process: its threads do not run.
	Suspended bool
}

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool { return p.State == ProcZombie }

// ExitCode returns the exit(2) code if the process exited normally, else -1.
func (p *Proc) ExitCode() int {
	if !p.Exited() || p.Status&0x7F != 0 {
		return -1
	}
	return p.Status >> 8
}

// TermSignal returns the terminating signal, or 0 for a normal exit.
func (p *Proc) TermSignal() int { return p.Status & 0x7F }

// mainThread returns the first live thread.
func (p *Proc) mainThread() *Thread {
	for _, t := range p.Threads {
		if t.State != ThreadExited {
			return t
		}
	}
	return nil
}

// allocFD installs f at the lowest free descriptor slot.
func (p *Proc) allocFD(f *FDesc) int {
	for i, slot := range p.FDs {
		if slot == nil {
			p.FDs[i] = f
			return i
		}
	}
	p.FDs = append(p.FDs, f)
	return len(p.FDs) - 1
}

// fd returns the descriptor or nil.
func (p *Proc) fd(n int) *FDesc {
	if n < 0 || n >= len(p.FDs) {
		return nil
	}
	return p.FDs[n]
}

// User address-space layout constants.
const (
	// UserBase is the lowest user-mappable address.
	UserBase = 0x0000_1000
	// TrampVA is the read-only signal-return trampoline page mapped by
	// execve.
	TrampVA = 0x0000_F000
	// ExecBase is where the executable image loads (perturbed per boot
	// seed for layout variance).
	ExecBase = 0x0010_0000
	// MmapBase is the start of the mmap placement region.
	MmapBase = 0x4000_0000
	// StackSize is the main-thread stack reservation.
	StackSize = 1 << 20
	// StackTop is the top of the main-thread stack.
	StackTop = 0x7FF0_0000
	// UserTop is the exclusive upper bound of user space.
	UserTop = 0x8000_0000
)
