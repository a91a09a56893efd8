// Package kernel implements the simulated operating system: a
// CheriBSD-flavoured kernel supporting two process ABIs side by side — the
// legacy mips64 SysV ABI (pointers are integers, checked against DDC) and
// CheriABI (all pointers are capabilities, DDC is NULL, and "all kernel
// manipulations of process memory are via explicitly delegated
// capabilities").
//
// The kernel is "para-virtualised": trap handlers are Go code, but every
// access to user memory goes through the same capability-checked accessors
// guest code uses, so the kernel observes the abstract-capability
// discipline of §3 (Figure 3). Kernel-internal state is Go data — the
// paper's hybrid kernel likewise leaves most kernel pointers unprotected.
package kernel

import (
	"fmt"
	"io"

	"cheriabi/internal/cache"
	"cheriabi/internal/cap"
	"cheriabi/internal/core"
	"cheriabi/internal/cpu"
	"cheriabi/internal/image"
	"cheriabi/internal/mem"
	"cheriabi/internal/nat"
	"cheriabi/internal/uaccess"
	"cheriabi/internal/vm"
)

// Config describes a machine to boot.
type Config struct {
	// MemBytes is physical memory size (default 256 MiB).
	MemBytes uint64
	// Seed perturbs load addresses and stack placement across boots, the
	// way ASLR and environment differences perturb the paper's runs.
	Seed int64
	// UrandomSeed seeds the /dev/urandom stream (a deterministic xorshift
	// generator, so differential runs with equal seeds stay bit-identical).
	// Zero derives the stream seed from Seed.
	UrandomSeed uint64
	// Console receives all process stdout/stderr when non-nil.
	Console io.Writer
	// Tracer observes user-code capability derivations (Figure 5).
	Tracer cpu.CapTracer
	// OnTrap observes every trap in program order (differential testing).
	// The trap is valid only during the call (see cpu.CPU.Run).
	OnTrap func(*cpu.Trap)
}

// Machine is the simulated hardware plus its kernel.
type Machine struct {
	Mem  *mem.Physical
	VM   *vm.System
	Hier *cache.Hierarchy
	CPU  *cpu.CPU
	UA   *uaccess.Space
	Kern *Kernel
}

// CapCreateFunc observes kernel- and linker-created capabilities by label
// (exec, mmap, syscall, kern, glob relocs, ...) for the Figure 5 analysis.
type CapCreateFunc func(label string, c cap.Capability)

// Kernel is the operating system state.
type Kernel struct {
	M  *Machine
	FS *FS

	Ledger   *core.Ledger
	KernPrin *core.Principal
	resetAbs *core.AbstractCap

	// kernRoot is the kernel's master capability over all memory, carved
	// at boot from the reset capability.
	kernRoot cap.Capability

	procs map[int]*Proc
	// runq is the FIFO ring of runnable-but-not-running threads: a slice
	// indexed from runqHead, compacted in place so steady-state rotation
	// never allocates. Blocked threads are not in the ring — they live on
	// the WaitQueues of the objects they sleep on.
	runq     []*Thread
	runqHead int
	// parked holds runnable threads of ptrace-suspended processes until
	// the tracer detaches.
	parked  []*Thread
	nextPID int
	nextTID int
	seed    int64

	// unixNS is the AF_UNIX namespace: bound socket addresses.
	unixNS map[string]*socketFile

	// The inet stack (see netif.go). netAddr is this machine's address
	// (NetLoopback until a fabric attaches a NIC); inetNS maps bound
	// listening ports; netConns demuxes delivered packets to endpoints by
	// connection id; netOut is the NIC's outbound ring, drained by the
	// fabric between scheduling slices.
	netAddr     uint64
	netAttached bool
	inetNS      map[uint64]*socketFile
	netConns    map[int]*socketFile
	nextConn    int
	nextPort    uint64
	netOut      []NetPacket

	// timers is the deadline min-heap of timed waiters, ordered by
	// (deadline, seq); timerSeq is the arm counter supplying the
	// determinism tiebreak (see timer.go).
	timers   []*timerEntry
	timerSeq uint64

	// Natives holds the registered native bodies, indexed by nat id
	// (package libc registers them): fast-model run-time routines that
	// behave as user-level library code, operating on guest state through
	// capability-checked accessors.
	Natives     [len(nat.Natives)]Handler
	OnCapCreate CapCreateFunc
	Console     io.Writer

	shmSegs   map[int]*shmSeg
	nextShmID int

	// urand is the /dev/urandom xorshift64 state (per boot, never zero).
	urand uint64

	// args is the argument block of the syscall or native being
	// dispatched (see Kernel.syscall).
	args SysArgs
	// stage is the staging buffer every byte-moving syscall copies
	// through (see Kernel.staging).
	stage []byte
	// waitSet collects the wait queues of the descriptors a multiplexer
	// watches, for its park (see Kernel.scan).
	waitSet []*WaitQueue
}

// NewMachine boots a machine: memory, caches, CPU, kernel, the standard
// VFS (NewFS), and the boot-time capability carve (reset → kernel root →
// per-process roots).
func NewMachine(cfg Config) *Machine { return NewMachineFS(cfg, NewFS()) }

// NewMachineFS is NewMachine with fs as the machine's file tree. The
// machine takes fs over: nothing else may keep or mutate it.
func NewMachineFS(cfg Config, fs *FS) *Machine {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 256 << 20
	}
	m := &Machine{
		Mem:  mem.New(cfg.MemBytes),
		Hier: cache.DefaultHierarchy(),
	}
	m.VM = vm.NewSystem(m.Mem, 1<<20) // boot-reserved low MiB
	// Layout perturbation: retire a seed-dependent number of frames at
	// boot so physical placement (and therefore cache behaviour) varies
	// across runs, as environment differences do on real hardware.
	if n := int(cfg.Seed % 61); n > 0 {
		m.VM.AllocFrames(n)
	}
	m.CPU = cpu.New(m.Mem, m.Hier)
	m.CPU.Tracer = cfg.Tracer
	m.CPU.OnTrap = cfg.OnTrap
	m.UA = &uaccess.Space{CPU: m.CPU}

	k := &Kernel{
		M:        m,
		FS:       fs,
		Ledger:   core.NewLedger(),
		procs:    map[int]*Proc{},
		unixNS:   map[string]*socketFile{},
		netAddr:  NetLoopback,
		inetNS:   map[uint64]*socketFile{},
		netConns: map[int]*socketFile{},
		nextPort: netEphemeralBase,
		shmSegs:  map[int]*shmSeg{},
		seed:     cfg.Seed,
		Console:  cfg.Console,
	}
	k.urand = deriveURand(cfg)
	// CPU reset: a maximally permissive capability; kernel startup narrows
	// it ("The kernel deliberately narrows these boot capabilities").
	k.KernPrin = k.Ledger.NewPrincipal(core.KernelPrincipal, "kernel")
	reset := cap.Root(0, 1<<48, cap.PermAll)
	k.resetAbs = k.Ledger.Primordial(k.KernPrin, reset, core.OriginReset)
	k.kernRoot = reset.ClearPerms(cap.PermSystemRegs | cap.PermSeal | cap.PermUnseal)
	k.Ledger.Derive(k.KernPrin, k.resetAbs, k.kernRoot, core.OriginKernelCarve)
	m.Kern = k
	return m
}

// deriveURand seeds the /dev/urandom stream from a boot Config: an
// explicit UrandomSeed wins, else derive from the boot seed. Xorshift
// state must be nonzero, but distinct nonzero seeds must stay distinct,
// so only a zero state is remapped.
func deriveURand(cfg Config) uint64 {
	urand := cfg.UrandomSeed
	if urand == 0 {
		urand = uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	}
	if urand == 0 {
		urand = 0x9E3779B97F4A7C15
	}
	return urand
}

// Now returns simulated time in cycles.
func (k *Kernel) Now() uint64 { return k.M.CPU.Stats.Cycles }

func (k *Kernel) charge(cycles uint64) { k.M.CPU.Stats.Cycles += cycles }

func (k *Kernel) capCreated(label string, c cap.Capability) {
	if k.OnCapCreate != nil {
		k.OnCapCreate(label, c)
	}
}

// Proc returns a process by pid.
func (k *Kernel) Proc(pid int) *Proc { return k.procs[pid] }

// Spawned reports whether a process was ever created on this machine,
// live or reaped.
func (k *Kernel) Spawned() bool { return k.nextPID != 0 }

// urandomBytes fills b from the boot-seeded xorshift64 stream backing
// /dev/urandom. The stream is machine-global: interleaved readers observe
// a deterministic function of the read sequence, which differential runs
// replay identically.
func (k *Kernel) urandomBytes(b []byte) {
	s := k.urand
	for i := range b {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = byte(s)
	}
	k.urand = s
}

// PostSignal marks sig pending on p; it is delivered at the next return
// to user mode. If the signal is deliverable (unmasked), any of p's
// threads parked on a wait queue are woken: the blocked syscall restarts,
// the handler (or default action) runs at the kernel→user transition, and
// the syscall re-executes afterwards — BSD restart semantics.
func (k *Kernel) PostSignal(p *Proc, sig int) {
	if sig <= 0 || sig >= NSig {
		return
	}
	p.SigPending |= 1 << uint(sig)
	if p.SigPending&^p.SigMask == 0 {
		return
	}
	for _, t := range p.Threads {
		if t.State == ThreadBlocked {
			t.unsubscribe()
			t.State = ThreadRunnable
			k.runqPush(t)
		}
	}
}

// OnMallocTrace reports an allocator-derived capability to the Figure 5
// tracer.
func (k *Kernel) OnMallocTrace(c cap.Capability) { k.capCreated("malloc", c) }

// newProc allocates a process shell (no address space yet; execve builds it).
func (k *Kernel) newProc(parent *Proc) *Proc {
	k.nextPID++
	p := &Proc{
		PID:      k.nextPID,
		Parent:   parent,
		Children: map[int]*Proc{},
		CWD:      "/",
	}
	if parent != nil {
		parent.Children[p.PID] = p
	}
	k.procs[p.PID] = p
	return p
}

func (k *Kernel) newThread(p *Proc) *Thread {
	k.nextTID++
	t := &Thread{TID: k.nextTID, Proc: p, State: ThreadRunnable}
	p.Threads = append(p.Threads, t)
	k.runqPush(t)
	return t
}

// switchTo loads t's state onto the CPU.
func (k *Kernel) switchTo(t *Thread) {
	c := k.M.CPU
	c.X = t.Frame.X
	c.C = t.Frame.C
	c.PC = t.Frame.PC
	c.PCC = t.Frame.PCC
	c.DDC = t.Frame.DDC
	c.AS = t.Proc.AS
}

// saveFrom stores the CPU state back into t.
func (k *Kernel) saveFrom(t *Thread) {
	c := k.M.CPU
	t.Frame.X = c.X
	t.Frame.C = c.C
	t.Frame.PC = c.PC
	t.Frame.PCC = c.PCC
	t.Frame.DDC = c.DDC
}

// runqPush appends t to the tail of the scheduler ring.
func (k *Kernel) runqPush(t *Thread) {
	k.runq = append(k.runq, t)
}

// runqPop removes and returns the ring head, or nil. The backing array is
// reused: the head index advances instead of re-slicing, and the live
// tail is periodically copied down to the front, so steady-state rotation
// (pop, run, push) performs no allocation — the old scheduler rebuilt the
// whole queue with three chained appends on every switch.
func (k *Kernel) runqPop() *Thread {
	if k.runqHead == len(k.runq) {
		return nil
	}
	t := k.runq[k.runqHead]
	k.runq[k.runqHead] = nil // release the reference for reuse hygiene
	k.runqHead++
	if k.runqHead == len(k.runq) {
		k.runq = k.runq[:0]
		k.runqHead = 0
	} else if k.runqHead >= 64 && k.runqHead*2 >= len(k.runq) {
		// Amortized compaction: the popped prefix pays for the copy.
		n := copy(k.runq, k.runq[k.runqHead:])
		k.runq = k.runq[:n]
		k.runqHead = 0
	}
	return t
}

// pickRunnable pops the next schedulable thread in FIFO (round-robin)
// order, or nil. Blocked threads never appear here — a wait-queue wake is
// the only way back into the ring — so picking is O(1) regardless of how
// many threads are parked. Threads that exited while queued are dropped
// lazily; threads of ptrace-suspended processes are parked aside until
// the tracer detaches.
func (k *Kernel) pickRunnable() *Thread {
	for {
		t := k.runqPop()
		if t == nil {
			return nil
		}
		if t.State != ThreadRunnable {
			continue
		}
		if t.Proc.Suspended {
			k.parked = append(k.parked, t)
			continue
		}
		return t
	}
}

// resumeProc returns a formerly ptrace-suspended process's parked threads
// to the scheduler ring.
func (k *Kernel) resumeProc(p *Proc) {
	kept := k.parked[:0]
	for _, t := range k.parked {
		switch {
		case t.State != ThreadRunnable: // exited while parked
		case t.Proc == p:
			k.runqPush(t)
		default:
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(k.parked); i++ {
		k.parked[i] = nil
	}
	k.parked = kept
}

// Quantum is the scheduler time slice in instructions.
const Quantum = 50_000

// ErrDeadlock is returned when every thread is blocked.
var ErrDeadlock = fmt.Errorf("kernel: all threads blocked (deadlock)")

// ErrBudget is returned when the instruction budget is exhausted.
var ErrBudget = fmt.Errorf("kernel: instruction budget exhausted")

// Run schedules threads until no runnable or blocked threads remain, the
// instruction budget is exhausted (0 = 2e9), or stop returns true.
func (k *Kernel) Run(budget uint64, stop func() bool) error {
	if budget == 0 {
		budget = 2_000_000_000
	}
	start := k.M.CPU.Stats.Instructions
	for {
		if stop != nil && stop() {
			return nil
		}
		if k.M.CPU.Stats.Instructions-start > budget {
			return ErrBudget
		}
		// Timed waiters whose deadline arrived during the last quantum
		// wake here, so a sleeper's expiry is observed even while other
		// threads keep the runq busy.
		k.fireDueTimers()
		t := k.pickRunnable()
		if t == nil {
			// Runq empty but timers pending: advance virtual time straight
			// to the earliest deadline (tickless skip) and reschedule.
			if k.timerSkip() {
				continue
			}
			// Nothing schedulable and no timer armed. Blocked threads with
			// no pending wake — including threads parked on empty wait
			// queues — mean the system can never make progress again:
			// deadlock. (Threads of suspended processes are excluded,
			// matching ptrace stops.)
			for _, p := range k.procs {
				if p.Suspended {
					continue
				}
				for _, th := range p.Threads {
					if th.State == ThreadBlocked {
						return ErrDeadlock
					}
				}
			}
			return nil
		}
		k.runThread(t, Quantum)
	}
}

// runThread gives t one quantum on the CPU: context switch, pending
// signal delivery, execution, trap handling, round-robin re-enqueue.
// Shared by Run and StepSlice.
func (k *Kernel) runThread(t *Thread, quantum uint64) {
	k.charge(CostContextSwitch)
	k.switchTo(t)
	// Deliver pending signals at kernel->user transition.
	if k.deliverPending(t) {
		return // delivery killed the thread
	}
	tr := k.M.CPU.Run(quantum)
	k.saveFrom(t)
	if tr != nil {
		k.handleTrap(t, tr)
	}
	// Round-robin: the thread rejoins the tail unless it blocked or
	// exited during the quantum (a wait-queue wake re-enqueues it).
	if t.State == ThreadRunnable {
		k.runqPush(t)
	}
}

// StepSlice runs the machine for up to budget instructions at the
// current virtual time and returns the number executed. Unlike Run it
// never skips virtual time to a timer deadline and never reports
// deadlock: a multi-machine coordinator (internal/fabric) owns global
// time advance and global deadlock detection, and calls StepSlice to
// interleave machines at bounded granularity. Returns 0 when nothing is
// runnable now — the machine is idle until a timer fires or a packet
// delivery wakes a wait queue.
func (k *Kernel) StepSlice(budget uint64) uint64 {
	start := k.M.CPU.Stats.Instructions
	for {
		used := k.M.CPU.Stats.Instructions - start
		if used >= budget {
			return used
		}
		k.fireDueTimers()
		t := k.pickRunnable()
		if t == nil {
			return k.M.CPU.Stats.Instructions - start
		}
		quantum := budget - used
		if quantum > Quantum {
			quantum = Quantum
		}
		k.runThread(t, quantum)
	}
}

// RunnableNow reports whether a thread could be scheduled at the current
// virtual time, firing any due timers as a side effect. Coordinator
// accessor (see internal/fabric).
func (k *Kernel) RunnableNow() bool {
	k.fireDueTimers()
	for i := k.runqHead; i < len(k.runq); i++ {
		t := k.runq[i]
		if t != nil && t.State == ThreadRunnable && !t.Proc.Suspended {
			return true
		}
	}
	return false
}

// NextTimerDeadline returns the earliest armed timer deadline, if any.
// Coordinator accessor.
func (k *Kernel) NextTimerDeadline() (uint64, bool) {
	e := k.timerPeek()
	if e == nil {
		return 0, false
	}
	return e.deadline, true
}

// AdvanceClock moves virtual time forward to `to` (never backward) and
// fires any timers that became due. The coordinator advances an idle
// machine's clock to the next event — a packet delivery time or its own
// earliest timer deadline — the multi-machine analogue of Run's tickless
// timerSkip.
func (k *Kernel) AdvanceClock(to uint64) {
	if to > k.M.CPU.Stats.Cycles {
		k.M.CPU.Stats.Cycles = to
	}
	k.fireDueTimers()
}

// BlockedThreads counts threads parked on wait queues (excluding
// ptrace-suspended processes), for the coordinator's deadlock report.
func (k *Kernel) BlockedThreads() int {
	n := 0
	for _, p := range k.procs {
		if p.Suspended {
			continue
		}
		for _, t := range p.Threads {
			if t.State == ThreadBlocked {
				n++
			}
		}
	}
	return n
}

// RunUntilExit drives the system until p terminates.
func (k *Kernel) RunUntilExit(p *Proc, budget uint64) error {
	err := k.Run(budget, func() bool { return p.Exited() })
	if err == nil && !p.Exited() {
		return fmt.Errorf("kernel: system idle but pid %d has not exited", p.PID)
	}
	return err
}

func (k *Kernel) handleTrap(t *Thread, tr *cpu.Trap) {
	p := t.Proc
	k.charge(CostTrap)
	if p.ABI == image.ABICheri {
		k.charge(CostTrapCheriExtra)
	}
	switch tr.Kind {
	case cpu.TrapSyscall:
		k.syscall(t)
	case cpu.TrapNCall:
		k.native(t, tr.NCall)
	case cpu.TrapBreak:
		k.deliverOrKill(t, SIGTRAP)
	case cpu.TrapCapFault:
		k.deliverOrKill(t, SIGPROT)
	case cpu.TrapPageFault:
		k.deliverOrKill(t, SIGSEGV)
	case cpu.TrapAlignment:
		k.deliverOrKill(t, SIGBUS)
	case cpu.TrapReserved:
		k.deliverOrKill(t, SIGILL)
	default:
		k.deliverOrKill(t, SIGILL)
	}
}

// exitProc terminates a process with the given wait status.
func (k *Kernel) exitProc(p *Proc, status int) {
	if p.State == ProcZombie {
		return
	}
	p.State = ProcZombie
	p.Status = status
	for _, t := range p.Threads {
		if t.State == ThreadBlocked {
			t.unsubscribe()
		}
		t.State = ThreadExited // ring/parked entries are dropped lazily
	}
	for _, f := range p.FDs {
		if f != nil {
			f.close(k) // the last reference may wake peers (EOF, EPIPE)
		}
	}
	p.FDs = nil
	if p.AS != nil {
		p.AS.Release()
	}
	// Reparent children to nobody; they self-reap on exit.
	for _, c := range p.Children {
		c.Parent = nil
	}
	if p.Parent != nil {
		k.PostSignal(p.Parent, SIGCHLD)
		p.Parent.childq.Wake(k)
	}
}

// Reap removes a zombie from the process table.
func (k *Kernel) Reap(p *Proc) {
	if p.Parent != nil {
		delete(p.Parent.Children, p.PID)
	}
	delete(k.procs, p.PID)
}

// installRederive arms the swap-in rederivation hook for a process: a
// restored capability keeps its tag only if it is a subset of the
// process's root ("the swap-in code derives a new architectural capability
// from the saved values and an appropriate root capability").
func (k *Kernel) installRederive(p *Proc) {
	p.AS.Rederive = func(pa uint64) bool {
		buf := make([]byte, cap.Bytes)
		k.M.Mem.LoadCap(pa, buf)
		c := cap.Decode(buf, true)
		root := p.Root
		ok := c.Base() >= root.Base() && c.Top() <= root.Top() && c.Perms()&^root.Perms() == 0
		if ok && k.Ledger != nil && p.AbsRoot != nil {
			k.Ledger.Derive(p.Prin, p.AbsRoot, c, core.OriginSwapRederive)
		}
		return ok
	}
}

// SwapOutProc evicts every resident page of p (the experiment hook that
// exercises tag-stripping swap and rederivation).
func (k *Kernel) SwapOutProc(p *Proc) int {
	n := 0
	for _, r := range p.AS.Regions() {
		for va := r.Start; va < r.End; va += vm.PageSize {
			if p.AS.Resident(va) {
				if err := p.AS.SwapOut(va); err == nil {
					k.charge(CostSwapIO)
					n++
				}
			}
		}
	}
	return n
}
