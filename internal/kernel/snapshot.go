package kernel

import (
	"fmt"

	"cheriabi/internal/cache"
	"cheriabi/internal/cap"
	"cheriabi/internal/core"
	"cheriabi/internal/isa"
	"cheriabi/internal/mem"
	"cheriabi/internal/vm"
)

// Machine checkpoint/clone. A MachineSnapshot freezes the post-boot state
// of a quiescent machine — kernel tables, the VFS, the abstract-capability
// ledger, the frame allocator, swap, and physical memory (shared
// copy-on-write at mem's 64 KiB chunk granularity) — and Boot stamps out
// fresh machines from it in O(touched chunks) instead of re-running boot.
//
// What is shared vs copied:
//
//   - mem.Physical chunks: shared copy-on-write; the first write to a
//     chunk (by the source or any clone) privatizes it.
//   - Frames, SwapStore, FS, shm segments: deep-copied twice — once into
//     the snapshot (freezing them against later source mutation) and once
//     per Boot — so every clone owns its allocator and file tree outright
//     and clones can boot concurrently.
//   - Ledger: per-clone maps over shared immutable Principal/AbstractCap
//     nodes (derivation only appends).
//   - CPU, cache hierarchy, uaccess space: built fresh per Boot with the
//     new Config's observers. A clone therefore starts with no decoded
//     pages and an empty micro-TLB, and its AddressSpaces are created after the
//     clone (none exist at snapshot time), so the AS.Gen invalidation
//     protocol needs no snapshot-specific handling: there is no stale
//     cached translation or decoded block for a clone to observe.
//
// Per-boot state that NewMachine derives from its Config — the layout
// perturbation (Seed), the /dev/urandom stream, the console, tracers, and
// the trap observer — is re-derived by Boot from the Config it
// is given, by exactly NewMachine's rules. Snapshot a Seed-0 boot and
// Boot(cfg) is state-identical to NewMachine(cfg): everything boot does
// besides the seed perturbation is host-side table construction that
// commutes with it. (A partially consumed urandom stream is not carried
// across Boot; pin cfg.UrandomSeed if a cloned run must continue one.)
type MachineSnapshot struct {
	mem    *mem.Snapshot
	frames *vm.Frames
	swap   *vm.SwapStore
	nextAS uint64

	fs       *FS
	ledger   *core.Ledger
	kernPrin *core.Principal
	resetAbs *core.AbstractCap
	kernRoot cap.Capability

	shmSegs   map[int]*shmSeg
	nextShmID int
	nextPID   int
	nextTID   int

	ctxSwitches uint64
	cycles      uint64

	format cap.Format
	feat   isa.Features
}

// Snapshot captures the machine's state. The machine must be quiescent —
// no processes (and so no threads or address spaces), an empty scheduler
// ring, and no bound AF_UNIX sockets — because live CPU context, wait
// queues, and socket connections are not checkpointable state. The usual
// subject is a freshly booted machine, captured once and cloned per sweep
// row.
func (m *Machine) Snapshot() (*MachineSnapshot, error) {
	k := m.Kern
	switch {
	case k.PendingTimers() != 0:
		return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: %d pending timers", k.PendingTimers())
	case len(k.procs) != 0:
		return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: %d live processes", len(k.procs))
	case k.runqHead != len(k.runq) || len(k.parked) != 0:
		return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: scheduler ring not empty")
	case len(k.unixNS) != 0:
		return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: %d bound AF_UNIX sockets", len(k.unixNS))
	case len(k.inetNS) != 0:
		return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: %d bound AF_INET ports", len(k.inetNS))
	case len(k.netConns) != 0:
		return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: %d live inet connections", len(k.netConns))
	case len(k.netOut) != 0:
		return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: %d packets queued on the NIC", len(k.netOut))
	case k.netAttached:
		return nil, fmt.Errorf("kernel: snapshot requires a quiescent machine: NIC attached to a fabric")
	}
	shm := make(map[int]*shmSeg, len(k.shmSegs))
	for id, seg := range k.shmSegs {
		frames := make([]uint64, len(seg.frames))
		copy(frames, seg.frames)
		shm[id] = &shmSeg{id: seg.id, size: seg.size, frames: frames}
	}
	return &MachineSnapshot{
		mem:         m.Mem.Snapshot(),
		frames:      m.VM.Frames.Clone(),
		swap:        m.VM.Swap.Clone(),
		nextAS:      m.VM.NextAS(),
		fs:          k.FS.Clone(),
		ledger:      k.Ledger.Clone(),
		kernPrin:    k.KernPrin,
		resetAbs:    k.resetAbs,
		kernRoot:    k.kernRoot,
		shmSegs:     shm,
		nextShmID:   k.nextShmID,
		nextPID:     k.nextPID,
		nextTID:     k.nextTID,
		ctxSwitches: k.ContextSwitches,
		cycles:      m.CPU.Stats.Cycles,
		format:      m.Fmt,
		feat:        m.Feat,
	}, nil
}

// Boot stamps a new machine from the snapshot. cfg.MemBytes and
// cfg.Format are fixed by the snapshot and ignored; every other Config
// field — the seed, the urandom stream, console, tracers, and the trap
// observer — applies to the clone exactly as it would
// to NewMachine, including the seed-dependent boot-time frame
// perturbation. The snapshot is read-only here: Boot may be called
// concurrently from any number of goroutines.
func (s *MachineSnapshot) Boot(cfg Config) *Machine {
	m := &Machine{
		Mem:  s.mem.Clone(),
		Hier: cache.DefaultHierarchy(),
		Fmt:  s.format,
		Feat: s.feat,
	}
	m.VM = vm.RestoreSystem(m.Mem, s.frames.Clone(), s.swap.Clone(), s.nextAS)
	if n := int(cfg.Seed % 61); n > 0 {
		m.VM.AllocFrames(n)
	}
	m.attachCPU(cfg)
	// The virtual clock is machine state: guests read it through
	// clock_gettime, so a clone must resume the snapshot's cycle count to
	// stay bit-identical to the machine it was taken from.
	m.CPU.Stats.Cycles = s.cycles

	shm := make(map[int]*shmSeg, len(s.shmSegs))
	for id, seg := range s.shmSegs {
		frames := make([]uint64, len(seg.frames))
		copy(frames, seg.frames)
		shm[id] = &shmSeg{id: seg.id, size: seg.size, frames: frames}
	}
	k := &Kernel{
		M:               m,
		FS:              s.fs.Clone(),
		Ledger:          s.ledger.Clone(),
		KernPrin:        s.kernPrin,
		resetAbs:        s.resetAbs,
		kernRoot:        s.kernRoot,
		procs:           map[int]*Proc{},
		unixNS:          map[string]*socketFile{},
		netAddr:         NetLoopback,
		inetNS:          map[uint64]*socketFile{},
		netConns:        map[int]*socketFile{},
		nextPort:        netEphemeralBase,
		Natives:         map[int]NativeFunc{},
		shmSegs:         shm,
		nextShmID:       s.nextShmID,
		nextPID:         s.nextPID,
		nextTID:         s.nextTID,
		seed:            cfg.Seed,
		Console:         cfg.Console,
		SyscallCount:    map[int]uint64{},
		ContextSwitches: s.ctxSwitches,
	}
	k.urand = deriveURand(cfg)
	m.Kern = k
	return m
}
