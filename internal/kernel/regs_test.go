package kernel

import (
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/cpu"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
)

// residencyCode is the target program of TestRegisterFilesSurviveSwitches:
// its main thread forks once, and every thread then loops on getpid.
// Only RV0 and RV1 change, so every other register must keep the value
// the test put there. The last instruction is the signal handler.
func residencyCode(abi image.ABI) []isa.Inst {
	ret := isa.Inst{Op: isa.JR, Ra: isa.RRA}
	if abi == image.ABICheri {
		ret = isa.Inst{Op: isa.CJR, Ra: isa.CRA}
	}
	return []isa.Inst{
		{Op: isa.ADDI, Ra: isa.RV0, Imm: nat.SysFork},
		{Op: isa.SYSCALL},
		{Op: isa.ADDI, Ra: isa.RV0, Imm: nat.SysGetpid}, // loop
		{Op: isa.SYSCALL},
		{Op: isa.J, Imm: -2},
		ret, // the signal handler
	}
}

const (
	residencyLoop    = 2 // instruction index of the getpid loop
	residencyHandler = 5 // instruction index of the handler
)

// regPattern fills f with registers that name their thread (id) and their
// index. The legacy stack pointer and the capability stack pointer keep
// their values: signal delivery pushes its frame below them. Under the
// legacy ABI the capability registers are not part of the signal frame,
// so they keep the NULL capabilities exec gave them.
func regPattern(f *Frame, abi image.ABI, id int) {
	for i := 1; i < isa.NumRegs; i++ {
		if abi == image.ABILegacy && i == isa.RSP {
			continue
		}
		f.X[i] = uint64(id)<<32 | uint64(i)
	}
	if abi == image.ABILegacy {
		return
	}
	sc := f.C[isa.CSP]
	for i := 1; i < isa.NumRegs; i++ {
		if i != isa.CSP {
			f.C[i] = cap.SetAddr(sc, sc.Base()+uint64(id*isa.NumRegs+i)*cap.Bytes)
		}
	}
}

// checkPattern reports every register of f outside RV0, RV1 and PC that
// differs from want.
func checkPattern(t *testing.T, who string, f, want *Frame) {
	t.Helper()
	for i := 1; i < isa.NumRegs; i++ {
		if i != isa.RV0 && i != isa.RV1 && f.X[i] != want.X[i] {
			t.Errorf("%s: x%d = %#x, want %#x", who, i, f.X[i], want.X[i])
		}
		if !f.C[i].Equal(want.C[i]) {
			t.Errorf("%s: c%d = %v, want %v", who, i, f.C[i], want.C[i])
		}
	}
	if !f.PCC.Equal(want.PCC) || !f.DDC.Equal(want.DDC) {
		t.Errorf("%s: pcc/ddc = %v/%v, want %v/%v", who, f.PCC, f.DDC, want.PCC, want.DDC)
	}
}

// TestRegisterFilesSurviveSwitches holds the residency contract of
// Kernel.switchTo and Kernel.regs: the CPU holds the current thread's
// registers, every other thread's are in its saved frame, and every
// kernel reader and writer reaches them through regs. Two threads of one
// process and the child one of them forks loop on getpid, interleaved by
// the scheduler; a signal is delivered and returns through sigreturn; a
// tracer reads the main thread's registers through ptrace, once from its
// saved frame and once while they are still on the CPU; and a syscall
// issued by the thread on the CPU returns its result there. Every
// register file must come through all of it unchanged.
func TestRegisterFilesSurviveSwitches(t *testing.T) {
	for _, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
		t.Run(abi.String(), func(t *testing.T) {
			sigreturns := 0
			m := NewMachine(Config{MemBytes: 64 << 20, OnTrap: func(tr *cpu.Trap) {
				if tr.Kind == cpu.TrapSyscall && tr.PC == TrampVA+isa.InstSize {
					sigreturns++
				}
			}})
			k := m.Kern
			p := spawnCode(t, m, "target", abi, residencyCode(abi)...)
			tracer := spawnCode(t, m, "tracer", abi, residencyCode(abi)[residencyLoop:residencyHandler]...)
			tt := tracer.mainThread()
			tracerEntry := k.regs(tt).PC

			a := p.mainThread()
			entry := k.regs(a).PC
			b := k.newThread(p)
			*k.regs(b) = *k.regs(a)
			regPattern(k.regs(a), abi, 1)
			regPattern(k.regs(b), abi, 2)
			k.regs(b).PC = entry + residencyLoop*isa.InstSize
			wantA, wantB := *k.regs(a), *k.regs(b)

			// The handler's descriptor [code, GOT], well below the stack
			// pointer, where signal frames do not reach.
			k.switchTo(a)
			fa := k.regs(a)
			handlerPC := entry + residencyHandler*isa.InstSize
			if abi == image.ABICheri {
				sc := fa.C[isa.CSP]
				va := (sc.Addr() - 0x8000) &^ (cap.Bytes - 1)
				desc, err := cap.SetBounds(sc, va, 2*cap.Bytes)
				if err == nil {
					err = m.CPU.StoreCapVia(sc, va, cap.SetAddr(fa.PCC, handlerPC))
				}
				if err != nil {
					t.Fatal(err)
				}
				p.Sig[SIGUSR1] = SigAction{Handler: desc, Set: true}
			} else {
				va := (fa.X[isa.RSP] - 0x8000) &^ 15
				if err := m.CPU.StoreVia(fa.DDC, va, 8, handlerPC); err != nil {
					t.Fatal(err)
				}
				p.Sig[SIGUSR1] = SigAction{Handler: cap.NullWithAddr(va), Set: true}
			}

			k.StepSlice(3000)
			if len(p.Children) != 1 {
				t.Fatalf("target has %d children, want the one it forked", len(p.Children))
			}
			var child *Proc
			for _, c := range p.Children {
				child = c
			}
			ct := child.mainThread()
			if ct == nil || k.regs(ct).X[isa.RV0] == 0 { // fork's result in the child
				t.Fatal("the forked child never ran")
			}

			k.PostSignal(p, SIGUSR1)
			k.StepSlice(3000)
			if sigreturns == 0 || p.SigMask != 0 || p.SigPending != 0 {
				t.Fatalf("signal not delivered and returned: %d sigreturns, mask %#x, pending %#x", sigreturns, p.SigMask, p.SigPending)
			}

			// ptrace from the tracer: attach, then read a's registers.
			tf := k.regs(tt)
			auth, sp := tf.DDC, tf.X[isa.RSP]
			if abi == image.ABICheri {
				auth, sp = tf.C[isa.CSP], tf.C[isa.CSP].Addr()
			}
			bufVA := (sp - 0x8000) &^ 15
			buf, err := cap.SetBounds(auth, bufVA, 64)
			if err != nil {
				t.Fatal(err)
			}
			h := &ioProc{k: k, th: tt, buf: buf}
			// ptrace issues one request from the tracer. With onCPU the
			// target's thread is still on the CPU: the call is dispatched
			// without switching the tracer in.
			ptrace := func(req int, data uint64, onCPU bool) uint64 {
				t.Helper()
				call := h.call
				if onCPU {
					call = h.dispatch
				}
				v, e := call(nat.SysPtrace, []uint64{uint64(req), uint64(p.PID), data}, []cap.Capability{buf})
				k.regs(tt).PC = tracerEntry
				if e != OK {
					t.Fatalf("ptrace(%d, %d): %v", req, data, e)
				}
				return v
			}
			ptrace(PtAttach, 0, false)
			for _, onCPU := range []bool{false, true} {
				if onCPU {
					k.switchTo(a)
				}
				for i := uint64(1); i < isa.NumRegs; i++ {
					if i == isa.RV0 || i == isa.RV1 {
						continue
					}
					if got := ptrace(PtGetReg, i, onCPU); got != wantA.X[i] {
						t.Errorf("ptrace (on CPU %v) reads x%d = %#x, want %#x", onCPU, i, got, wantA.X[i])
					}
					if abi == image.ABILegacy {
						continue
					}
					ptrace(PtGetCapReg, i, onCPU)
					k.switchTo(tt)
					addr, err := m.CPU.LoadVia(buf, bufVA+3*8, 8)
					if err != nil {
						t.Fatal(err)
					}
					if addr != wantA.C[i].Addr() {
						t.Errorf("ptrace (on CPU %v) reads c%d at %#x, want %#x", onCPU, i, addr, wantA.C[i].Addr())
					}
					if onCPU {
						k.switchTo(a)
					}
				}
			}
			ptrace(PtDetach, 0, false)
			k.StepSlice(3000)

			// A syscall of the thread on the CPU returns its result there.
			cur := k.cur
			f := k.regs(cur)
			if f != &m.CPU.Regs {
				t.Fatal("regs of the current thread is not the CPU's register file")
			}
			pc := f.PC
			f.X[isa.RV0] = nat.SysGetpid
			k.syscall(cur)
			if m.CPU.X[isa.RV0] != uint64(cur.Proc.PID) || m.CPU.PC != pc+isa.InstSize {
				t.Errorf("getpid on the CPU left v0 %d pc %#x, want %d %#x", m.CPU.X[isa.RV0], m.CPU.PC, cur.Proc.PID, pc+isa.InstSize)
			}

			checkPattern(t, "thread a", k.regs(a), &wantA)
			checkPattern(t, "thread b", k.regs(b), &wantB)
			checkPattern(t, "forked child", k.regs(ct), &wantA)
			for _, th := range []*Thread{a, b, ct} {
				if v := k.regs(th).X[isa.RV0]; v != nat.SysGetpid && v != uint64(th.Proc.PID) {
					t.Errorf("thread %d: v0 = %d, want getpid's number or result", th.TID, v)
				}
			}
		})
	}
}
