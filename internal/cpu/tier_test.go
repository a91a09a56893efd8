package cpu

import (
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/isa"
	"cheriabi/internal/vm"
)

// The engine-tier table: scenarios that leave a page or transfer through
// CJR/CJALR — the points where the threaded engine hands the next
// instruction back to Step — while code is patched, translations are
// revoked, or the address space forks underneath. runTiers runs each one
// on the reference and the fast engine and requires identical registers,
// Stats and trap (kind and PC); each case's check then pins the
// architectural outcome.

// instsPerPage is how many instruction slots one page holds.
const instsPerPage = int(vm.PageSize / isa.InstSize)

// targetVA is the first instruction of code page 1.
const targetVA = codeVA + vm.PageSize

// padTo appends NOPs until the program is n instructions long.
func padTo(prog []isa.Inst, n int) []isa.Inst {
	for len(prog) < n {
		prog = append(prog, isa.Inst{Op: isa.NOP})
	}
	return prog
}

// tierCase is one engine-tier scenario.
type tierCase struct {
	prog  []isa.Inst
	setup func(c *CPU) // optional, runs before the program is loaded
	// drive runs the loaded program and returns the trap it stopped on;
	// nil runs it to its BREAK.
	drive func(t *testing.T, c *CPU) *Trap
	// check pins the outcome of one run; engineName(c) names the run.
	check func(t *testing.T, c *CPU, tr *Trap)
}

// tierState is what must match across the two engines.
type tierState struct {
	X        [isa.NumRegs]uint64
	C        [isa.NumRegs]cap.Capability
	PC       uint64
	PCC      cap.Capability
	Stats    Stats
	TrapKind TrapKind
	TrapPC   uint64
}

// engineName names the engine c runs, for failure messages.
func engineName(c *CPU) string {
	if c.Reference {
		return "reference"
	}
	return "fast"
}

// runTiers runs tc on the reference and then on the fast engine and
// requires the fast run to end in the state the reference ends in. Each
// run must also have taken its own engine's path: the reference never
// decodes a page or runs a threaded instruction, and the fast engine
// does, with every decoded-block hit inside a threaded run.
func runTiers(t *testing.T, tc tierCase) {
	t.Helper()
	var want tierState
	for _, ref := range []bool{true, false} {
		c := newTestCPU(t)
		c.Reference = ref
		e := engineName(c)
		if tc.setup != nil {
			tc.setup(c)
		}
		load(t, c, tc.prog)
		var tr *Trap
		if tc.drive != nil {
			tr = tc.drive(t, c)
		} else if tr = c.Run(1_000_000); tr == nil || tr.Kind != TrapBreak {
			t.Fatalf("%v: trap = %v, want a BREAK", e, tr)
		}
		got := tierState{X: c.X, C: c.C, PC: c.PC, PCC: c.PCC, Stats: c.Stats, TrapKind: -1}
		if tr != nil {
			got.TrapKind, got.TrapPC = tr.Kind, tr.PC
		}
		if tc.check != nil {
			tc.check(t, c, tr)
		}
		ds := c.DecodeStats
		if ref && (ds.Threaded != 0 || ds.Decodes != 0) {
			t.Fatalf("%v: the fast path ran: %+v", e, ds)
		}
		if !ref && (ds.Threaded == 0 || ds.Hits != ds.Threaded) {
			t.Fatalf("%v: threaded dispatch never ran or a hit came from outside it: %+v", e, ds)
		}
		if ref {
			want = got
		} else if got != want {
			t.Fatalf("%v diverged from the reference:\n got %+v\nwant %+v", e, got, want)
		}
	}
}

// wantR2 checks r2 after a run.
func wantR2(t *testing.T, c *CPU, want uint64) {
	t.Helper()
	if got := c.X[2]; got != want {
		t.Fatalf("%v: r2 = %d, want %d", engineName(c), got, want)
	}
}

// wantRedecoded checks that a patched page was decoded again: three
// decodes at least (two pages, then the patched one once more) on the
// fast engine, the one that decodes.
func wantRedecoded(t *testing.T, c *CPU) {
	t.Helper()
	if !c.Reference && c.DecodeStats.Decodes < 3 {
		t.Fatalf("%v: patched page was not re-decoded: %+v", engineName(c), c.DecodeStats)
	}
}

// wantTrap checks the trap a run stopped on.
func wantTrap(t *testing.T, c *CPU, tr *Trap, kind TrapKind, pc uint64) {
	t.Helper()
	if tr == nil || tr.Kind != kind || tr.PC != pc {
		t.Fatalf("%v: trap = %v, want %v at pc=%x", engineName(c), tr, kind, pc)
	}
}

// callTarget aims C12 at the callee entry point.
func callTarget(c *CPU) {
	c.C[12] = c.Fmt.SetAddr(c.PCC, targetVA)
}

// revocations are the two ways a test takes execute rights from the page
// at va.
var revocations = []struct {
	name   string
	revoke func(c *CPU, va uint64) error
}{
	{"mprotect", func(c *CPU, va uint64) error {
		return c.AS.Protect(va, vm.PageSize, vm.ProtRead|vm.ProtWrite)
	}},
	{"unmap", func(c *CPU, va uint64) error {
		return c.AS.Unmap(va, vm.PageSize)
	}},
}

// TestSuperblockChainsAcrossPages: straight-line code walks off the end of
// page 0 into page 1.
func TestSuperblockChainsAcrossPages(t *testing.T) {
	prog := make([]isa.Inst, 0, instsPerPage+1)
	for i := 0; i < instsPerPage; i++ {
		prog = append(prog, isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 1})
	}
	runTiers(t, tierCase{
		prog:  append(prog, isa.Inst{Op: isa.BREAK}),
		check: func(t *testing.T, c *CPU, _ *Trap) { wantR2(t, c, uint64(instsPerPage)) },
	})
}

// TestSuperblockSMCReprovesLink stores into the next page between
// fallthroughs into it: the next entry must execute the patched bytes.
//
// Iteration 1 skips the patch and executes the original target (r2 += 5).
// Iteration 2 patches the target to r2 += 9 from page 0, then falls
// through into it. Iteration 3 falls through once more. Stale decoded
// instructions would leave r2 = 15.
func TestSuperblockSMCReprovesLink(t *testing.T) {
	patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 9})
	prog := []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1}, // 0: iteration counter
		{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: 2}, // 1
		{Op: isa.BNE, Ra: 4, Rb: 5, Imm: 6},  // 2: skip patch unless iter 2
	}
	prog = append(prog, storeWordInsts(patched, targetVA)...) // 3..7
	prog = padTo(prog, instsPerPage)                          // fallthrough
	prog = append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 5},    // 1024: patch target
		isa.Inst{Op: isa.ADDI, Ra: 6, Rb: 0, Imm: 3},    // 1025
		isa.Inst{Op: isa.BNE, Ra: 4, Rb: 6, Imm: -1026}, // 1026: loop to 0
		isa.Inst{Op: isa.BREAK},                         // 1027
	)
	runTiers(t, tierCase{prog: prog, check: func(t *testing.T, c *CPU, _ *Trap) {
		wantR2(t, c, 5+9+9)
		wantRedecoded(t, c)
	}})
}

// crossPageLoop builds an endless two-page loop with a fixed iteration
// length of instsPerPage+2 retired instructions: page 0 counts in r2 and
// falls through; page 1 counts in r3 and jumps back.
func crossPageLoop() []isa.Inst {
	prog := []isa.Inst{{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 1}}
	prog = padTo(prog, instsPerPage)
	return append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 3, Rb: 3, Imm: 1},
		isa.Inst{Op: isa.J, Imm: -(int32(instsPerPage) + 1)},
	)
}

// TestSuperblockMprotectSeversLink drops execute rights on (or unmaps)
// page 1 of a running two-page loop while the PC is mid-way through page
// 0: the fault must surface exactly at page 1's first instruction.
func TestSuperblockMprotectSeversLink(t *testing.T) {
	iter := uint64(instsPerPage + 2)
	for _, rv := range revocations {
		t.Run(rv.name, func(t *testing.T) {
			runTiers(t, tierCase{
				prog: crossPageLoop(),
				drive: func(t *testing.T, c *CPU) *Trap {
					// Three laps, then 100 more instructions park the PC
					// mid-way through page 0.
					if tr := c.Run(3*iter + 100); tr != nil {
						t.Fatalf("%v: unexpected trap while priming: %v", engineName(c), tr)
					}
					if err := rv.revoke(c, targetVA); err != nil {
						t.Fatal(err)
					}
					return c.Run(10 * iter)
				},
				check: func(t *testing.T, c *CPU, tr *Trap) {
					wantTrap(t, c, tr, TrapPageFault, targetVA)
				},
			})
		})
	}
}

// TestSuperblockCJRLandsOnPatchedChainTarget falls through into page 1
// once, then patches it and enters it through CJALR: the capability jump
// must execute the patched bytes.
func TestSuperblockCJRLandsOnPatchedChainTarget(t *testing.T) {
	patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 9})
	prog := []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1}, // 0: iteration counter
		{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: 2}, // 1
		{Op: isa.BNE, Ra: 4, Rb: 5, Imm: 8},  // 2: skip patch+call unless iter 2
	}
	prog = append(prog, storeWordInsts(patched, targetVA)...) // 3..7
	prog = append(prog,
		isa.Inst{Op: isa.CJALR, Ra: 17, Rb: 12}, // 8: jump to the patched target
		isa.Inst{Op: isa.BREAK},                 // 9: unreachable
	)
	prog = padTo(prog, instsPerPage) // 10..1023: fallthrough on iter 1
	prog = append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 5},    // 1024: patch target
		isa.Inst{Op: isa.BNE, Ra: 4, Rb: 5, Imm: -1025}, // 1025: loop unless iter 2
		isa.Inst{Op: isa.BREAK},                         // 1026
	)
	runTiers(t, tierCase{prog: prog, setup: callTarget, check: func(t *testing.T, c *CPU, _ *Trap) {
		wantR2(t, c, 5+9)
		wantRedecoded(t, c)
	}})
}

// callLoop builds a call/return loop: page 0 counts iterations in r4 and
// CJALRs through C12 to page 1, which bumps r2 by inc and CJRs back
// through the C17 link; the loop exits after iters round trips.
func callLoop(iters, inc int32) []isa.Inst {
	prog := []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1},     // 0: iteration counter
		{Op: isa.CJALR, Ra: 17, Rb: 12},          // 1: call page 1
		{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: iters}, // 2
		{Op: isa.BNE, Ra: 4, Rb: 5, Imm: -3},     // 3: loop to 0
		{Op: isa.BREAK},                          // 4
	}
	prog = padTo(prog, instsPerPage)
	return append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: inc}, // 1024: callee body
		isa.Inst{Op: isa.CJR, Ra: 17},                  // 1025: return
	)
}

// endlessCallLoop is callLoop without an exit: CJALR to page 1, return,
// jump back — three retired instructions per round trip, forever.
func endlessCallLoop() []isa.Inst {
	prog := []isa.Inst{
		{Op: isa.CJALR, Ra: 17, Rb: 12}, // 0: call page 1
		{Op: isa.J, Imm: -1},            // 1: back to the call
	}
	prog = padTo(prog, instsPerPage)
	return append(prog, isa.Inst{Op: isa.CJR, Ra: 17}) // 1024: return
}

// TestIndirectCacheServesCallReturnLoop runs a call/return loop across
// two pages to completion.
func TestIndirectCacheServesCallReturnLoop(t *testing.T) {
	const iters = 20
	runTiers(t, tierCase{prog: callLoop(iters, 5), setup: callTarget,
		check: func(t *testing.T, c *CPU, _ *Trap) { wantR2(t, c, 5*iters) }})
}

// TestIndirectSMCReprovesEntry patches the callee body between calls: the
// next call must execute the patched bytes.
//
// Iteration 1 calls the original callee (r2 += 5). Iteration 2 patches
// the callee to r2 += 9 and calls again; iteration 3 calls once more. A
// stale callee would leave r2 = 15.
func TestIndirectSMCReprovesEntry(t *testing.T) {
	patched := isa.MustEncode(isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 9})
	prog := []isa.Inst{
		{Op: isa.ADDI, Ra: 4, Rb: 4, Imm: 1}, // 0: iteration counter
		{Op: isa.ADDI, Ra: 5, Rb: 0, Imm: 2}, // 1
		{Op: isa.BNE, Ra: 4, Rb: 5, Imm: 6},  // 2: skip patch unless iter 2
	}
	prog = append(prog, storeWordInsts(patched, targetVA)...) // 3..7
	prog = append(prog,
		isa.Inst{Op: isa.CJALR, Ra: 17, Rb: 12},       // 8: call page 1
		isa.Inst{Op: isa.ADDI, Ra: 6, Rb: 0, Imm: 3},  // 9
		isa.Inst{Op: isa.BNE, Ra: 4, Rb: 6, Imm: -10}, // 10: loop to 0
		isa.Inst{Op: isa.BREAK},                       // 11
	)
	prog = padTo(prog, instsPerPage)
	prog = append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 5}, // 1024: patch target
		isa.Inst{Op: isa.CJR, Ra: 17},                // 1025: return
	)
	runTiers(t, tierCase{prog: prog, setup: callTarget, check: func(t *testing.T, c *CPU, _ *Trap) {
		wantR2(t, c, 5+9+9)
		wantRedecoded(t, c)
	}})
}

// TestIndirectMprotectSeversEntry revokes execute rights on (or unmaps)
// the callee page of a running call loop: the next call must fault
// exactly at the callee's first instruction.
func TestIndirectMprotectSeversEntry(t *testing.T) {
	for _, rv := range revocations {
		t.Run(rv.name, func(t *testing.T) {
			runTiers(t, tierCase{
				prog:  endlessCallLoop(),
				setup: callTarget,
				drive: func(t *testing.T, c *CPU) *Trap {
					// 101 ≡ 2 (mod 3) instructions park the PC on page 0's
					// J, not on the callee's CJR, whose own fetch would
					// fault first.
					if tr := c.Run(101); tr != nil {
						t.Fatalf("%v: unexpected trap while priming: %v", engineName(c), tr)
					}
					if err := rv.revoke(c, targetVA); err != nil {
						t.Fatal(err)
					}
					return c.Run(100)
				},
				check: func(t *testing.T, c *CPU, tr *Trap) {
					wantTrap(t, c, tr, TrapPageFault, targetVA)
				},
			})
		})
	}
}

// TestIndirectBadCalleeTrapsWithoutFill jumps through a sealed and an
// untagged capability: the transfer must trap at the CJALR itself and
// leave the link register unwritten.
func TestIndirectBadCalleeTrapsWithoutFill(t *testing.T) {
	sealRoot := cap.Root(1, 100, cap.PermSeal)
	for _, tc := range []struct {
		name string
		mut  func(cap.Capability) cap.Capability
	}{
		{"sealed", func(cb cap.Capability) cap.Capability {
			sealed, err := cb.Seal(sealRoot)
			if err != nil {
				t.Fatalf("sealing callee capability: %v", err)
			}
			return sealed
		}},
		{"untagged", func(cb cap.Capability) cap.Capability {
			return cb.ClearTag()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runTiers(t, tierCase{
				prog: []isa.Inst{
					{Op: isa.NOP}, // keeps the CJALR on the threaded path
					{Op: isa.CJALR, Ra: 17, Rb: 12},
					{Op: isa.BREAK},
				},
				setup: func(c *CPU) {
					callTarget(c)
					c.C[12] = tc.mut(c.C[12])
				},
				drive: func(t *testing.T, c *CPU) *Trap { return c.Run(100) },
				check: func(t *testing.T, c *CPU, tr *Trap) {
					wantTrap(t, c, tr, TrapCapFault, codeVA+isa.InstSize)
					if c.C[17].Tag() {
						t.Fatalf("%v: failed CJALR wrote the link register", engineName(c))
					}
				},
			})
		})
	}
}

// TestIndirectNarrowerCapabilityMisses calls the same target twice, first
// through a PCC-derived capability and then through one narrowed to the
// callee page: both calls must run the callee.
func TestIndirectNarrowerCapabilityMisses(t *testing.T) {
	prog := []isa.Inst{
		{Op: isa.NOP},                   // 0: keeps the CJALR on the threaded path
		{Op: isa.CJALR, Ra: 17, Rb: 12}, // 1: call page 1
		{Op: isa.BREAK},                 // 2
	}
	prog = padTo(prog, instsPerPage)
	prog = append(prog,
		isa.Inst{Op: isa.ADDI, Ra: 2, Rb: 2, Imm: 1}, // 1024
		isa.Inst{Op: isa.CJR, Ra: 17},                // 1025
	)
	narrow := cap.Root(targetVA, vm.PageSize, cap.PermCode)
	if !narrow.Authorizes(targetVA, isa.InstSize, cap.PermExecute) {
		t.Fatal("narrow capability does not authorize the callee fetch")
	}
	runTiers(t, tierCase{
		prog:  prog,
		setup: callTarget,
		drive: func(t *testing.T, c *CPU) *Trap {
			run(t, c)
			c.C[12] = narrow
			c.PC = codeVA
			c.PCC = cap.Root(codeVA, 4*vm.PageSize, cap.PermCode|cap.PermSystemRegs)
			return c.Run(1_000_000)
		},
		check: func(t *testing.T, c *CPU, tr *Trap) {
			wantTrap(t, c, tr, TrapBreak, codeVA+2*isa.InstSize)
			wantR2(t, c, 2)
		},
	})
}

// TestIndirectForkInvalidatesEntries forks the address space in the middle
// of a call loop, which turns its writable pages copy-on-write and bumps
// its generation, then keeps calling.
func TestIndirectForkInvalidatesEntries(t *testing.T) {
	runTiers(t, tierCase{
		prog:  endlessCallLoop(),
		setup: callTarget,
		drive: func(t *testing.T, c *CPU) *Trap {
			if tr := c.Run(100); tr != nil {
				t.Fatalf("%v: unexpected trap while priming: %v", engineName(c), tr)
			}
			c.AS.Fork()
			return c.Run(100)
		},
		check: func(t *testing.T, c *CPU, tr *Trap) {
			if tr != nil || c.Stats.Instructions != 200 {
				t.Fatalf("%v: trap %v after %d instructions, want none after 200",
					engineName(c), tr, c.Stats.Instructions)
			}
		},
	})
}
