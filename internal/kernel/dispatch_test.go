package kernel

import (
	"testing"

	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
)

// TestSyscallDispatchDoesNotAllocate pins the dispatcher's own
// allocations at zero under both ABIs: argument decode of integer and
// pointer arguments, the table call and the return path. The handlers
// chosen (getpid, and lseek/fstat on a closed descriptor) allocate
// nothing themselves, so any allocation counted here is the dispatcher's.
func TestSyscallDispatchDoesNotAllocate(t *testing.T) {
	for _, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
		k := schedKernel(t)
		th := schedThread(k)
		th.Proc.ABI = abi
		for _, num := range []int{nat.SysGetpid, nat.SysLseek, nat.SysFstat} {
			th.Frame.X[isa.RA0] = 99 // a closed descriptor
			allocs := testing.AllocsPerRun(100, func() {
				th.Frame.X[isa.RV0] = uint64(num)
				k.syscall(th)
			})
			if allocs != 0 {
				t.Errorf("abi %v: %s dispatch allocates %v objects per call, want 0", abi, nat.Syscalls[num].Sig, allocs)
			}
		}
	}
}

// TestEverySyscallHasHandler: the dispatch table gives a handler to
// exactly the syscalls package nat declares.
func TestEverySyscallHasHandler(t *testing.T) {
	if len(sysTable) != len(nat.Syscalls) {
		t.Errorf("sysTable has %d slots, nat.Syscalls %d", len(sysTable), len(nat.Syscalls))
	}
	for num, c := range nat.Syscalls {
		declared := c.Sig != ""
		handled := num < len(sysTable) && sysTable[num] != nil
		if declared != handled {
			t.Errorf("syscall %d (%q): declared %v, handled %v", num, c.Sig, declared, handled)
		}
	}
}
