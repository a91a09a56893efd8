package kernel_test

import (
	"fmt"
	"testing"

	"cheriabi"
	"cheriabi/internal/cap"
	"cheriabi/internal/cpu"
	"cheriabi/internal/isa"
	"cheriabi/internal/kernel"
	"cheriabi/internal/nat"
)

// TestResultContract pins the one result encoding every syscall and
// native shares (kernel.setResult), observed in the guest's registers
// right after the call: v0 is the value (^0 for a failed Int call, 0 for
// a failed Ptr call or any Void call), v1 the errno, and under CheriABI
// c3 the capability of a Ptr call (NULL on failure). A call that parked
// leaves its frame alone and re-executes on wake.
//
// Each program ends the call under test with the marker srand(1). Its one
// integer argument travels in r4 under both ABIs, so at the marker's NCALL
// trap v0, v1 and c3 still hold what the call under test wrote.
func TestResultContract(t *testing.T) {
	cases := []struct {
		name string
		body string
		v0   uint64
		e    kernel.Errno
		// nullC3: under CheriABI c3 must be NULL after the call. The body
		// leaves a tagged capability in c3 before the call, so a missing
		// c3 write shows.
		nullC3 bool
		// num is the syscall under test (0 for a native) and traps the
		// number of times it must trap: a parked call traps again when it
		// restarts.
		num, traps int
	}{
		{name: "int ok", body: `int fd = dup(1); close(fd);`,
			v0: 0, e: kernel.OK, num: nat.SysClose, traps: 1},
		{name: "int fail", body: `close(99);`,
			v0: ^uint64(0), e: kernel.EBADF, num: nat.SysClose, traps: 1},
		{name: "sigprocmask bad how", body: `sigprocmask(7, 0, 0);`,
			v0: ^uint64(0), e: kernel.EINVAL, num: nat.SysSigprocmask, traps: 1},
		{name: "ptr syscall fail", body: `char buf[64]; mmap(buf, 0, 3, 0);`,
			v0: 0, e: kernel.EINVAL, nullC3: true, num: nat.SysMmap, traps: 1},
		{name: "ptr native fail", body: `char *q = malloc(16); malloc(1 << 31);`,
			v0: 0, e: kernel.ENOMEM, nullC3: true},
		// Larger than user space: refused before any placement scan.
		{name: "ptr native too large", body: `char *q = malloc(16); malloc(1 << 40);`,
			v0: 0, e: kernel.ENOMEM, nullC3: true},
		{name: "void native", body: `char *q = malloc(16); free(q);`,
			v0: 0, e: kernel.OK},
		{name: "parked read woken", body: `int fds[2]; char b[8]; pipe(fds);
	if (fork() == 0) { sleep(1); write(fds[1], "hi", 2); exit(0); }
	read(fds[0], b, 8);`,
			v0: 2, e: kernel.OK, num: nat.SysRead, traps: 2},
	}
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				src := fmt.Sprintf("int main() {\n\t%s\n\tsrand(1);\n\treturn 0;\n}\n", tc.body)
				img, _, err := cheriabi.Compile(cheriabi.CompileOptions{Name: "result", ABI: abi}, src)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				var sys *cheriabi.System
				var v0, v1 uint64
				var c3 cap.Capability
				marks, traps := 0, 0
				sys = cheriabi.NewSystem(cheriabi.Config{MemBytes: 64 << 20, OnTrap: func(tr *cpu.Trap) {
					c := sys.Machine.CPU
					switch {
					case tr.Kind == cpu.TrapSyscall && tc.num != 0 && c.X[isa.RV0] == uint64(tc.num):
						traps++
					case tr.Kind == cpu.TrapNCall && tr.NCall == nat.Srand:
						marks++
						v0, v1, c3 = c.X[isa.RV0], c.X[isa.RV1], c.C[isa.CA0]
					}
				}})
				res, err := sys.RunImage(img)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.ExitCode != 0 || marks != 1 {
					t.Fatalf("exit %d signal %d, %d markers", res.ExitCode, res.Signal, marks)
				}
				if v0 != tc.v0 || kernel.Errno(v1) != tc.e {
					t.Errorf("v0 %#x v1 %v, want %#x %v", v0, kernel.Errno(v1), tc.v0, tc.e)
				}
				if tc.nullC3 && abi == cheriabi.ABICheri && c3 != cap.Null() {
					t.Errorf("c3 %v, want NULL", c3)
				}
				if traps != tc.traps {
					t.Errorf("syscall %d trapped %d times, want %d", tc.num, traps, tc.traps)
				}
			})
		}
	})
}
