package cheriabi_test

// Simulated-counter pins for the socket, pipe and multiplexer programs of
// the kernel-io benchmark. Each program runs at the benchmark's machine
// configuration (128 MiB, /dev/urandom seeded 0x5eed) under both ABIs,
// and its instructions, cycles, syscalls and L2 misses are pinned
// exactly: a kernel refactor that claims identical simulation must leave
// every figure here unchanged. The figures do not depend on the layout
// seed, so one seed is pinned.

import (
	"fmt"
	"testing"

	"cheriabi"
	"cheriabi/internal/workload"
)

// simCounters are the pinned figures of one program run.
type simCounters struct {
	insts, cycles, syscalls, l2Misses uint64
}

func (c simCounters) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d}", c.insts, c.cycles, c.syscalls, c.l2Misses)
}

// runSimPin builds w for abi and runs it on a fresh machine at the
// benchmark's configuration.
func runSimPin(t *testing.T, w workload.Workload, abi cheriabi.ABI) simCounters {
	t.Helper()
	exe, _, err := workload.Build(w, workload.BuildOptions{ABI: abi})
	if err != nil {
		t.Fatal(err)
	}
	sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20, Seed: 1, UrandomSeed: 0x5eed})
	l2 := sys.L2Misses()
	res, err := sys.RunImage(exe, append([]string{w.Name}, w.Args...)...)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 || res.Signal != 0 {
		t.Fatalf("exit %d signal %d (output %q)", res.ExitCode, res.Signal, res.Output)
	}
	return simCounters{res.Stats.Instructions, res.Stats.Cycles, res.Stats.Syscalls, sys.L2Misses() - l2}
}

func TestSocketProgramSimCounters(t *testing.T) {
	byName := func(name string) workload.Workload {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		return w
	}
	for _, r := range []struct {
		w    workload.Workload
		want [2]simCounters // mips64, CheriABI
	}{
		{workload.Workload{Name: "socket-echo", Src: workload.SrcSocketEchoBench, Args: []string{"1000"}},
			[2]simCounters{{107124, 4308990, 6010, 47}, {111128, 4163332, 6010, 48}}},
		{byName("posix-sockets"), [2]simCounters{{9748, 204595, 205, 139}, {10980, 205084, 205, 149}}},
		{byName("posix-inet"), [2]simCounters{{11543, 197638, 198, 143}, {13037, 198292, 198, 147}}},
		{workload.Workload{Name: "poll-storm", Src: workload.SrcPollStormBench, Args: []string{"16", "300"}},
			[2]simCounters{{29238, 1561230, 2092, 102}, {30506, 1525764, 2092, 105}}},
		{workload.Workload{Name: "fileio-pipe", Src: workload.SrcFileIOBench, Args: []string{"pipe", "3000"}},
			[2]simCounters{{129092, 4648219, 6002, 20}, {147102, 4186595, 6002, 25}}},
	} {
		for i, abi := range []cheriabi.ABI{cheriabi.ABILegacy, cheriabi.ABICheri} {
			t.Run(fmt.Sprintf("%s/%v", r.w.Name, abi), func(t *testing.T) {
				if got := runSimPin(t, r.w, abi); got != r.want[i] {
					t.Errorf("got %v, want %v", got, r.want[i])
				}
			})
		}
	}
}
