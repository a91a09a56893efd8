package cheriabi_test

// Marginal simulated-cycle pins for the scheduler and timer paths. Boot,
// fork and teardown scale with a program's crowd size, so each row runs
// one program at a low and a high count and pins the difference: the cost
// of the extra wakes, timer expiries or sleeps. The numbers are exact
// (the virtual clock is the cycle counter), so any drift in a kernel
// charge, the wait queues or the deadline heap fails here.

import (
	"fmt"
	"testing"

	"cheriabi"
	"cheriabi/internal/kernel"
	"cheriabi/internal/workload"
)

// marginalCycles builds src once, runs it as name with argv ++ [lo] and
// argv ++ [hi], and returns cHi − cLo − (hi−lo)·slept: the cycles the
// extra hi−lo counts cost, net of the time they spend asleep.
func marginalCycles(t *testing.T, name, src string, argv []string, lo, hi int, slept uint64) uint64 {
	t.Helper()
	exe, _, err := workload.Build(workload.Workload{Name: name, Src: src},
		workload.BuildOptions{ABI: cheriabi.ABICheri})
	if err != nil {
		t.Fatal(err)
	}
	run := func(count int) uint64 {
		args := append(append([]string{name}, argv...), fmt.Sprint(count))
		res, err := cheriabi.NewSystem(cheriabi.Config{MemBytes: 128 << 20}).RunImage(exe, args...)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitCode != 0 || res.Signal != 0 {
			t.Fatalf("%v: exit %d signal %d (output %q)", args, res.ExitCode, res.Signal, res.Output)
		}
		return res.Stats.Cycles
	}
	return run(hi) - run(lo) - uint64(hi-lo)*slept
}

// TestMarginalCycles pins the marginal simulated cost of a pipe wake
// against a crowd of idle blocked threads (flat as the crowd grows: a wake
// touches only the hot pipe's subscribers), of a timer expiry among n
// staggered 1–4 ms sleepers (the slowest chain's 4 ms per round is
// subtracted), and of one 200 us nanosleep round trip on an empty runq.
// Each row pins the exact marginal total; the comment gives it per unit.
func TestMarginalCycles(t *testing.T) {
	const ms = kernel.ClockHz / 1_000 // cycles
	poll, timed, churn := workload.SrcPollStormBench, workload.SrcTimedPollStormBench, workload.SrcNanosleepChurnBench
	for _, r := range []struct {
		label, name, src string
		argv             []string // the arguments before the count
		lo, hi           int
		slept            uint64 // cycles slept per count
		want             uint64
	}{
		{"poll-storm/idle=4", "poll-storm", poll, []string{"4"}, 50, 350, 0, 1_221_481},                     // 4071.6 per wake
		{"poll-storm/idle=16", "poll-storm", poll, []string{"16"}, 50, 350, 0, 1_221_300},                   // 4071 per wake
		{"poll-storm/idle=60", "poll-storm", poll, []string{"60"}, 50, 350, 0, 1_221_300},                   // 4071 per wake
		{"timed-poll-storm/sleepers=4", "timed-poll-storm", timed, []string{"4"}, 10, 40, 4 * ms, 42_782},   // 356.5 per expiry
		{"timed-poll-storm/sleepers=16", "timed-poll-storm", timed, []string{"16"}, 10, 40, 4 * ms, 48_485}, // 101.0 per expiry
		{"timed-poll-storm/sleepers=48", "timed-poll-storm", timed, []string{"48"}, 10, 40, 4 * ms, 46_011}, // 31.95 per expiry
		{"nanosleep-churn", "nanosleep-churn", churn, nil, 100, 400, ms / 5, 414_000},                       // 1380 per sleep
	} {
		t.Run(r.label, func(t *testing.T) {
			if got := marginalCycles(t, r.name, r.src, r.argv, r.lo, r.hi, r.slept); got != r.want {
				t.Errorf("marginal %d sim-cycles, want %d", got, r.want)
			}
		})
	}
}
