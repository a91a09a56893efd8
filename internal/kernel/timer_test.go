package kernel

import (
	"fmt"
	"math"
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/nat"
)

// White-box tests for the deadline queue: heap ordering, determinism of
// same-deadline ties, lazy cancellation through unsubscribe, and the
// tickless skip. As in sched_test.go, threads never execute guest code —
// the tests drive the timer structures and the scheduler by hand.

func TestTimerSkipAdvancesToEarliestDeadline(t *testing.T) {
	k := schedKernel(t)
	a, b, c := schedThread(k), schedThread(k), schedThread(k)
	var q WaitQueue
	for _, th := range []*Thread{a, b, c} {
		th.blockOn(&q)
	}
	k.armTimer(a, 300)
	k.armTimer(b, 100)
	k.armTimer(c, 200)
	if got := k.PendingTimers(); got != 3 {
		t.Fatalf("PendingTimers = %d, want 3", got)
	}
	if !k.timerSkip() {
		t.Fatal("timerSkip found no timer with three armed")
	}
	if now := k.Now(); now != 100 {
		t.Fatalf("skipped to cycle %d, want the earliest deadline 100", now)
	}
	if b.State != ThreadRunnable || a.State != ThreadBlocked || c.State != ThreadBlocked {
		t.Fatalf("wrong thread woken: a=%v b=%v c=%v", a.State, b.State, c.State)
	}
	if got := k.PendingTimers(); got != 2 {
		t.Fatalf("PendingTimers after first expiry = %d, want 2", got)
	}
}

func TestTimerTiesFireInArmOrder(t *testing.T) {
	k := schedKernel(t)
	a, b := schedThread(k), schedThread(k)
	var q WaitQueue
	a.blockOn(&q)
	b.blockOn(&q)
	k.armTimer(a, 50)
	k.armTimer(b, 50)
	k.M.CPU.Stats.Cycles = 50
	k.fireDueTimers()
	if first := k.pickRunnable(); first != a {
		t.Fatalf("tie broke against arm order: got %p, want the first-armed thread %p", first, a)
	}
	if second := k.pickRunnable(); second != b {
		t.Fatal("second-armed thread not runnable after its tie fired")
	}
	if !a.timedOut || !b.timedOut {
		t.Fatal("expiry did not mark timedOut")
	}
}

func TestTimerCancelledByQueueWake(t *testing.T) {
	k := schedKernel(t)
	a := schedThread(k)
	var q WaitQueue
	k.blockOnDeadline(a, 100, &q)
	if got := k.PendingTimers(); got != 1 {
		t.Fatalf("PendingTimers = %d, want 1", got)
	}
	q.Wake(k) // the race the timer was bounding: cancels it lazily
	if got := k.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers after wake = %d, want 0 (lazy cancel)", got)
	}
	if k.timerSkip() {
		t.Fatal("timerSkip advanced the clock on a cancelled entry")
	}
	k.M.CPU.Stats.Cycles = 100
	k.fireDueTimers()
	if a.timedOut {
		t.Fatal("cancelled timer still marked its thread timedOut")
	}
}

func TestDeadlineExpiredAndParkDeadline(t *testing.T) {
	k := schedKernel(t)
	a := schedThread(k)
	if k.deadlineExpired(a) {
		t.Fatal("thread with no deadline reported expired")
	}
	k.M.CPU.Stats.Cycles = 40
	if got := k.parkDeadline(a, 60); got != 100 {
		t.Fatalf("parkDeadline fresh = %d, want Now()+delta = 100", got)
	}
	a.deadline = 100
	if got := k.parkDeadline(a, 999); got != 100 {
		t.Fatalf("parkDeadline re-park = %d, want the existing deadline 100", got)
	}
	if k.deadlineExpired(a) {
		t.Fatal("deadline 100 reported expired at cycle 40")
	}
	k.M.CPU.Stats.Cycles = 100
	if !k.deadlineExpired(a) {
		t.Fatal("deadline 100 not expired at cycle 100")
	}
}

// TestSleepRange: nanosleep fails EINVAL for a negative second count or
// a nanosecond count outside one second, and a sleep longer than
// FreeBSD's INT32_MAX/2 seconds, or too long for a 64-bit cycle count,
// parks for that bound (10^17 cycles and change) instead of wrapping to a
// short sleep; sleep and usleep share the bound.
func TestSleepRange(t *testing.T) {
	for _, abi := range []image.ABI{image.ABILegacy, image.ABICheri} {
		for _, r := range []struct {
			num       int
			sec, nsec uint64 // sleep and usleep take sec alone
			want      string
		}{
			{nat.SysNanosleep, ^uint64(0), 0, "EINVAL"},
			{nat.SysNanosleep, 0, 1_000_000_000, "EINVAL"},
			{nat.SysNanosleep, 0, ^uint64(0), "EINVAL"},
			{nat.SysNanosleep, 1, 999_999_999, "parked dl=+200000000"},
			{nat.SysNanosleep, math.MaxInt32 / 2, 0, "parked dl=+107374182300000000"},
			{nat.SysNanosleep, math.MaxInt32/2 + 1, 0, "parked dl=+107374182300000000"},
			{nat.SysNanosleep, 1 << 62, 0, "parked dl=+107374182300000000"},
			{nat.SysSleep, 2, 0, "parked dl=+200000000"},
			{nat.SysSleep, 1<<62 + 1, 0, "parked dl=+107374182300000000"},
			{nat.SysUsleep, 2, 0, "parked dl=+200"},
			{nat.SysUsleep, 1<<62 + 1, 0, "parked dl=+107374182300000000"},
		} {
			h := newIOProc(t, abi)
			var e Errno
			if r.num == nat.SysNanosleep {
				h.poke(t, offTime, r.sec)
				h.poke(t, offTime+8, r.nsec)
				_, e = h.call(r.num, nil, []cap.Capability{h.ptr(offTime), cap.Null()})
			} else {
				_, e = h.call(r.num, []uint64{r.sec}, nil)
			}
			got := e.String()
			if h.th.State == ThreadBlocked {
				got = fmt.Sprintf("parked dl=%+d", int64(h.th.deadline-h.k.Now()))
			}
			if got != r.want {
				t.Errorf("abi %v: %s(%d, %d) = %s, want %s", abi, nat.Syscalls[r.num].Name, r.sec, r.nsec, got, r.want)
			}
		}
	}
}
