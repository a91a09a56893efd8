package kernel

import "math"

// The virtual clock and the deadline queue. Simulated time IS the cycle
// counter: Kernel.Now() returns CPU.Stats.Cycles, and ClockHz fixes the
// conversion to guest-visible seconds. Timed waits park the thread with
// an absolute cycle deadline held in a min-heap ordered by (deadline,
// seq) — the seq tiebreak makes expiry order a pure function of the arm
// order, so differential runs fire timers identically. The scheduler
// (kernel.go, Run) fires due timers at the top of every scheduling
// iteration, and when the run queue empties with timers still pending it
// advances the cycle counter straight to the earliest deadline — a
// tickless skip — instead of declaring deadlock. True deadlock detection
// fires only when the runq is empty AND no live timer remains.
//
// Cancellation is lazy: waking a thread for any reason (object
// transition, signal post, exit) unsubscribes it, which nils the heap
// entry's thread pointer; dead entries are dropped when they surface at
// the heap root. A timer entry is live exactly while its thread is
// Blocked with t.timer pointing at it.

// ClockHz is the virtual clock rate: 100 MHz, i.e. one simulated cycle
// is 10 ns. All guest-visible time (timespec/timeval values, poll's
// millisecond timeouts) converts through this single constant.
const ClockHz = 100_000_000

// nsPerCycle is the nanosecond length of one simulated cycle.
const nsPerCycle = 1_000_000_000 / ClockHz

// nsToCycles converts nanoseconds to cycles, rounding up so a nonzero
// wait never becomes a zero-cycle deadline.
func nsToCycles(ns uint64) uint64 { return (ns + nsPerCycle - 1) / nsPerCycle }

// usToCycles converts microseconds to cycles.
func usToCycles(us uint64) uint64 { return us * (ClockHz / 1_000_000) }

// msToCycles converts milliseconds to cycles, saturating at
// math.MaxUint64.
func msToCycles(ms uint64) uint64 {
	if ms > math.MaxUint64/(ClockHz/1_000) {
		return math.MaxUint64
	}
	return ms * (ClockHz / 1_000)
}

// cyclesToNs converts cycles to nanoseconds.
func cyclesToNs(cy uint64) uint64 { return cy * nsPerCycle }

// timerEntry is one armed deadline in the kernel's timer heap.
type timerEntry struct {
	deadline uint64 // absolute, in cycles
	seq      uint64 // arm order: the determinism tiebreak
	thread   *Thread
}

// timerLess orders the heap by (deadline, seq).
func timerLess(a, b *timerEntry) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

// timerPush inserts e into the heap.
func (k *Kernel) timerPush(e *timerEntry) {
	k.timers = append(k.timers, e)
	i := len(k.timers) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !timerLess(k.timers[i], k.timers[parent]) {
			break
		}
		k.timers[i], k.timers[parent] = k.timers[parent], k.timers[i]
		i = parent
	}
}

// timerPop removes and returns the heap root, or nil.
func (k *Kernel) timerPop() *timerEntry {
	n := len(k.timers)
	if n == 0 {
		return nil
	}
	root := k.timers[0]
	k.timers[0] = k.timers[n-1]
	k.timers[n-1] = nil
	k.timers = k.timers[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && timerLess(k.timers[l], k.timers[least]) {
			least = l
		}
		if r < n && timerLess(k.timers[r], k.timers[least]) {
			least = r
		}
		if least == i {
			break
		}
		k.timers[i], k.timers[least] = k.timers[least], k.timers[i]
		i = least
	}
	return root
}

// timerPeek returns the earliest live entry without removing it, popping
// any cancelled entries that have surfaced at the root.
func (k *Kernel) timerPeek() *timerEntry {
	for len(k.timers) > 0 {
		if k.timers[0].thread != nil {
			return k.timers[0]
		}
		k.timerPop()
	}
	return nil
}

// armTimer attaches a deadline to t, which the caller has just parked
// (or is about to park). The entry's seq is the global arm counter.
func (k *Kernel) armTimer(t *Thread, deadline uint64) {
	k.timerSeq++
	e := &timerEntry{deadline: deadline, seq: k.timerSeq, thread: t}
	t.timer = e
	k.timerPush(e)
}

// fireDueTimers wakes every thread whose deadline has arrived. Called at
// the top of every scheduling iteration, so a sleeper's expiry is
// observed even while other threads keep the runq busy. The woken
// thread's syscall restarts and resolves the wake-vs-deadline race
// itself: readiness observed on the restart wins over the timeout
// (the usual at-least-once wake contract).
func (k *Kernel) fireDueTimers() {
	now := k.Now()
	for {
		e := k.timerPeek()
		if e == nil || e.deadline > now {
			return
		}
		k.timerPop()
		t := e.thread
		t.timedOut = true
		t.unsubscribe() // also nils e.thread and t.timer
		t.State = ThreadRunnable
		k.runqPush(t)
	}
}

// timerSkip advances virtual time to the earliest pending deadline and
// fires it — the tickless skip taken when the runq is empty but timers
// are still armed. Returns false when no live timer remains (the
// deadlock-detection case).
func (k *Kernel) timerSkip() bool {
	e := k.timerPeek()
	if e == nil {
		return false
	}
	if e.deadline > k.Now() {
		k.M.CPU.Stats.Cycles = e.deadline
	}
	k.fireDueTimers()
	return true
}

// PendingTimers reports the number of live armed timers (cancelled heap
// entries are not counted), for external stop predicates.
func (k *Kernel) PendingTimers() int {
	n := 0
	for _, e := range k.timers {
		if e.thread != nil {
			n++
		}
	}
	return n
}

// parkDeadline resolves the absolute deadline for a timed park: a
// restarted syscall that already armed one (and was woken early) keeps
// the original deadline; a fresh call computes now + delta.
func (k *Kernel) parkDeadline(t *Thread, delta uint64) uint64 {
	if t.deadline != 0 {
		return t.deadline
	}
	return k.Now() + delta
}

// deadlineExpired reports whether the in-flight syscall's deadline has
// passed — either the timer fired (timedOut) or a wake from another
// source happened to land at-or-after the deadline.
func (k *Kernel) deadlineExpired(t *Thread) bool {
	return t.timedOut || (t.deadline != 0 && k.Now() >= t.deadline)
}

// blockOnDeadline parks t like blockOn and additionally arms an absolute
// deadline: whichever of a queue wake or the deadline comes first makes
// the thread runnable again, and the restarted syscall consults
// deadlineExpired to tell them apart. The deadline sticks to the thread
// across spurious wakes and re-parks; the dispatcher clears it when the
// syscall finally completes.
func (k *Kernel) blockOnDeadline(t *Thread, deadline uint64, qs ...*WaitQueue) {
	t.blockOn(qs...)
	t.deadline = deadline
	k.armTimer(t, deadline)
}
