package kernel

// Event-driven blocking. Every kernel object a thread can sleep on — a
// pipe, a socket endpoint, a listener's accept queue, a process's set
// of children — owns a WaitQueue. A blocking syscall that finds its
// object not ready subscribes the thread to the object's queue(s) and
// parks it; the state transition that makes the object ready (a pipe
// write, a connection arriving, a child exiting, a signal posting) wakes
// the queue explicitly. The scheduler itself never re-evaluates readiness:
// waking costs O(subscribers of the transitioned object), independent of
// how many other threads are blocked (see DESIGN.md, "Wait queues and
// readiness").
//
// All blocking syscalls are restartable: the trap handler does not
// advance the PC, so a woken thread re-executes the whole syscall, which
// re-checks readiness and re-subscribes if another thread consumed the
// event first. Spurious and duplicate wakeups are therefore harmless —
// the wake contract is "at least once per transition", and the
// subscription happens atomically with the readiness check (the kernel
// is single-core and non-preemptible), so a wakeup can never be lost
// between the check and the park.

// WaitQueue is the set of threads parked on one kernel object.
type WaitQueue struct {
	waiters []*Thread
}

// subscribe adds t to the queue. Callers go through Thread.blockOn, which
// also records the membership on the thread for O(subscriptions) removal.
func (q *WaitQueue) subscribe(t *Thread) {
	q.waiters = append(q.waiters, t)
}

// remove drops t from the queue if present.
func (q *WaitQueue) remove(t *Thread) {
	for i, w := range q.waiters {
		if w == t {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// Wake marks every subscribed thread runnable and hands it to the
// scheduler. Threads that have already been woken through another queue
// (or killed) are skipped; each woken thread is unsubscribed from every
// queue it was parked on, so a thread is enqueued for execution at most
// once per block.
func (q *WaitQueue) Wake(k *Kernel) {
	if len(q.waiters) == 0 {
		return
	}
	ws := q.waiters
	q.waiters = q.waiters[:0]
	for _, t := range ws {
		if t.State != ThreadBlocked {
			continue
		}
		t.unsubscribe()
		t.State = ThreadRunnable
		k.runqPush(t)
	}
}

// blockOn parks the thread until any of the given queues is woken (nil
// queues — always-ready objects — are skipped). The in-flight syscall
// re-executes on wake, re-checking readiness itself, so no predicate is
// stored: the scheduler does zero readiness work for parked threads.
func (t *Thread) blockOn(qs ...*WaitQueue) {
	t.State = ThreadBlocked
	t.interrupted = false // set again if a handler runs during this park
	t.waitq = t.waitq[:0]
	for _, q := range qs {
		if q == nil {
			continue
		}
		q.subscribe(t)
		t.waitq = append(t.waitq, q)
	}
}

// unsubscribe removes the thread from every queue it is parked on and
// lazily cancels its armed timer, if any: every wake path (queue wake,
// signal post, timer expiry, exit) funnels through here, so a woken
// thread never leaves a live heap entry behind.
func (t *Thread) unsubscribe() {
	for _, q := range t.waitq {
		q.remove(t)
	}
	t.waitq = t.waitq[:0]
	if t.timer != nil {
		t.timer.thread = nil
		t.timer = nil
	}
}

// wakeFD wakes threads parked on f's object, if it has a queue. The
// syscall layer calls this after any transfer that may have changed the
// object's readiness (bytes supplied, space freed, EOF reached); waking a
// queue with no relevant waiters is a cheap no-op, and woken threads that
// find the object still unready simply re-park.
func (k *Kernel) wakeFD(f *FDesc) {
	if q := f.file.Queue(); q != nil {
		q.Wake(k)
	}
}

// blockFD parks t until f's object transitions; nonblocking descriptors
// never reach here (the syscall layer returns EAGAIN instead).
func (k *Kernel) blockFD(t *Thread, f *FDesc) {
	t.blockOn(f.file.Queue())
}

// The multiplexers' scan and park. select, poll and kevent translate
// their guest structures and keep their own report rules; under them,
// scan reads each watched descriptor and park ends a call that found
// nothing ready, as its timeout says.

// readiness is one watched descriptor's state, as scan reads it.
type readiness struct{ in, out, hup bool }

// scan reads f's readiness in both directions and whether it hung up
// (Poll is pure and charges nothing), and adds f's wait queue, if it has
// one, to k.waitSet, the set a park subscribes to. A multiplexer empties
// the set before its first scan.
func (k *Kernel) scan(f *FDesc) readiness {
	if q := f.file.Queue(); q != nil {
		k.waitSet = append(k.waitSet, q)
	}
	return readiness{f.file.Poll(PollIn), f.file.Poll(PollOut), f.file.Poll(PollHup)}
}

// wait is what a multiplexer's timeout asks of a call whose scan found
// nothing ready: a non-blocking scan (the zero wait), a park with no
// deadline (forever), or a park of delta cycles (timed).
type wait struct {
	forever, timed bool
	delta          uint64
}

// park ends a call whose scan found nothing ready. Unless w is a
// non-blocking scan, or the call is a restart whose deadline has passed,
// it parks t on the wait set, with the deadline w asks for (a restarted
// call keeps the one it armed), and reports true; otherwise the call
// reports its empty scan. A forever park on an empty wait set has no
// wake source, so the scheduler's deadlock detector reports it, as the
// multiplexers block forever on nothing; signals still wake it.
func (k *Kernel) park(t *Thread, w wait) bool {
	switch {
	case w.forever:
		t.blockOn(k.waitSet...)
	case !w.timed || k.deadlineExpired(t):
		return false
	default:
		k.blockOnDeadline(t, k.parkDeadline(t, w.delta), k.waitSet...)
	}
	return true
}
