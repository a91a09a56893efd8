package kernel_test

import (
	"errors"
	"testing"

	"cheriabi"
	"cheriabi/internal/kernel"
)

// Integration tests for the event-driven readiness subsystem: AF_UNIX
// sockets, poll(2), fcntl/O_NONBLOCK, getdents/readdir, and the wakeup
// semantics the wait-queue scheduler must provide — all exercised from
// compiled C under both ABIs.

// TestSocketpairEcho: a connected pair across fork; shutdown(SHUT_WR)
// delivers EOF after the buffered bytes drain.
func TestSocketpairEcho(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
int sv[2];
char b[64];
int main() {
	if (socketpair(1, 1, 0, sv) != 0) return 1;
	int pid = fork();
	if (pid == 0) {
		// Echo child: drain until EOF, doubling nothing, then quit.
		char cb[64];
		long n = recv(sv[1], cb, 64, 0);
		while (n > 0) {
			if (send(sv[1], cb, n, 0) != n) exit(41);
			n = recv(sv[1], cb, 64, 0);
		}
		exit(n == 0 ? 0 : 42);
	}
	close(sv[1]);
	int i;
	long total = 0;
	for (i = 0; i < 5; i++) {
		if (send(sv[0], "ping-pong", 9, 0) != 9) return 2;
		long n = recv(sv[0], b, 64, 0);  // blocks until the echo arrives
		if (n != 9) return 3;
		if (b[0] != 'p' || b[8] != 'g') return 4;
		total += n;
	}
	shutdown(sv[0], 1);                  // SHUT_WR: child sees EOF
	if (recv(sv[0], b, 64, 0) != 0) return 5; // child closed: EOF back
	int status = 0;
	if (wait4(pid, &status, 0) != pid) return 6;
	if (status != 0) return 7;
	return total == 45 ? 0 : 8;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestUnixSocketConnectAcceptRoundTrip: the full bind/listen/connect/
// accept handshake between processes, with the client retrying until the
// server's address exists (exercising ECONNREFUSED on the way).
func TestUnixSocketConnectAcceptRoundTrip(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
char b[64];
int main() {
	int pid = fork();
	if (pid == 0) {
		// Server: one accept, echo until EOF.
		int l = socket(1, 1, 0);
		if (l < 0) exit(40);
		int i;
		for (i = 0; i < 3; i++) yield(); // let the client race ahead
		if (bind(l, "/tmp/echo.sock") != 0) exit(41);
		if (listen(l, 4) != 0) exit(42);
		int c = accept(l);               // blocks until a connector queues
		if (c < 0) exit(43);
		char cb[64];
		long n = recv(c, cb, 64, 0);
		while (n > 0) {
			send(c, cb, n, 0);
			n = recv(c, cb, 64, 0);
		}
		close(c);
		close(l);
		exit(0);
	}
	int c = socket(1, 1, 0);
	if (c < 0) return 1;
	int tries = 0;
	while (connect(c, "/tmp/echo.sock") != 0) {
		if (errno() != 61) return 2;    // ECONNREFUSED until bound+listening
		tries++;
		if (tries > 50) return 3;
		yield();
	}
	if (connect(c, "/tmp/echo.sock") == 0) return 4;
	if (errno() != 56) return 5;        // EISCONN on a second connect
	if (send(c, "hello-socket", 12, 0) != 12) return 6;
	if (recv(c, b, 64, 0) != 12) return 7;
	if (b[0] != 'h' || b[11] != 't') return 8;
	close(c);
	int status = 0;
	if (wait4(pid, &status, 0) != pid) return 9;
	return status == 0 ? (tries > 0 ? 0 : 10) : 11;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestSocketErrnos: EADDRINUSE, ENOTSOCK, ENOTCONN, and EPIPE+SIGPIPE on
// send after the peer closes.
func TestSocketErrnos(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
int gotsig;
int handler(int sig, char *frame) { gotsig = sig; return 0; }
int sv[2];
char b[8];
int main() {
	int a = socket(1, 1, 0);
	int c = socket(1, 1, 0);
	if (bind(a, "/tmp/a.sock") != 0) return 1;
	if (bind(c, "/tmp/a.sock") == 0) return 2;
	if (errno() != 48) return 3;        // EADDRINUSE
	if (recv(c, b, 8, 0) >= 0) return 4; // unconnected: ENOTCONN...
	if (errno() != 57) return 5;        // ...reported immediately, no block
	if (accept(a) >= 0) return 6;
	if (errno() != 22) return 7;        // EINVAL: bound but not listening
	int fd = open("/dev/null", 2, 0);
	if (send(fd, "x", 1, 0) >= 0) return 8;
	if (errno() != 38) return 9;        // ENOTSOCK
	int in = socket(2, 1, 0);
	if (in < 0) return 10;              // AF_INET is a known family
	close(in);
	if (socket(9, 1, 0) >= 0) return 17;
	if (errno() != 47) return 18;       // EAFNOSUPPORT: unknown family
	if (socket(1, 7, 0) >= 0) return 19;
	if (errno() != 22) return 20;       // EINVAL: bad type, known family

	if (socketpair(1, 1, 0, sv) != 0) return 12;
	close(sv[1]);
	if (recv(sv[0], b, 8, 0) != 0) return 13; // peer gone: EOF
	sigaction(13, handler);
	if (send(sv[0], "x", 1, 0) == 0) return 14;
	if (errno() != 32) return 15;       // EPIPE
	yield();
	if (gotsig != 13) return 16;        // SIGPIPE delivered
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestNonblockEAGAIN: O_NONBLOCK via fcntl turns every would-park case
// into an immediate EAGAIN — read and write on pipes, recv and accept on
// sockets — and F_GETFL reports the mode through a dup'd descriptor
// (status flags live on the shared open-file description).
func TestNonblockEAGAIN(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
int fds[2];
char big[70000];
char b[8];
int main() {
	pipe(fds);
	if (fcntl(fds[0], 4, 4) != 0) return 1;      // F_SETFL O_NONBLOCK
	if (read(fds[0], b, 1) >= 0) return 2;
	if (errno() != 35) return 3;                  // EAGAIN, not a park
	int d = dup(fds[0]);
	if ((fcntl(d, 3, 0) & 4) != 4) return 4;      // F_GETFL via the dup
	if (fcntl(fds[1], 4, 4) != 0) return 5;
	if (write(fds[1], big, 70000) != 65536) return 6; // fills pipeCap
	if (write(fds[1], b, 1) >= 0) return 7;
	if (errno() != 35) return 8;                  // full pipe: EAGAIN
	if (fcntl(fds[1], 4, 0) != 0) return 9;       // clear O_NONBLOCK
	if ((fcntl(fds[1], 3, 0) & 4) != 0) return 10;

	int l = socket(1, 1, 0);
	bind(l, "/tmp/nb.sock");
	listen(l, 4);
	fcntl(l, 4, 4);
	if (accept(l) >= 0) return 11;
	if (errno() != 35) return 12;                 // empty backlog: EAGAIN
	int sv[2];
	socketpair(1, 1, 0, sv);
	fcntl(sv[0], 4, 4);
	if (recv(sv[0], b, 8, 0) >= 0) return 13;
	if (errno() != 35) return 14;
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestNonblockConnectEINPROGRESS: a non-blocking connect queues on the
// listener and returns EINPROGRESS; completion is observed as poll(2)
// writability after accept, and the follow-up connect reports 0.
func TestNonblockConnectEINPROGRESS(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
struct pollfd { int fd; int events; int revents; };
char b[16];
int main() {
	int l = socket(1, 1, 0);
	if (bind(l, "/tmp/np.sock") != 0) return 1;
	if (listen(l, 4) != 0) return 2;
	int c = socket(1, 1, 0);
	if (fcntl(c, 4, 4) != 0) return 3;        // O_NONBLOCK
	if (connect(c, "/tmp/np.sock") == 0) return 4;
	if (errno() != 36) return 5;              // EINPROGRESS
	struct pollfd pf[1];
	pf[0].fd = c; pf[0].events = 4; pf[0].revents = 0;
	if (poll(pf, 1, 0) != 0) return 6;        // not writable before accept
	int s = accept(l);
	if (s < 0) return 7;
	pf[0].revents = 0;
	if (poll(pf, 1, 0) != 1) return 8;        // now writable
	if ((pf[0].revents & 4) == 0) return 9;
	if (connect(c, "/tmp/np.sock") != 0) return 10; // completion report
	if (send(c, "hi", 2, 0) != 2) return 11;
	if (recv(s, b, 16, 0) != 2) return 12;
	return b[0] == 'h' && b[1] == 'i' ? 0 : 13;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestPollBlocksAndWakes: poll(2) with a negative timeout parks until the
// watched object transitions; a zero timeout scans and returns, and a
// closed fd reports POLLNVAL.
func TestPollBlocksAndWakes(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
struct pollfd { int fd; int events; int revents; };
int main() {
	int fds[2];
	pipe(fds);
	int pid = fork();
	if (pid == 0) {
		int i;
		for (i = 0; i < 4; i++) yield();
		write(fds[1], "!", 1);
		exit(0);
	}
	close(fds[1]);
	struct pollfd pf[2];
	pf[0].fd = fds[0]; pf[0].events = 1; pf[0].revents = 0;
	pf[1].fd = 63;     pf[1].events = 1; pf[1].revents = 0; // never open
	if (poll(pf, 2, 0) != 1) return 1;   // immediate scan: only POLLNVAL
	if (pf[1].revents != 0x20) return 2; // POLLNVAL
	pf[1].fd = -1;                        // negative fds are ignored
	if (poll(pf, 2, -1) != 1) return 3;  // parks until the child writes
	if ((pf[0].revents & 1) == 0) return 4;
	if (pf[1].revents != 0) return 5;
	char c;
	if (read(fds[0], &c, 1) != 1 || c != '!') return 6;
	wait4(pid, 0, 0);
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestKeventBlocksUntilReady: kevent with an event list parks on the
// watched objects' wait queues like select and poll do.
func TestKeventBlocksUntilReady(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
struct kev { long ident; long filter; long data; char *udata; };
int main() {
	int fds[2];
	pipe(fds);
	int kq = kqueue();
	struct kev ch;
	ch.ident = fds[0];
	ch.filter = 4294967295;          // EVFILT_READ
	ch.filter |= (long)1 << 32;      // EV_ADD
	ch.udata = 0;
	if (kevent(kq, &ch, 1, 0, 0, 0) != 0) return 1;
	int pid = fork();
	if (pid == 0) {
		int i;
		for (i = 0; i < 4; i++) yield();
		write(fds[1], "k", 1);
		exit(0);
	}
	struct kev out;
	if (kevent(kq, 0, 0, &out, 1, 0) != 1) return 2; // parks until the write
	if (out.ident != fds[0]) return 3;
	wait4(pid, 0, 0);
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestSignalInterruptsQueuedWaiter: a signal posted to a thread parked on
// a wait queue wakes it, the handler runs at the kernel→user transition,
// and the interrupted syscall restarts (BSD restart semantics) — the
// handler is observed to have run strictly before the read completes.
func TestSignalInterruptsQueuedWaiter(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
int gotsig;
int handler(int sig, char *frame) { gotsig = sig; return 0; }
int main() {
	int fds[2];
	char b[4];
	pipe(fds);
	int pid = fork();
	if (pid == 0) {
		int i;
		for (i = 0; i < 3; i++) yield();
		kill(getpid() - 1, 30);       // SIGUSR1 at the parked parent
		for (i = 0; i < 3; i++) yield();
		write(fds[1], "xy", 2);
		exit(0);
	}
	sigaction(30, handler);
	if (read(fds[0], b, 2) != 2) return 1;  // parked, interrupted, restarted
	if (gotsig != 30) return 2;             // handler ran while we waited
	if (b[0] != 'x' || b[1] != 'y') return 3;
	wait4(pid, 0, 0);
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestForkSharedDescriptorWakeup: two processes parked on the SAME
// open-file description (fork-shared pipe read end) are both woken by one
// write; the first drains it and the second re-parks until more data
// arrives — no lost wakeup, no double delivery.
func TestForkSharedDescriptorWakeup(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
int main() {
	int fds[2];
	pipe(fds);
	int c1 = fork();
	if (c1 == 0) {
		char b[2];
		if (read(fds[0], b, 2) != 2) exit(99);
		exit(b[0]);
	}
	int c2 = fork();
	if (c2 == 0) {
		char b[2];
		if (read(fds[0], b, 2) != 2) exit(99);
		exit(b[0]);
	}
	int i;
	for (i = 0; i < 4; i++) yield();  // both children are parked now
	write(fds[1], "ab", 2);           // wakes both; one drains it
	for (i = 0; i < 4; i++) yield();
	write(fds[1], "cd", 2);           // the re-parked one gets this
	int s1 = 0; int s2 = 0;
	wait4(c1, &s1, 0);
	wait4(c2, &s2, 0);
	// One child read "ab", the other "cd" — order is scheduler-defined,
	// the sum is not.
	return (s1 >> 8) + (s2 >> 8) == 'a' + 'c' ? 0 : 1;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestNoLostWakeupOnFaultingRead: a read whose destination is an
// in-bounds capability over an unmapped page fails EFAULT before the pipe
// gives up a byte. A readv whose first segment drains the pipe and whose
// second segment faults returns the partial count, and must still wake
// the writer parked on the now-unfull pipe. Skipping that wake
// deadlocked the writer under the event-driven scheduler; the old
// O(blocked) re-polling masked it.
func TestNoLostWakeupOnFaultingRead(t *testing.T) {
	res := runC(t, cheriabi.ABICheri, `
struct iovec { char *base; long len; };
char b[64];
int fds[2];
char big[70000];
int main() {
	pipe(fds);
	int pid = fork();
	if (pid == 0) {
		// Writer child: fill the pipe, then park on the full pipe; the
		// parent's partly faulting readv must free space and wake us.
		big[0] = 'x';
		if (write(fds[1], big, 70000) != 65536) exit(41);
		if (write(fds[1], "tail", 4) != 4) exit(42); // parks until space
		exit(0);
	}
	int i;
	for (i = 0; i < 4; i++) yield(); // let the writer fill and park
	char *m = (char *)mmap(0, 8192, 3, 0);
	if (m == 0) return 1;
	munmap(m, 8192);
	if (read(fds[0], m, 64) >= 0) return 2;
	if (errno() != 14) return 3;        // EFAULT, and nothing consumed
	struct iovec v[2];
	v[0].base = b;
	v[0].len = 64;
	v[1].base = m;
	v[1].len = 64;
	if (readv(fds[0], v, 2) != 64) return 6;
	if (b[0] != 'x') return 7;          // the first byte was still there
	// The parked writer was woken by the drain: it finishes and exits.
	int status = 0;
	if (wait4(pid, &status, 0) != pid) return 4;
	return status == 0 ? 0 : 5;
}`)
	if res.ExitCode != 0 {
		t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
	}
}

// TestConnectOnWiredEndpointsIsEISCONN: endpoints that never initiated a
// connect (socketpair ends, accept's server fd) owe no success report —
// connect(2) on them is EISCONN immediately.
func TestConnectOnWiredEndpointsIsEISCONN(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
int sv[2];
int main() {
	if (socketpair(1, 1, 0, sv) != 0) return 1;
	if (connect(sv[0], "/tmp/x.sock") == 0) return 2;
	if (errno() != 56) return 3;        // EISCONN
	if (connect(sv[1], "/tmp/x.sock") == 0) return 4;
	if (errno() != 56) return 5;

	int l = socket(1, 1, 0);
	bind(l, "/tmp/e.sock");
	listen(l, 4);
	int c = socket(1, 1, 0);
	fcntl(c, 4, 4);
	if (connect(c, "/tmp/e.sock") == 0) return 6; // EINPROGRESS
	int s = accept(l);
	if (s < 0) return 7;
	if (connect(s, "/tmp/e.sock") == 0) return 8; // server fd: no report owed
	if (errno() != 56) return 9;
	if (connect(c, "/tmp/e.sock") != 0) return 10; // connector's report
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestDeadlockDetectedWithEmptyQueues: two processes cross-blocked on
// pipes neither will ever write must still be caught by the scheduler's
// deadlock detection — the wait queues are empty of wake sources, and no
// polling loop exists to paper over it.
func TestDeadlockDetectedWithEmptyQueues(t *testing.T) {
	src := `
int p1[2]; int p2[2];
int main() {
	pipe(p1);
	pipe(p2);
	int pid = fork();
	char b[1];
	if (pid == 0) {
		read(p1[0], b, 1);  // parent never writes p1
		exit(0);
	}
	read(p2[0], b, 1);      // child never writes p2
	return 0;
}`
	img, _, err := cheriabi.Compile(cheriabi.CompileOptions{Name: "dl", ABI: cheriabi.ABICheri}, src)
	if err != nil {
		t.Fatal(err)
	}
	sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 64 << 20})
	_, err = sys.RunImage(img, "dl")
	if !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// TestReaddir: getdents through dirFile.Read — fixed 64-byte records in
// sorted name order, rewind via lseek, ENOTDIR on a regular file, and the
// deterministic /dev table.
func TestReaddir(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
char ents[1024];
int main() {
	close(open("/tmp/bb.txt", 0x200 | 1, 0));
	close(open("/tmp/aa.txt", 0x200 | 1, 0));
	int d = open("/tmp", 0, 0);
	if (d < 0) return 1;
	long n = readdir(d, ents, 1024);
	if (n != 128) return 2;                       // two 64-byte records
	if (strcmp(ents + 8, "aa.txt") != 0) return 3;  // sorted
	if (strcmp(ents + 64 + 8, "bb.txt") != 0) return 4;
	if (ents[0] != 0) return 5;                   // kind: regular file
	if (readdir(d, ents, 1024) != 0) return 6;    // end of directory
	if (lseek(d, 0, 0) != 0) return 7;            // rewinddir
	if (readdir(d, ents, 64) != 64) return 8;     // short reads re-serve
	close(d);

	int dev = open("/dev", 0, 0);
	n = readdir(dev, ents, 1024);
	if (n != 4 * 64) return 9;                    // null, tty, urandom, zero
	if (strcmp(ents + 8, "null") != 0) return 10;
	if (strcmp(ents + 3 * 64 + 8, "zero") != 0) return 11;
	if (ents[0] != 2) return 12;                  // kind: device
	close(dev);

	int f = open("/tmp/aa.txt", 0, 0);
	if (readdir(f, ents, 64) >= 0) return 13;
	if (errno() != 20) return 14;                 // ENOTDIR
	unlink("/tmp/aa.txt");
	unlink("/tmp/bb.txt");
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestKeventEmptyKqueueDeadlocks: a blocking kevent on a kqueue with no
// registered filters has no wake source, so the thread must park and the
// scheduler's empty-runq detector must report the deadlock — not return a
// silent "no events", which would turn a programming error into a
// spurious success the program then acts on.
func TestKeventEmptyKqueueDeadlocks(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		src := `
struct kev { long ident; long filter; long data; char *udata; };
int main() {
	int kq = kqueue();
	if (kq < 0) return 1;
	struct kev out;
	kevent(kq, 0, 0, &out, 1, 0); // no filters registered: blocks forever
	return 2;                  // must be unreachable
}`
		img, _, err := cheriabi.Compile(cheriabi.CompileOptions{Name: "kqdl", ABI: abi}, src)
		if err != nil {
			t.Fatal(err)
		}
		sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 64 << 20})
		_, err = sys.RunImage(img, "kqdl")
		if !errors.Is(err, kernel.ErrDeadlock) {
			t.Fatalf("want ErrDeadlock, got %v", err)
		}
	})
}

// TestKeventListenerBacklogDepth: EVFILT_READ on a listening AF_UNIX
// socket reports readability with data = the pending-connection backlog
// depth (kqueue(2)'s listen-socket rule), and the connections are
// acceptable after the kevent returns.
func TestKeventListenerBacklogDepth(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
struct kev { long ident; long filter; long data; char *udata; };
int main() {
	int l = socket(1, 1, 0);
	if (l < 0) return 1;
	if (bind(l, "/tmp/depth.sock") != 0) return 2;
	if (listen(l, 4) != 0) return 3;
	int i;
	for (i = 0; i < 2; i++) {
		int pid = fork();
		if (pid == 0) {
			int c = socket(1, 1, 0);
			if (c < 0) exit(40);
			// Parks inside connect until the parent accepts.
			if (connect(c, "/tmp/depth.sock") != 0) exit(41);
			close(c);
			exit(0);
		}
	}
	for (i = 0; i < 8; i++) yield(); // let both children queue on the backlog
	int kq = kqueue();
	struct kev ch;
	ch.ident = l;
	ch.filter = 4294967295;          // EVFILT_READ
	ch.filter |= (long)1 << 32;      // EV_ADD
	ch.udata = 0;
	if (kevent(kq, &ch, 1, 0, 0, 0) != 0) return 4;
	struct kev out;
	out.data = 0;
	if (kevent(kq, 0, 0, &out, 1, 0) != 1) return 5;
	if (out.ident != l) return 6;
	if (out.data != 2) return 7;     // both connectors pending
	// accept-after-kevent: the reported connections are really there.
	int a = accept(l);
	int b = accept(l);
	if (a < 0 || b < 0) return 8;
	close(a);
	close(b);
	int status = 0;
	for (i = 0; i < 2; i++) {
		if (wait4(-1, &status, 0) < 0 || status != 0) return 9;
	}
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestFcntlSetflOnlyTogglesStatusFlags: F_SETFL may change only the
// status flags (O_NONBLOCK, O_APPEND) — the access mode is fixed at
// open(2), and a F_SETFL that tries to smuggle in O_RDWR must leave it
// untouched, so EBADF enforcement on the read-only descriptor still
// holds afterwards.
func TestFcntlSetflOnlyTogglesStatusFlags(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
char b[4];
int main() {
	int w = open("/tmp/f.txt", 0x200 | 1, 0); // O_CREAT|O_WRONLY
	if (w < 0) return 1;
	if (write(w, "hi", 2) != 2) return 2;
	close(w);
	int d = open("/tmp/f.txt", 0, 0);         // O_RDONLY
	if (d < 0) return 3;
	if (write(d, "x", 1) >= 0) return 4;      // read-only: write refused
	// Attempt to flip the access mode to O_RDWR (2) alongside O_NONBLOCK.
	if (fcntl(d, 4, 2 | 4) != 0) return 5;    // F_SETFL
	if ((fcntl(d, 3, 0) & 3) != 0) return 6;  // access mode still O_RDONLY
	if ((fcntl(d, 3, 0) & 4) != 4) return 7;  // O_NONBLOCK did stick
	if (write(d, "x", 1) >= 0) return 8;      // still refused after F_SETFL
	if (read(d, b, 2) != 2) return 9;         // reads unaffected
	// Clearing status flags must not grant write either.
	if (fcntl(d, 4, 0) != 0) return 10;
	if (write(d, "x", 1) >= 0) return 11;
	close(d);
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}
