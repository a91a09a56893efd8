package workload

// SrcPosixTimers is the timed-wait workload: a heartbeat ticker paced by
// poll(0, 0, ms) portable sleeps, a select(0, ..., &tv) sleep, a client
// that retries a not-yet-bound AF_UNIX address on a 5 ms timer until the
// server (itself delayed by nanosleep) binds, and a sleep-paced
// producer/consumer over a pipe whose consumer uses finite poll timeouts
// and observes POLLHUP at teardown. Every figure printed is an elapsed
// virtual-clock interval quantized to 10 ms buckets: the sleeps dominate
// each measured section by orders of magnitude over compute, so both
// ABIs and all simulator configurations emit identical output even
// though their instruction counts differ.
const SrcPosixTimers = `
struct pollfd { int fd; int events; int revents; };

long now_ms() {
	long tp[2];
	clock_gettime(0, tp);
	return tp[0] * 1000 + tp[1] / 1000000;
}

int run_server() {
	long req[2]; long rem[2];
	req[0] = 0; req[1] = 30000000; // 30 ms: clients must retry into it
	if (nanosleep(req, rem) != 0) exit(40);
	int l = socket(1, 1, 0);
	if (l < 0) exit(41);
	if (bind(l, "/tmp/late.sock") != 0) exit(42);
	if (listen(l, 4) != 0) exit(43);
	int c = accept(l);
	if (c < 0) exit(44);
	char cb[16];
	long n = recv(c, cb, 16, 0);
	if (n <= 0) exit(45);
	if (send(c, cb, n, 0) != n) exit(46);
	close(c); close(l);
	exit(0);
}

int run_producer(int wfd, int items) {
	int i;
	for (i = 0; i < items; i++) {
		if (usleep(8000) != 0) exit(30); // 8 ms pacing
		char b[1];
		b[0] = 'a' + i;
		if (write(wfd, b, 1) != 1) exit(31);
	}
	close(wfd);
	exit(0);
}

int main() {
	// Heartbeat: 8 ticks of the poll-with-no-fds portable sleep.
	long t0 = now_ms();
	int i;
	for (i = 0; i < 8; i++) {
		if (poll(0, 0, 10) != 0) return 1;
	}
	int hb = (int)((now_ms() - t0) / 10);

	// select(0, ..., &tv) is the other portable sleep spelling.
	long tv[2];
	tv[0] = 0; tv[1] = 20000; // 20 ms
	t0 = now_ms();
	if (select(0, 0, 0, 0, tv) != 0) return 2;
	int sel = (int)((now_ms() - t0) / 10);

	// gettimeofday reads the same clock; it can only move forward.
	long gt[2];
	gettimeofday(gt);
	int mono = (gt[0] * 1000000 + gt[1] >= t0 * 1000) ? 1 : 0;

	// Timed-retry connect: the server binds 30 ms from now; retry on a
	// 5 ms timer until the address exists, then echo one record.
	int srv = fork();
	if (srv == 0) run_server();
	int c = socket(1, 1, 0);
	if (c < 0) return 3;
	t0 = now_ms();
	while (connect(c, "/tmp/late.sock") != 0) {
		if (errno() != 61) return 4; // only ECONNREFUSED until the bind
		if (poll(0, 0, 5) != 0) return 5;
	}
	int conn = (int)((now_ms() - t0) / 10);
	char mb[16];
	if (send(c, "tick", 4, 0) != 4) return 6;
	if (recv(c, mb, 16, 0) != 4) return 7;
	close(c);
	int st = 0;
	if (wait4(srv, &st, 0) != srv || st != 0) return 8;

	// Sleep-paced producer/consumer: 5 items at 8 ms, consumed under a
	// finite poll timeout; the producer's close surfaces as POLLHUP.
	int fds[2];
	if (pipe(fds) != 0) return 9;
	int prod = fork();
	if (prod == 0) { close(fds[0]); run_producer(fds[1], 5); }
	close(fds[1]);
	struct pollfd pf[1];
	int items = 0;
	int hup = 0;
	t0 = now_ms();
	while (1) {
		pf[0].fd = fds[0]; pf[0].events = 1; pf[0].revents = 0;
		if (poll(pf, 1, 100) != 1) return 10; // pacing is far below 100 ms
		if (pf[0].revents & 0x10) hup = 1;
		char b[4];
		long n = read(fds[0], b, 4);
		if (n == 0) break; // writer gone and drained: EOF
		items += (int)n;
	}
	int paced = (int)((now_ms() - t0) / 10);
	close(fds[0]);
	if (wait4(prod, &st, 0) != prod || st != 0) return 11;

	printf("timers ok hb %d sel %d mono %d conn %d items %d hup %d paced %d\n",
		hb, sel, mono, conn, items, hup, paced);
	return 0;
}
`

// SrcTimedPollStormBench drives TestMarginalCycles: argv[1] forked
// sleepers each run argv[2] rounds of a finite-timeout poll with no fds
// — a pure timer park — on staggered 1..4 ms intervals, so the deadline
// heap holds argv[1] live entries in mixed order the whole run. Each
// expiry is one heap pop + one wake; the test differences two
// round counts to isolate that per-expiry cost from setup.
const SrcTimedPollStormBench = `
int main(int argc, char **argv) {
	int n = atoi(argv[1]);
	int rounds = atoi(argv[2]);
	int i;
	for (i = 0; i < n; i++) {
		int pid = fork();
		if (pid == 0) {
			int r;
			int ms = 1 + (i & 3);
			for (r = 0; r < rounds; r++) {
				if (poll(0, 0, ms) != 0) exit(9);
			}
			exit(0);
		}
	}
	int bad = 0;
	for (i = 0; i < n; i++) {
		int st = 0;
		if (wait4(-1, &st, 0) <= 0) return 1;
		if (st != 0) bad = bad + 1;
	}
	return bad;
}
`

// SrcNanosleepChurnBench drives TestMarginalCycles: argv[1]
// back-to-back 200 us nanosleeps in a single thread — the arm/park/
// tickless-skip/fire cycle with an always-empty runq, the pure overhead
// of one timer round trip.
const SrcNanosleepChurnBench = `
long req[2]; long rem[2];
int main(int argc, char **argv) {
	int n = atoi(argv[1]);
	int i;
	for (i = 0; i < n; i++) {
		req[0] = 0; req[1] = 200000;
		if (nanosleep(req, rem) != 0) return 1;
	}
	return 0;
}
`
