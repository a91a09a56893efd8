package workload

// SrcPosixInet is the AF_INET stream workload: everything runs on one
// machine over loopback (the virtual NIC delivers local packets
// synchronously, so no fabric is needed), which keeps it runnable by the
// Figure 4 harness and the differential matrix. It probes the socket
// domain errnos, a refused connect, a forked poll-driven echo server
// with three concurrent clients, listen(2) backlog enforcement through
// non-blocking connects, and getsockname/getpeername. Every figure it
// prints is a pure function of the byte streams, so both ABIs and all
// simulator configurations emit identical output.
const SrcPosixInet = `
struct sockaddr_in { int family; int port; int addr; };
struct pollfd { int fd; int events; int revents; };

int run_server(int nclients) {
	int l = socket(2, 1, 0);
	if (l < 0) exit(50);
	struct sockaddr_in sa[1];
	sa[0].family = 2; sa[0].port = 7000; sa[0].addr = 2130706433;
	if (bind(l, sa) != 0) exit(51);
	if (listen(l, 8) != 0) exit(52);
	fcntl(l, 4, 4); // O_NONBLOCK: a raced-away connector is EAGAIN, not a hang
	int conns[8];
	int nconn = 0;
	int done = 0;
	long served = 0;
	struct pollfd pf[8];
	char cb[128];
	while (done < nclients) {
		pf[0].fd = l; pf[0].events = 1; pf[0].revents = 0;
		int i;
		for (i = 0; i < nconn; i++) {
			pf[i + 1].fd = conns[i]; pf[i + 1].events = 1; pf[i + 1].revents = 0;
		}
		if (poll(pf, nconn + 1, -1) <= 0) exit(53);
		if (pf[0].revents & 1) {
			int c = accept(l);
			if (c >= 0) { conns[nconn] = c; nconn = nconn + 1; }
			else if (errno() != 35) exit(54);
		}
		for (i = 0; i < nconn; i++) {
			if ((pf[i + 1].revents & 1) == 0) continue;
			long n = recv(conns[i], cb, 128, 0);
			if (n > 0) {
				if (send(conns[i], cb, n, 0) != n) exit(55);
				served += n;
			}
			if (n == 0) { // client shut down: drop the connection
				close(conns[i]);
				conns[i] = conns[nconn - 1];
				nconn = nconn - 1;
				done = done + 1;
				break; // pf indices are stale now; re-poll
			}
		}
	}
	close(l);
	exit((int)(served & 63));
}

int run_client(int id, int rounds) {
	int c = socket(2, 1, 0);
	if (c < 0) exit(60);
	struct sockaddr_in sa[1];
	sa[0].family = 2; sa[0].port = 7000; sa[0].addr = 2130706433;
	int tries = 0;
	while (connect(c, sa) != 0) {
		if (errno() != 61) exit(61); // only ECONNREFUSED until the server binds
		tries = tries + 1;
		if (tries > 400) exit(62);
		yield();
	}
	struct sockaddr_in pn[1];
	if (getpeername(c, pn) != 0) exit(66);
	if (pn[0].family != 2 || pn[0].port != 7000) exit(67);
	if (getsockname(c, pn) != 0) exit(68);
	if (pn[0].port < 49152) exit(69); // connects draw ephemeral ports
	char mb[64];
	long sum = 0;
	int r; int j;
	for (r = 0; r < rounds; r++) {
		int n = snprintf(mb, 64, "i%d-r%d-inet-payload", id, r);
		if (send(c, mb, n, 0) != n) exit(63);
		long got = recv(c, mb, 64, 0); // parks until the echo arrives
		if (got != n) exit(64);
		for (j = 0; j < got; j++) sum += mb[j];
	}
	shutdown(c, 1);                  // FIN: the server sees EOF
	if (recv(c, mb, 64, 0) != 0) exit(65); // server closes: EOF back
	close(c);
	exit((int)(sum & 63));
}

int main() {
	// Domain/type probes: unknown family is EAFNOSUPPORT, non-stream or
	// non-default protocol is EINVAL.
	if (socket(9, 1, 0) >= 0) return 1;
	if (errno() != 47) return 2;
	if (socket(2, 2, 0) >= 0) return 3;
	if (errno() != 22) return 4;

	// Connecting where nobody listens is refused synchronously on loopback.
	struct sockaddr_in sa[1];
	sa[0].family = 2; sa[0].port = 7999; sa[0].addr = 2130706433;
	int probe = socket(2, 1, 0);
	if (connect(probe, sa) == 0) return 5;
	if (errno() != 61) return 6;
	close(probe);

	// The echo service: one poll-driven server, three concurrent clients.
	int srv = fork();
	if (srv == 0) run_server(3);
	int cl[3];
	int i;
	for (i = 0; i < 3; i++) {
		cl[i] = fork();
		if (cl[i] == 0) run_client(i, 4 + i);
	}
	long csum = 0;
	for (i = 0; i < 3; i++) {
		int st = 0;
		if (wait4(cl[i], &st, 0) != cl[i]) return 7;
		if ((st & 127) != 0) return 8;
		csum += st >> 8;
	}
	int sst = 0;
	if (wait4(srv, &sst, 0) != srv) return 9;
	if ((sst & 127) != 0) return 10;

	// Backlog enforcement: two EINPROGRESS connects fill a backlog of 2,
	// the third is refused outright, and succeeds once accept drains the
	// queue — connects beyond the backlog are never queued unboundedly.
	int nb = 0;
	int l = socket(2, 1, 0);
	sa[0].port = 7100; sa[0].addr = 0; // INADDR_ANY
	if (bind(l, sa) != 0) return 11;
	if (listen(l, 2) != 0) return 12;
	sa[0].addr = 2130706433;
	int c1 = socket(2, 1, 0); fcntl(c1, 4, 4);
	int c2 = socket(2, 1, 0); fcntl(c2, 4, 4);
	int c3 = socket(2, 1, 0); fcntl(c3, 4, 4);
	if (connect(c1, sa) != 0 && errno() == 36) nb = nb + 1;
	if (connect(c2, sa) != 0 && errno() == 36) nb = nb + 1;
	if (connect(c3, sa) != 0 && errno() == 61) nb = nb + 1; // backlog full
	int a1 = accept(l);
	if (a1 >= 0) nb = nb + 1;
	if (connect(c3, sa) != 0 && errno() == 36) nb = nb + 1; // space again
	int a2 = accept(l);
	int a3 = accept(l);
	if (a2 >= 0 && a3 >= 0) nb = nb + 1;
	if (connect(c1, sa) == 0) nb = nb + 1; // completion report
	if (connect(c1, sa) != 0 && errno() == 56) nb = nb + 1; // then EISCONN
	struct sockaddr_in pn[1];
	if (getsockname(a1, pn) == 0 && pn[0].port == 7100) nb = nb + 1;
	if (getpeername(a1, pn) == 0 && pn[0].port >= 49152) nb = nb + 1;
	if (send(a1, "ping", 4, 0) != 4) return 13;
	char rb[8];
	if (recv(c1, rb, 8, 0) == 4) nb = nb + 1; // accept order is FIFO: a1 is c1
	close(c1); close(c2); close(c3);
	close(a1); close(a2); close(a3); close(l);

	printf("inet ok csum %d srv %d nb %d\n", (int)csum, sst >> 8, nb);
	return 0;
}
`

// SrcInetFleetServer is the fleet-side echo server: it binds INADDR_ANY
// port 7000 on its machine, then runs the poll-driven accept+echo loop
// until argv[1] connections have come and gone. Payload sizes up to 2048
// bytes per transfer; the served-byte total it prints is a pure function
// of the client byte streams, so it is identical across fabric seeds.
const SrcInetFleetServer = `
struct sockaddr_in { int family; int port; int addr; };
struct pollfd { int fd; int events; int revents; };
int conns[48];
struct pollfd pf[49];
char cb[2048];

int main(int argc, char **argv) {
	int nclients = atoi(argv[1]);
	int l = socket(2, 1, 0);
	if (l < 0) return 1;
	struct sockaddr_in sa[1];
	sa[0].family = 2; sa[0].port = 7000; sa[0].addr = 0;
	if (bind(l, sa) != 0) return 2;
	if (listen(l, 64) != 0) return 3;
	fcntl(l, 4, 4);
	int nconn = 0;
	int done = 0;
	long served = 0;
	while (done < nclients) {
		pf[0].fd = l; pf[0].events = 1; pf[0].revents = 0;
		int i;
		for (i = 0; i < nconn; i++) {
			pf[i + 1].fd = conns[i]; pf[i + 1].events = 1; pf[i + 1].revents = 0;
		}
		if (poll(pf, nconn + 1, -1) <= 0) return 4;
		if (pf[0].revents & 1) {
			int c = accept(l);
			if (c >= 0) { conns[nconn] = c; nconn = nconn + 1; }
			else if (errno() != 35) return 5;
		}
		for (i = 0; i < nconn; i++) {
			if ((pf[i + 1].revents & 1) == 0) continue;
			long n = recv(conns[i], cb, 2048, 0);
			if (n > 0) {
				if (send(conns[i], cb, n, 0) != n) return 6;
				served += n;
			}
			if (n == 0) {
				close(conns[i]);
				conns[i] = conns[nconn - 1];
				nconn = nconn - 1;
				done = done + 1;
				break;
			}
		}
	}
	close(l);
	printf("server served %d conns %d\n", (int)served, nclients);
	return 0;
}
`

// SrcInetFleetClient is the fleet-side echo client driving
// TestFleetEchoCrossMachine: argv[1] is the server's fabric address as a host
// integer, argv[2] the number of 512-byte round trips, argv[3] this
// machine's id. Connects use timed retry (50 us of virtual time between
// attempts) until the server's listener is up. The checksum it prints
// covers only received payload bytes, so it is identical across fabric
// seeds even though per-round timing is not.
const SrcInetFleetClient = `
struct sockaddr_in { int family; int port; int addr; };
char buf[512];
char rb[512];

int main(int argc, char **argv) {
	int addr = atoi(argv[1]);
	int rounds = atoi(argv[2]);
	int id = atoi(argv[3]);
	int c = socket(2, 1, 0);
	if (c < 0) return 1;
	struct sockaddr_in sa[1];
	sa[0].family = 2; sa[0].port = 7000; sa[0].addr = addr;
	int tries = 0;
	while (connect(c, sa) != 0) {
		if (errno() != 61) return 2; // refused until the server binds
		tries = tries + 1;
		if (tries > 4000) return 3;
		usleep(50);
	}
	int i; int j;
	for (j = 0; j < 512; j++) buf[j] = (char)(((id + 3) * (j + 7)) % 125);
	long sum = 0;
	for (i = 0; i < rounds; i++) {
		if (send(c, buf, 512, 0) != 512) return 4;
		long got = 0;
		while (got < 512) {
			long r = recv(c, rb, 512 - got, 0);
			if (r <= 0) return 5;
			// Rolling hash over the byte stream in order: independent of
			// how recv chunks it, sensitive to any reorder or corruption.
			for (j = 0; j < r; j++) sum = (sum * 31 + rb[j]) & 1048575;
			got += r;
		}
	}
	shutdown(c, 1);
	if (recv(c, rb, 512, 0) != 0) return 6;
	close(c);
	printf("client %d sum %d\n", id, (int)sum);
	return 0;
}
`

// SrcLoadGenClient is the load-generator client machine: argv[1] the
// server's address, argv[2] the number of forked connection workers,
// argv[3] requests per connection, argv[4] this machine's id. Each
// worker runs a fixed request mix (64/256/512/1024-byte requests, round
// robin), measures every request's round trip on the virtual clock, and
// emits one "L <cycles>" line per request with a single write(2) to the
// tty — which lands in the root process's output whoever forked the
// writer, and atomically, so lines from concurrent workers never shear.
// The response
// checksums — summed across workers into the machine's "loadgen" line —
// depend only on the byte streams and are identical across fabric seeds;
// the L lines carry the seed-dependent latency distribution the host
// aggregates into p50/p99.
const SrcLoadGenClient = `
struct sockaddr_in { int family; int port; int addr; };
int sizes[4];
char req[1024];
char rb[1024];

int run_worker(int addr, int wid, int requests) {
	int c = socket(2, 1, 0);
	if (c < 0) exit(10);
	struct sockaddr_in sa[1];
	sa[0].family = 2; sa[0].port = 7000; sa[0].addr = addr;
	int tries = 0;
	while (connect(c, sa) != 0) {
		if (errno() != 61) exit(11);
		tries = tries + 1;
		if (tries > 4000) exit(12);
		usleep(50); // timed retry on the virtual clock
	}
	int j;
	for (j = 0; j < 1024; j++) req[j] = (char)(((wid + 3) * (j + 7)) % 125);
	long sum = 0;
	int r;
	for (r = 0; r < requests; r++) {
		int n = sizes[r & 3];
		long t0 = (long)gettime();
		if (send(c, req, n, 0) != n) exit(13);
		long got = 0;
		while (got < n) {
			long k = recv(c, rb, n - got, 0);
			if (k <= 0) exit(14);
			// Rolling hash, chunking-independent (see the echo client).
			for (j = 0; j < k; j++) sum = (sum * 31 + rb[j]) & 1048575;
			got += k;
		}
		long t1 = (long)gettime();
		char ln[32];
		int m = snprintf(ln, 32, "L %d\n", (int)(t1 - t0));
		if (write(1, ln, m) != m) exit(16);
	}
	shutdown(c, 1);
	if (recv(c, rb, 16, 0) != 0) exit(15);
	close(c);
	exit((int)(sum & 63));
}

int main(int argc, char **argv) {
	int addr = atoi(argv[1]);
	int conns = atoi(argv[2]);
	int requests = atoi(argv[3]);
	int id = atoi(argv[4]);
	sizes[0] = 64; sizes[1] = 256; sizes[2] = 512; sizes[3] = 1024;
	int w;
	for (w = 0; w < conns; w++) {
		int pid = fork();
		if (pid == 0) run_worker(addr, id * 64 + w, requests);
	}
	long sum = 0;
	for (w = 0; w < conns; w++) {
		int st = 0;
		if (wait4(-1, &st, 0) <= 0) return 1;
		if ((st & 127) != 0) return 2;
		sum += st >> 8;
	}
	printf("loadgen %d done sum %d\n", id, (int)sum);
	return 0;
}
`
