package workload

// SrcPosixSockets is the socket/event-multiplexing workload: a forked
// AF_UNIX echo server running a poll(2)-driven accept+echo loop serves
// three concurrent forked clients, after a socketpair warm-up, a
// deterministic /dev scan through readdir, and a non-blocking
// connect/EINPROGRESS handshake observed through poll writability. Every
// figure it prints is a pure function of the byte streams, so both ABIs
// and all simulator configurations emit identical output.
const SrcPosixSockets = `
struct pollfd { int fd; int events; int revents; };
char buf[128];

int run_server(int nclients) {
	int l = socket(1, 1, 0);
	if (l < 0) exit(50);
	if (bind(l, "/tmp/srv.sock") != 0) exit(51);
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
	int c = socket(1, 1, 0);
	if (c < 0) exit(60);
	int tries = 0;
	while (connect(c, "/tmp/srv.sock") != 0) {
		if (errno() != 61) exit(61); // only ECONNREFUSED until the server binds
		tries = tries + 1;
		if (tries > 200) exit(62);
		yield();
	}
	char mb[64];
	long sum = 0;
	int r; int j;
	for (r = 0; r < rounds; r++) {
		int n = snprintf(mb, 64, "c%d-r%d-payload", id, r);
		if (send(c, mb, n, 0) != n) exit(63);
		long got = recv(c, mb, 64, 0); // parks until the echo arrives
		if (got != n) exit(64);
		for (j = 0; j < got; j++) sum += mb[j];
	}
	shutdown(c, 1);                  // SHUT_WR: the server sees EOF
	if (recv(c, mb, 64, 0) != 0) exit(65); // server closes: EOF back
	close(c);
	exit((int)(sum & 63));
}

int main() {
	// Deterministic /dev scan: fixed 64-byte dirents in sorted order.
	char ents[512];
	int dv = open("/dev", 0, 0);
	if (dv < 0) return 1;
	long dn = readdir(dv, ents, 512);
	close(dv);
	if (dn <= 0 || dn % 64 != 0) return 2;
	int devs = (int)(dn / 64);

	// Socketpair warm-up: bidirectional stream between parent and child.
	int sv[2];
	if (socketpair(1, 1, 0, sv) != 0) return 3;
	int pe = fork();
	if (pe == 0) {
		char pb[32];
		long n = recv(sv[1], pb, 32, 0);
		while (n > 0) {
			if (send(sv[1], pb, n, 0) != n) exit(40);
			n = recv(sv[1], pb, 32, 0);
		}
		exit(0);
	}
	close(sv[1]);
	long pairsum = 0;
	int i;
	for (i = 0; i < 3; i++) {
		if (send(sv[0], "pair-data", 9, 0) != 9) return 4;
		if (recv(sv[0], buf, 32, 0) != 9) return 5;
		pairsum += buf[0] + buf[8];
	}
	shutdown(sv[0], 1);
	if (recv(sv[0], buf, 32, 0) != 0) return 6;
	close(sv[0]);
	int pst = 0;
	if (wait4(pe, &pst, 0) != pe || pst != 0) return 7;

	// The echo service: one poll-driven server, three concurrent clients.
	int srv = fork();
	if (srv == 0) run_server(3);
	int cl[3];
	for (i = 0; i < 3; i++) {
		cl[i] = fork();
		if (cl[i] == 0) run_client(i, 4 + i);
	}
	long csum = 0;
	for (i = 0; i < 3; i++) {
		int st = 0;
		if (wait4(cl[i], &st, 0) != cl[i]) return 8;
		if ((st & 127) != 0) return 9;
		csum += st >> 8;
	}
	int sst = 0;
	if (wait4(srv, &sst, 0) != srv) return 10;
	if ((sst & 127) != 0) return 11;

	// Non-blocking connect: EINPROGRESS, completion as poll writability.
	int l = socket(1, 1, 0);
	if (bind(l, "/tmp/nb.sock") != 0) return 12;
	if (listen(l, 4) != 0) return 13;
	int nc = socket(1, 1, 0);
	fcntl(nc, 4, 4);
	int nb = 0;
	if (connect(nc, "/tmp/nb.sock") != 0 && errno() == 36) nb = nb + 1;
	struct pollfd pf[1];
	pf[0].fd = nc; pf[0].events = 4; pf[0].revents = 0;
	if (poll(pf, 1, 0) == 0) nb = nb + 1;   // not writable before accept
	int sc = accept(l);
	if (sc < 0) return 14;
	pf[0].revents = 0;
	if (poll(pf, 1, -1) == 1 && (pf[0].revents & 4)) nb = nb + 1;
	if (connect(nc, "/tmp/nb.sock") == 0) nb = nb + 1; // completion report
	if (fcntl(nc, 4, 0) == 0) nb = nb + 1;
	if (send(nc, "nb", 2, 0) != 2) return 15;
	if (recv(sc, buf, 8, 0) == 2) nb = nb + 1;
	close(nc); close(sc); close(l);

	printf("sockets ok devs %d pair %d clients %d srv %d nb %d\n",
		devs, (int)pairsum, (int)csum, sst >> 8, nb);
	return 0;
}
`

// SrcSocketEchoBench drives BenchmarkSocketEcho: argv[1] round trips of a
// 512-byte record through a socketpair to a forked echo child — each
// round is two parks, two wait-queue wakes, and four capability-checked
// transfers through uaccess.
const SrcSocketEchoBench = `
char buf[512];
int sv[2];
int main(int argc, char **argv) {
	int n = atoi(argv[1]);
	if (socketpair(1, 1, 0, sv) != 0) return 1;
	int pid = fork();
	if (pid == 0) {
		char cb[512];
		long r = recv(sv[1], cb, 512, 0);
		while (r > 0) {
			if (send(sv[1], cb, r, 0) != r) exit(2);
			r = recv(sv[1], cb, 512, 0);
		}
		exit(r == 0 ? 0 : 3);
	}
	close(sv[1]);
	int i;
	for (i = 0; i < n; i++) {
		if (send(sv[0], buf, 512, 0) != 512) return 4;
		long got = 0;
		while (got < 512) {
			long r = recv(sv[0], buf, 512 - got, 0);
			if (r <= 0) return 5;
			got += r;
		}
	}
	shutdown(sv[0], 1);
	int st = 0;
	wait4(pid, &st, 0);
	return st;
}
`

// SrcPollStormBench drives TestMarginalCycles: argv[1] idle children each
// parked forever on its own silent pipe, argv[2] echo round trips through
// one hot pipe pair. With the wait-queue scheduler each wake costs
// O(subscribers of the hot pipe) regardless of argv[1]; the old
// implementation re-ran every parked thread's poll closure on every
// context switch. Children close inherited descriptors they do not own,
// so the teardown EOFs propagate deterministically.
const SrcPollStormBench = `
int tmp[2];
int ipw[64];
int pa[2]; int pb[2];
char b[8];
int main(int argc, char **argv) {
	int idle = atoi(argv[1]);
	int wakes = atoi(argv[2]);
	int i; int j;
	for (i = 0; i < idle; i++) {
		if (pipe(tmp) != 0) return 1;
		ipw[i] = tmp[1];
		int pid = fork();
		if (pid == 0) {
			for (j = 0; j <= i; j++) close(ipw[j]); // incl. own write end
			char cb[4];
			long n = read(tmp[0], cb, 4); // parks until the final EOF
			exit(n == 0 ? 0 : 9);
		}
		close(tmp[0]);
	}
	if (pipe(pa) != 0) return 2;
	if (pipe(pb) != 0) return 3;
	int pid = fork();
	if (pid == 0) {
		for (j = 0; j < idle; j++) close(ipw[j]);
		close(pa[1]); close(pb[0]);
		char cb[8];
		long n = read(pa[0], cb, 8);
		while (n > 0) {
			if (write(pb[1], cb, n) != n) exit(8);
			n = read(pa[0], cb, 8);
		}
		exit(n == 0 ? 0 : 9);
	}
	close(pa[0]); close(pb[1]);
	for (i = 0; i < wakes; i++) {
		if (write(pa[1], "x", 1) != 1) return 4;
		if (read(pb[0], b, 1) != 1) return 5;
	}
	close(pa[1]);                       // echo child drains to EOF
	for (i = 0; i < idle; i++) close(ipw[i]); // idle children see EOF
	int bad = 0;
	for (i = 0; i < idle + 1; i++) {
		int st = 0;
		if (wait4(-1, &st, 0) <= 0) return 6;
		if (st != 0) bad = bad + 1;
	}
	return bad;
}
`
