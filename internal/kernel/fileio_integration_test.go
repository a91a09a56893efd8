package kernel_test

import (
	"testing"

	"cheriabi"
)

// Integration tests for the pluggable file-object layer: access-mode
// enforcement, pipe semantics through the File interface, descriptor
// sharing, the new vectored/positional syscalls, and the device table —
// all exercised from compiled C under both ABIs.

// TestAccessModeEnforced: write(2) on an O_RDONLY descriptor and read(2)
// on an O_WRONLY descriptor return EBADF (the mode was never checked
// after open before the File layer).
func TestAccessModeEnforced(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
char b[4];
int main() {
	int fd = open("/tmp/mode.dat", 0x200 | 2, 0);
	if (write(fd, "data", 4) != 4) return 1;
	close(fd);
	int ro = open("/tmp/mode.dat", 0, 0);
	if (ro < 0) return 2;
	if (write(ro, "x", 1) >= 0) return 3;
	if (errno() != 9) return 4; // EBADF
	if (read(ro, b, 4) != 4) return 5; // reads still fine
	close(ro);
	int wo = open("/tmp/mode.dat", 1, 0);
	if (wo < 0) return 6;
	if (read(wo, b, 1) >= 0) return 7;
	if (errno() != 9) return 8; // EBADF
	if (write(wo, "y", 1) != 1) return 9; // writes still fine
	close(wo);
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
		}
	})
}

// TestPipeEOFAndEPIPE: EOF once the last writer closes; EPIPE plus a
// delivered SIGPIPE once the last reader closes.
func TestPipeEOFAndEPIPE(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
int gotsig;
int handler(int sig, char *frame) { gotsig = sig; return 0; }
int main() {
	int fds[2];
	char b[4];
	pipe(fds);
	if (write(fds[1], "zz", 2) != 2) return 1;
	close(fds[1]); // last writer gone: buffered data, then EOF
	if (read(fds[0], b, 4) != 2) return 2;
	if (read(fds[0], b, 4) != 0) return 3; // EOF, not a block
	close(fds[0]);

	pipe(fds);
	close(fds[0]); // last reader gone
	sigaction(13, handler); // SIGPIPE
	if (write(fds[1], "x", 1) >= 0) return 4;
	if (errno() != 32) return 5; // EPIPE
	yield();
	if (gotsig != 13) return 6; // SIGPIPE was delivered
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
		}
	})
}

// TestPipeBlockingReadWakeupOrder: a reader blocked on an empty pipe
// wakes when the writer supplies data, repeatedly, and observes the
// writes in order.
func TestPipeBlockingReadWakeupOrder(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
int main() {
	int fds[2];
	char b[4];
	pipe(fds);
	int pid = fork();
	if (pid == 0) {
		int i;
		for (i = 0; i < 3; i++) yield();
		write(fds[1], "AA", 2);
		for (i = 0; i < 3; i++) yield();
		write(fds[1], "BB", 2);
		close(fds[1]);
		exit(0);
	}
	close(fds[1]);
	if (read(fds[0], b, 2) != 2) return 1; // blocks until the first write
	if (b[0] != 'A' || b[1] != 'A') return 2;
	if (read(fds[0], b, 2) != 2) return 3; // blocks again
	if (b[0] != 'B' || b[1] != 'B') return 4;
	if (read(fds[0], b, 2) != 0) return 5; // EOF after the child closes
	wait4(pid, 0, 0);
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
		}
	})
}

// TestDupAndForkShareDescription: dup(2) and fork(2) share one open-file
// description — one cursor, refcounted close.
func TestDupAndForkShareDescription(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
char b[4];
int main() {
	int fd = open("/tmp/dup.dat", 0x200 | 2, 0);
	if (write(fd, "0123456789", 10) != 10) return 1;
	lseek(fd, 0, 0);
	int d = dup(fd);
	if (read(fd, b, 4) != 4 || b[0] != '0') return 2;
	if (read(d, b, 4) != 4 || b[0] != '4') return 3; // shared cursor
	close(fd);
	if (read(d, b, 2) != 2 || b[0] != '8') return 4; // still open via dup
	close(d);
	if (read(d, b, 1) >= 0) return 5; // now fully closed
	if (errno() != 9) return 6;

	// Fork shares the description too: the child's reads advance the
	// parent's cursor.
	fd = open("/tmp/dup.dat", 0, 0);
	int pid = fork();
	if (pid == 0) {
		char cb[4];
		if (read(fd, cb, 4) != 4) exit(1);
		if (cb[0] != '0') exit(2);
		exit(0);
	}
	int status = 0;
	wait4(pid, &status, 0);
	if (status != 0) return 7;
	if (read(fd, b, 4) != 4) return 8;
	if (b[0] != '4') return 9; // continued where the child stopped
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
		}
	})
}

// TestReadvWritev: scatter-gather over a regular file and a pipe, with
// short-read stop at EOF.
func TestReadvWritev(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
struct iovec { char *base; long len; };
char a[4]; char b[6]; char c[6];
int main() {
	int fd = open("/tmp/vec.dat", 0x200 | 2, 0);
	struct iovec w[3];
	w[0].base = "abcd"; w[0].len = 4;
	w[1].base = "efghij"; w[1].len = 6;
	w[2].base = "klmn"; w[2].len = 4;
	if (writev(fd, w, 3) != 14) return 1;
	lseek(fd, 0, 0);
	struct iovec r[3];
	r[0].base = a; r[0].len = 4;
	r[1].base = b; r[1].len = 6;
	r[2].base = c; r[2].len = 4;
	if (readv(fd, r, 3) != 14) return 2;
	if (a[0] != 'a' || b[0] != 'e' || c[3] != 'n') return 3;
	// A short final read stops the scatter at EOF.
	lseek(fd, 10, 0);
	if (readv(fd, r, 2) != 4) return 4;
	if (a[0] != 'k' || a[3] != 'n') return 5;
	close(fd);

	// The same calls over a pipe.
	int fds[2];
	pipe(fds);
	w[0].base = "PIPE"; w[0].len = 4;
	w[1].base = "ware"; w[1].len = 4;
	if (writev(fds[1], w, 2) != 8) return 6;
	r[0].base = a; r[0].len = 4;
	r[1].base = b; r[1].len = 4;
	if (readv(fds[0], r, 2) != 8) return 7;
	if (a[0] != 'P' || b[0] != 'w' || b[3] != 'e') return 8;
	// Vector bound: more than IOV_MAX segments is EINVAL.
	if (readv(fds[0], r, 99) >= 0) return 9;
	if (errno() != 22) return 10;
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d output %q", res.ExitCode, res.Signal, res.Output)
		}
	})
}

// TestPreadPwrite: positional transfers leave the cursor alone; pipes
// return ESPIPE.
func TestPreadPwrite(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
char b[8];
char s[16];
int main() {
	int fd = open("/tmp/pos.dat", 0x200 | 2, 0);
	if (write(fd, "XXXXXXXXXX", 10) != 10) return 1; // cursor now 10
	if (pwrite(fd, "ab", 2, 4) != 2) return 2;
	if (pread(fd, b, 2, 4) != 2) return 3;
	if (b[0] != 'a' || b[1] != 'b') return 4;
	if (lseek(fd, 0, 1) != 10) return 5; // cursor untouched
	if (pread(fd, b, 8, 100) != 0) return 6; // past EOF
	// A length claimed past the buffer is fine while the file supplies
	// less: pread stages only the bytes at its offset, as read does at
	// the cursor.
	if (pread(fd, s, 64, 0) != 10) return 11;
	lseek(fd, 0, 0);
	if (read(fd, s, 64) != 10) return 12;
	close(fd);
	int fds[2];
	pipe(fds);
	if (pread(fds[0], b, 1, 0) >= 0) return 7;
	if (errno() != 29) return 8; // ESPIPE
	if (pwrite(fds[1], b, 1, 0) >= 0) return 9;
	if (errno() != 29) return 10;
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
		}
	})
}

// TestFtruncate: shrink, zero-filled grow, and EBADF on a read-only
// descriptor.
func TestFtruncate(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
char b[8];
int main() {
	int fd = open("/tmp/tr.dat", 0x200 | 2, 0);
	write(fd, "0123456789", 10);
	if (ftruncate(fd, 4) != 0) return 1;
	long st[2];
	if (fstat(fd, st) != 0 || st[0] != 4) return 2;
	if (ftruncate(fd, 8) != 0) return 3;
	if (fstat(fd, st) != 0 || st[0] != 8) return 4;
	if (pread(fd, b, 8, 0) != 8) return 5;
	if (b[3] != '3' || b[4] != 0) return 6; // growth is zero-filled
	int ro = open("/tmp/tr.dat", 0, 0);
	if (ftruncate(ro, 0) >= 0) return 7;
	if (errno() != 9) return 8; // EBADF
	// Runaway sizes and offsets hit the file-size limit, not the host.
	if (ftruncate(fd, 1 << 40) >= 0) return 9;
	if (errno() != 27) return 10; // EFBIG
	if (pwrite(fd, b, 1, 1 << 40) >= 0) return 11;
	if (errno() != 27) return 12;
	// A negative seek target is rejected and the cursor stays put.
	lseek(fd, 2, 0);
	if (lseek(fd, -5, 0) >= 0) return 13;
	if (errno() != 22) return 14; // EINVAL
	if (lseek(fd, 0, 1) != 2) return 15;
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
		}
	})
}

// TestReadFaultConsumesNothing: a read whose destination capability
// cannot hold the staged bytes faults *before* the object is consumed —
// no pipe bytes drain, no file cursor motion (CheriABI; the legacy ABI
// has no bounded buffer to refuse).
func TestReadFaultConsumesNothing(t *testing.T) {
	res := runC(t, cheriabi.ABICheri, `
char small[4];
char b[8];
int main() {
	int fds[2];
	pipe(fds);
	if (write(fds[1], "12345678", 8) != 8) return 1;
	if (read(fds[0], small, 8) >= 0) return 2; // capability covers 4 of 8
	if (errno() != 14) return 3; // EFAULT
	if (read(fds[0], b, 8) != 8) return 4; // nothing was drained
	if (b[0] != '1' || b[7] != '8') return 5;

	int fd = open("/tmp/keep.dat", 0x200 | 2, 0);
	write(fd, "abcdefgh", 8);
	lseek(fd, 0, 0);
	if (read(fd, small, 8) >= 0) return 6;
	if (errno() != 14) return 7;
	if (lseek(fd, 0, 1) != 0) return 8; // cursor did not move
	return 0;
}`)
	if res.ExitCode != 0 {
		t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
	}
}

// TestDevZeroAndUrandom: /dev/zero supplies zeros; /dev/urandom supplies
// a non-degenerate stream that differs between successive reads.
func TestDevZeroAndUrandom(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
char b[32]; char c[32];
int main() {
	int i;
	int z = open("/dev/zero", 0, 0);
	if (z < 0) return 1;
	for (i = 0; i < 32; i++) b[i] = 7;
	if (read(z, b, 32) != 32) return 2;
	for (i = 0; i < 32; i++) if (b[i] != 0) return 3;
	close(z);
	int u = open("/dev/urandom", 0, 0);
	if (u < 0) return 4;
	if (read(u, b, 32) != 32) return 5;
	if (read(u, c, 32) != 32) return 6;
	int nz = 0; int diff = 0;
	for (i = 0; i < 32; i++) {
		if (b[i] != 0) nz++;
		if (b[i] != c[i]) diff++;
	}
	if (nz == 0) return 7;  // all-zero "randomness"
	if (diff == 0) return 8; // stream must advance
	close(u);
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
		}
	})
}

// TestUrandomSeedPlumbing: equal-seed boots read identical urandom bytes
// (the differential property); an explicit Config.UrandomSeed overrides.
func TestUrandomSeedPlumbing(t *testing.T) {
	src := `
char b[32];
int main() {
	int u = open("/dev/urandom", 0, 0);
	if (read(u, b, 32) != 32) return 1;
	int i;
	for (i = 0; i < 32; i++) printf("%x.", b[i]);
	return 0;
}`
	img, _, err := cheriabi.Compile(cheriabi.CompileOptions{Name: "urand", ABI: cheriabi.ABICheri}, src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg cheriabi.Config) string {
		sys := cheriabi.NewSystem(cfg)
		res, err := sys.RunImage(img, "urand")
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitCode != 0 {
			t.Fatalf("exit %d", res.ExitCode)
		}
		return res.Output
	}
	a := run(cheriabi.Config{MemBytes: 64 << 20, Seed: 5})
	b := run(cheriabi.Config{MemBytes: 64 << 20, Seed: 5})
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := run(cheriabi.Config{MemBytes: 64 << 20, Seed: 5, UrandomSeed: 424242})
	if a == c {
		t.Fatal("UrandomSeed override had no effect")
	}
	d := run(cheriabi.Config{MemBytes: 64 << 20, Seed: 6, UrandomSeed: 424242})
	if c != d {
		t.Fatal("UrandomSeed did not pin the stream across boot seeds")
	}
}

// TestSelectOnDeviceAndFileAlwaysReady: the Poll path reports devices and
// regular files ready in both directions.
func TestSelectOnDeviceAndFileAlwaysReady(t *testing.T) {
	bothABIs(t, func(t *testing.T, abi cheriabi.ABI) {
		res := runC(t, abi, `
int main() {
	int z = open("/dev/zero", 2, 0);
	int fd = open("/tmp/sel.dat", 0x200 | 2, 0);
	long rset = (1 << z) | (1 << fd);
	long wset = (1 << z) | (1 << fd);
	long tv[2]; tv[0] = 0; tv[1] = 0;
	if (select(16, &rset, &wset, 0, tv) != 4) return 1;
	return 0;
}`)
		if res.ExitCode != 0 {
			t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
		}
	})
}
