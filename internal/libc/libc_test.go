package libc_test

import (
	"strings"
	"testing"

	"cheriabi"
	"cheriabi/internal/kernel"
	"cheriabi/internal/libc"
	"cheriabi/internal/nat"
)

func run(t *testing.T, abi cheriabi.ABI, src string) *cheriabi.RunResult {
	t.Helper()
	img, _, err := cheriabi.Compile(cheriabi.CompileOptions{Name: "libctest", ABI: abi}, src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: 64 << 20})
	res, err := sys.RunImage(img)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestMallocBoundsExact: small allocations get byte-exact bounds under
// CheriABI ("We install bounds matching the requested allocation").
func TestMallocBoundsExact(t *testing.T) {
	res := run(t, cheriabi.ABICheri, `
int main() {
	int i;
	for (i = 1; i < 200; i += 7) {
		char *p = (char *)malloc(i);
		if (!cheri_tag_get(p)) return 1;
		if (cheri_length_get(p) != representable_length(i)) return 2;
		if (cheri_length_get(p) < i) return 3;
		free(p);
	}
	return 0;
}`)
	if res.ExitCode != 0 {
		t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
	}
}

// TestMallocStripsVMMapAndExec: heap capabilities cannot remap memory.
func TestMallocStripsVMMapAndExec(t *testing.T) {
	res := run(t, cheriabi.ABICheri, `
int main() {
	char *p = (char *)malloc(64);
	// PermVMMap is bit 11, PermExecute bit 1 in the simulator's encoding.
	long perms = cheri_perms_get(p);
	if (perms & (1 << 11)) return 1; // vmmap must be stripped
	if (perms & (1 << 1)) return 2;  // execute must be stripped
	// munmap through a heap capability must be refused.
	if (munmap(p, 4096) == 0) return 3;
	if (errno() != 13) return 4; // EACCES
	return 0;
}`)
	if res.ExitCode != 0 {
		t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
	}
}

// TestFreeForeignPointerRejected: free() looks allocations up by address;
// a non-allocation address is discarded without corrupting the heap.
func TestFreeForeignPointerRejected(t *testing.T) {
	res := run(t, cheriabi.ABICheri, `
char g[64];
int main() {
	char *a = (char *)malloc(32);
	free(g);      // not a heap allocation: ignored
	free(a + 8);  // interior pointer: ignored
	a[31] = 7;    // allocation still intact
	free(a);
	char *b = (char *)malloc(32);
	if (b == 0) return 1;
	b[0] = 1;
	return 0;
}`)
	if res.ExitCode != 0 || res.Signal != 0 {
		t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
	}
}

// TestHeapReuse: freed blocks recycle within their size class.
func TestHeapReuse(t *testing.T) {
	res := run(t, cheriabi.ABICheri, `
int main() {
	char *a = (char *)malloc(100);
	uintptr_t addrA = (uintptr_t)a;
	free(a);
	char *b = (char *)malloc(100);
	return (uintptr_t)b == addrA ? 0 : 1;
}`)
	if res.ExitCode != 0 {
		t.Fatalf("freed block not recycled: exit %d", res.ExitCode)
	}
}

// TestMemcpyPreservesCapabilityTags: copying an array of pointers keeps
// them dereferenceable (the qsort/memcpy pointer-propagation requirement).
func TestMemcpyPreservesCapabilityTags(t *testing.T) {
	res := run(t, cheriabi.ABICheri, `
int vals[4];
int *src[4];
int *dst[4];
int main() {
	int i;
	for (i = 0; i < 4; i++) { vals[i] = i * 11; src[i] = &vals[i]; }
	memcpy(dst, src, sizeof(src));
	int sum = 0;
	for (i = 0; i < 4; i++) sum += *dst[i]; // traps if tags were lost
	return sum == 66 ? 0 : 1;
}`)
	if res.ExitCode != 0 || res.Signal != 0 {
		t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
	}
}

// TestQsortPreservesPointers: sorting an array of structs containing
// pointers keeps the pointers valid ("we needed to extend qsort ... to
// preserve capabilities when swapping array elements").
func TestQsortPreservesPointers(t *testing.T) {
	res := run(t, cheriabi.ABICheri, `
struct rec { long key; char *name; };
struct rec recs[8];
char *names[8] = { "h", "g", "f", "e", "d", "c", "b", "a" };
int cmp(struct rec *x, struct rec *y) {
	if (x->key < y->key) return -1;
	if (x->key > y->key) return 1;
	return 0;
}
int main() {
	int i;
	for (i = 0; i < 8; i++) { recs[i].key = 7 - i; recs[i].name = names[i]; }
	qsort(recs, 8, sizeof(struct rec), cmp);
	for (i = 0; i < 8; i++) {
		if (recs[i].key != i) return 1;
		if (recs[i].name[0] != 'a' + i) return 2; // traps if tag lost
	}
	return 0;
}`)
	if res.ExitCode != 0 || res.Signal != 0 {
		t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
	}
}

// TestStringWalkFaultsPastHeapBounds: library routines fault exactly as
// compiled code would when walking off an allocation.
func TestStringWalkFaultsPastHeapBounds(t *testing.T) {
	res := run(t, cheriabi.ABICheri, `
int main() {
	char *s = (char *)malloc(8);
	int i;
	for (i = 0; i < 8; i++) s[i] = 'x'; // no terminator
	return (int)strlen(s);
}`)
	if res.Signal != 34 {
		t.Fatalf("strlen should fault at the boundary: exit %d signal %d", res.ExitCode, res.Signal)
	}
	// The same walk reads whatever follows on the legacy ABI.
	res = run(t, cheriabi.ABILegacy, `
int main() {
	char *s = (char *)malloc(8);
	int i;
	for (i = 0; i < 8; i++) s[i] = 'x';
	long n = strlen(s);
	return n >= 8 ? 0 : 1;
}`)
	if res.ExitCode != 0 {
		t.Fatalf("legacy strlen: exit %d signal %d", res.ExitCode, res.Signal)
	}
}

// TestPrintfFormats covers the formatter.
func TestPrintfFormats(t *testing.T) {
	res := run(t, cheriabi.ABICheri, `
int main() {
	printf("%d %u %x %c %s %% %p", -5, 7, 255, 'q', "str", "x");
	return 0;
}`)
	if !strings.HasPrefix(res.Output, "-5 7 ff q str % 0x") {
		t.Fatalf("printf output %q", res.Output)
	}
}

// TestTLSGet returns a bounded per-thread block.
func TestTLSGet(t *testing.T) {
	res := run(t, cheriabi.ABICheri, `
struct tlsdata { long a; long b; };
int main() {
	struct tlsdata *td = (struct tlsdata *)tls_get(sizeof(struct tlsdata));
	if (td == 0) return 1;
	td->a = 42;
	struct tlsdata *again = (struct tlsdata *)tls_get(sizeof(struct tlsdata));
	if (again->a != 42) return 2; // same block per thread
	if (cheri_length_get(td) < sizeof(struct tlsdata)) return 3;
	return 0;
}`)
	if res.ExitCode != 0 {
		t.Fatalf("exit %d signal %d", res.ExitCode, res.Signal)
	}
}

// TestCallocZeroesRecycledBlocks.
func TestCallocZeroesRecycledBlocks(t *testing.T) {
	res := run(t, cheriabi.ABICheri, `
int main() {
	char *a = (char *)malloc(64);
	int i;
	for (i = 0; i < 64; i++) a[i] = 0x55;
	free(a);
	char *b = (char *)calloc(8, 8); // same class: recycles a
	for (i = 0; i < 64; i++) {
		if (b[i] != 0) return 1;
	}
	return 0;
}`)
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
}

// TestEveryNativeRegistered: Install registers a body for exactly the
// natives package nat declares, so a declared native never traps SIGSYS
// and no body hides behind an undeclared id.
func TestEveryNativeRegistered(t *testing.T) {
	k := kernel.NewMachine(kernel.Config{MemBytes: 16 << 20}).Kern
	libc.Install(k)
	for id, c := range nat.Natives {
		if declared, registered := c.Sig != "", k.Natives[id] != nil; declared != registered {
			t.Errorf("native %d (%q): declared %v, registered %v", id, c.Sig, declared, registered)
		}
	}
}

// TestNativePointerAuthorityPinned pins output and cycles of a program that
// passes pointers and integers to snprintf, memcpy, qsort and strncmp
// under both ABIs. A native's pointer is the caller's capability under
// CheriABI and DDC-equivalent authority under legacy, never charged as a
// kernel validation: passing the legacy pointer untagged faults the
// first access, charging it moves the cycle count, and a misdecoded
// argument changes the output.
func TestNativePointerAuthorityPinned(t *testing.T) {
	const src = `
int keys[9] = { 42, -7, 19, 0, 88, 3, -21, 55, 19 };
int cmp(int *x, int *y) {
	if (*x < *y) return -1;
	if (*x > *y) return 1;
	return 0;
}
int main() {
	char buf[48];
	char copy[48];
	int n = snprintf(buf, 10, "%s=%d/%x", "answer", 42, 255);
	memcpy(copy, buf, 10);
	qsort(keys, 9, sizeof(int), cmp);
	int i;
	for (i = 0; i < 9; i++) printf("%d ", keys[i]);
	printf("| %s %d %d %d %d\n", copy, n, strncmp(copy, "answer=41", 8), strncmp(copy, "answer=41", 9) > 0, strncmp("abc", "abd", 2));
	return 0;
}`
	const want = "-21 -7 0 3 19 19 42 55 88 | answer=42 12 0 1 0\n"
	for _, tc := range []struct {
		abi    cheriabi.ABI
		cycles uint64
	}{
		{cheriabi.ABILegacy, 21375},
		{cheriabi.ABICheri, 21878},
	} {
		res := run(t, tc.abi, src)
		if res.ExitCode != 0 || res.Signal != 0 || res.Output != want {
			t.Errorf("%v: exit %d signal %d output %q, want %q", tc.abi, res.ExitCode, res.Signal, res.Output, want)
		}
		if res.Stats.Cycles != tc.cycles {
			t.Errorf("%v: %d cycles, want %d", tc.abi, res.Stats.Cycles, tc.cycles)
		}
	}
}
