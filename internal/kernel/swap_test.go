package kernel

import (
	"testing"

	"cheriabi/internal/cap"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
)

// spawnStopped builds a minimal CheriABI process without running it.
func spawnStopped(t *testing.T) (*Machine, *Proc) {
	t.Helper()
	return spawnStoppedCode(t, image.ABICheri, isa.Inst{Op: isa.BREAK})
}

// spawnStoppedCode builds a process under abi whose code is the one
// instruction in, without running it.
func spawnStoppedCode(t *testing.T, abi image.ABI, in isa.Inst) (*Machine, *Proc) {
	t.Helper()
	m := NewMachine(Config{MemBytes: 64 << 20})
	return m, spawnCode(t, m, "victim", abi, in)
}

// spawnCode installs /bin/name, an image under abi whose code is the
// given instructions from _start, and spawns it on m without running it.
func spawnCode(t *testing.T, m *Machine, name string, abi image.ABI, code ...isa.Inst) *Proc {
	t.Helper()
	img := &image.Image{
		Name: name, ABI: abi,
		Entry: "_start",
		Symbols: map[string]*image.Symbol{
			"_start": {Name: "_start", Kind: image.SymFunc, Sec: image.SecText, Size: uint64(len(code)) * isa.InstSize, Global: true},
		},
	}
	for _, in := range code {
		img.Code = append(img.Code, isa.MustEncode(in))
	}
	b, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m.Kern.FS.WriteFile("/bin/"+name, b)
	p, err := m.Kern.Spawn("/bin/"+name, []string{name}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// storeCapInProc writes a legitimate bounded capability into the process's
// stack memory and returns its address.
func storeCapInProc(t *testing.T, m *Machine, p *Proc) uint64 {
	t.Helper()
	csp := m.Kern.regs(p.mainThread()).C[isa.CSP]
	va := csp.Addr() - 256
	va &^= cap.Bytes - 1
	inner, err := cap.SetBounds(p.Root, csp.Base(), 64)
	if err != nil {
		t.Fatal(err)
	}
	m.CPU.AS = p.AS
	if err := m.CPU.StoreCapVia(csp, va, inner.AndPerms(cap.PermData)); err != nil {
		t.Fatal(err)
	}
	return va
}

func loadCapFromProc(t *testing.T, m *Machine, p *Proc, va uint64) cap.Capability {
	t.Helper()
	m.CPU.AS = p.AS
	c, err := m.CPU.LoadCapVia(p.Root.AndPerms(cap.PermData|cap.PermLoadCap), va)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSwapTamperedCapabilityRefused: an attacker who controls swap storage
// rewrites a swapped capability to cover all of user space. Rederivation
// decodes the forged value, finds bounds the process root does not cover
// ... or rather finds a *bounds-widened* forgery and refuses the tag.
func TestSwapTamperedCapabilityRefused(t *testing.T) {
	m, p := spawnStopped(t)
	va := storeCapInProc(t, m, p)
	if got := loadCapFromProc(t, m, p, va); !got.Tag() {
		t.Fatal("setup: capability not stored")
	}

	if n := m.Kern.SwapOutProc(p); n == 0 {
		t.Fatal("nothing swapped")
	}
	// Tamper: rewrite every swapped granule that carries a tag so its
	// metadata claims kernel-sized bounds (outside the process root).
	tampered := 0
	m.VM.Swap.Inject(func(id uint64, data []byte, tags []bool) {
		for g := range tags {
			if !tags[g] {
				continue
			}
			forged := cap.Root(0, 1<<47, cap.PermAll)
			cap.Encode(forged, data[g*cap.Bytes:])
			tampered++
		}
	})
	if tampered == 0 {
		t.Fatal("no tagged granules found in swap")
	}

	got := loadCapFromProc(t, m, p, va) // forces swap-in
	if got.Tag() {
		t.Fatalf("forged capability survived swap-in rederivation: %v", got)
	}
	if p.AS.Stats.TagsLost == 0 {
		t.Fatal("rederivation refusal not recorded")
	}
}

// TestSwapTamperAblationWithoutRederivation shows why the rederivation
// step exists: with the hook disabled (tags restored verbatim, as a
// naive swap implementation would), the forged capability comes back
// alive — a privilege-escalation primitive.
func TestSwapTamperAblationWithoutRederivation(t *testing.T) {
	m, p := spawnStopped(t)
	va := storeCapInProc(t, m, p)
	m.Kern.SwapOutProc(p)
	m.VM.Swap.Inject(func(id uint64, data []byte, tags []bool) {
		for g := range tags {
			if tags[g] {
				forged := cap.Root(0, 1<<47, cap.PermAll)
				cap.Encode(forged, data[g*cap.Bytes:])
			}
		}
	})
	p.AS.Rederive = nil // the ablation: naive tag restoration
	got := loadCapFromProc(t, m, p, va)
	if !got.Tag() || got.Len() != 1<<47 {
		t.Fatalf("expected the naive path to resurrect the forgery, got %v", got)
	}
}

// TestSwapLegitimateCapabilitySurvives: the defence does not harm honest
// capabilities (end-to-end variant of the vm-level test, through the
// kernel's real hook).
func TestSwapLegitimateCapabilitySurvives(t *testing.T) {
	m, p := spawnStopped(t)
	va := storeCapInProc(t, m, p)
	before := loadCapFromProc(t, m, p, va)
	m.Kern.SwapOutProc(p)
	after := loadCapFromProc(t, m, p, va)
	if !after.Tag() {
		t.Fatal("legitimate capability lost its tag across swap")
	}
	if after.Base() != before.Base() || after.Len() != before.Len() {
		t.Fatalf("bounds changed across swap: %v vs %v", before, after)
	}
	if p.AS.Stats.TagsKept == 0 {
		t.Fatal("rederivation not recorded")
	}
	// The abstract chain is intact: the ledger recorded the rederivation
	// against the process root without violations.
	if len(m.Kern.Ledger.Violations()) != 0 {
		t.Fatalf("ledger violations: %v", m.Kern.Ledger.Violations())
	}
}
