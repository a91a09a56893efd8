package cc

import (
	"testing"

	"cheriabi/internal/nat"
)

// TestBuiltinsFromNatTable: every syscall and native package nat exposes
// to MiniC is a builtin of its kind and number, whose spec turns each
// non-'i' letter into 'p' and, for a variadic entry, leaves out the
// trailing vararg pointer the compiler supplies; hidden entries are not
// builtins.
func TestBuiltinsFromNatTable(t *testing.T) {
	check := func(kind builtinKind, num int, c nat.Call) {
		want := builtin{kind: kind, num: num, retPtr: c.Ret == nat.Ptr, retVoid: c.Ret == nat.Void}
		spec := c.Spec
		if c.Variadic {
			want.kind = bVariadic
			spec = spec[:len(spec)-1]
		}
		for i := range len(spec) {
			if spec[i] == 'i' {
				want.spec += "i"
			} else {
				want.spec += "p"
			}
		}
		if got, ok := builtins[c.Name]; !ok || got != want {
			t.Errorf("builtin %q = %+v, want %+v", c.Name, got, want)
		}
	}
	for num, c := range nat.Syscalls {
		if c.Name != "" {
			check(bSyscall, num, c)
		}
	}
	for num, c := range nat.Natives {
		if c.Name != "" {
			check(bNative, num, c)
		}
	}

	// Spot checks of each derivation rule against hand-written specs.
	for name, want := range map[string]builtin{
		"open":     {kind: bSyscall, num: nat.SysOpen, spec: "pii"},                // 's' -> 'p'
		"mmap":     {kind: bSyscall, num: nat.SysMmap, spec: "piii", retPtr: true}, // 'r' -> 'p'
		"readdir":  {kind: bSyscall, num: nat.SysGetdents, spec: "ipi"},            // MiniC alias
		"exit":     {kind: bSyscall, num: nat.SysExit, spec: "i", retVoid: true},
		"memcpy":   {kind: bNative, num: nat.Memcpy, spec: "ppi", retPtr: true},
		"qsort":    {kind: bNative, num: nat.Qsort, spec: "piip", retVoid: true},
		"snprintf": {kind: bVariadic, num: nat.Snprintf, spec: "pip"}, // vararg pointer dropped
	} {
		if got := builtins[name]; got != want {
			t.Errorf("builtin %q = %+v, want %+v", name, got, want)
		}
	}
	for _, name := range []string{"sigreturn", "getdents", "asan_report"} {
		if _, ok := builtins[name]; ok {
			t.Errorf("%q must not be a MiniC builtin", name)
		}
	}
}
