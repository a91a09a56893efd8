package cc

import (
	"strings"

	"cheriabi/internal/nat"
)

type builtinKind int

const (
	bSyscall builtinKind = iota
	bNative
	bCheri // inline capability-introspection instruction
	bErrno
	bVariadic // printf family: varargs spilled to the stack
)

type builtin struct {
	kind    builtinKind
	num     int    // syscall or native number
	spec    string // 'i'/'p' per fixed argument
	retPtr  bool   // returns a pointer
	retVoid bool
	cheriOp string // for bCheri
}

// builtins are the MiniC builtins: every syscall and native package nat
// exposes, plus the hand-written CHERI intrinsics and errno.
var builtins = func() map[string]builtin {
	m := map[string]builtin{
		// CHERI introspection (compile to single instructions; degrade
		// gracefully under the legacy ABI).
		"cheri_tag_get":        {kind: bCheri, spec: "p", cheriOp: "tag"},
		"cheri_length_get":     {kind: bCheri, spec: "p", cheriOp: "len"},
		"cheri_base_get":       {kind: bCheri, spec: "p", cheriOp: "base"},
		"cheri_address_get":    {kind: bCheri, spec: "p", cheriOp: "addr"},
		"cheri_perms_get":      {kind: bCheri, spec: "p", cheriOp: "perms"},
		"cheri_bounds_set":     {kind: bCheri, spec: "pi", cheriOp: "setbounds", retPtr: true},
		"cheri_perms_and":      {kind: bCheri, spec: "pi", cheriOp: "andperm", retPtr: true},
		"cheri_tag_clear":      {kind: bCheri, spec: "p", cheriOp: "cleartag", retPtr: true},
		"representable_length": {kind: bCheri, spec: "i", cheriOp: "crrl"},
		"representable_mask":   {kind: bCheri, spec: "i", cheriOp: "cram"},

		"errno": {kind: bErrno},
	}
	for num, c := range nat.Syscalls {
		if c.Name != "" {
			m[c.Name] = callBuiltin(bSyscall, num, c)
		}
	}
	for num, c := range nat.Natives {
		if c.Name != "" {
			m[c.Name] = callBuiltin(bNative, num, c)
		}
	}
	return m
}()

// callBuiltin derives the builtin for nat entry c. To MiniC every argument
// letter other than 'i' is a pointer. A variadic entry's trailing
// argument points at the spilled variadic arguments, which the compiler
// supplies (genVariadicCall), so it is not a fixed argument.
func callBuiltin(kind builtinKind, num int, c nat.Call) builtin {
	spec := c.Spec
	if c.Variadic {
		kind = bVariadic
		spec = spec[:len(spec)-1]
	}
	spec = strings.Map(func(r rune) rune {
		if r == 'i' {
			return 'i'
		}
		return 'p'
	}, spec)
	return builtin{kind: kind, num: num, spec: spec, retPtr: c.Ret == nat.Ptr, retVoid: c.Ret == nat.Void}
}
