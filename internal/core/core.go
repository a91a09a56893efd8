// Package core implements the paper's central abstraction: the *abstract
// capability*. An abstract capability describes the access a piece of code
// should legitimately have at a point in execution, independent of the
// architectural encoding. It is constructed only by legitimate provenance
// chains rooted at primordial, omnipotent capabilities, and it belongs to
// an abstract principal — the kernel, or one per process address space,
// freshly created at execve.
//
// The architectural capability chain sometimes breaks (swap-out strips
// tags; a debugger writes register state); the abstract chain must not.
// The Ledger records every derivation event and checks the model's
// invariants:
//
//   - monotonicity: a derived capability's bounds and permissions are a
//     subset of its parent's;
//   - principal isolation: capabilities never move between principals
//     except through the blessed kernel transitions (process creation,
//     mmap return, syscall return, signal delivery, swap rederivation,
//     debugger injection);
//   - rederivation soundness: a capability restored after an architectural
//     break is a subset of the principal's root.
package core

import (
	"fmt"
	"sort"

	"cheriabi/internal/cap"
)

// PrincipalKind distinguishes the kernel from process principals.
type PrincipalKind int

// Principal kinds.
const (
	KernelPrincipal PrincipalKind = iota
	ProcessPrincipal
)

// Principal is an abstract identity: the kernel, or one per address space,
// unique over the entire execution.
type Principal struct {
	ID   uint64
	Kind PrincipalKind
	Name string
}

// Origin labels how an abstract capability came to exist. These are the
// construction paths enumerated in §3 of the paper.
type Origin int

// Abstract capability origins.
const (
	OriginReset        Origin = iota // hardware reset: primordial
	OriginKernelCarve                // kernel boot narrowing of reset capabilities
	OriginExec                       // execve: process startup mappings, argv/envv/auxv
	OriginMmap                       // mmap/shmat return
	OriginStack                      // compiler-derived reference to an automatic variable
	OriginMalloc                     // allocator-derived heap allocation
	OriginTLS                        // thread-local storage allocator
	OriginGOT                        // run-time linker GOT entry
	OriginCapReloc                   // run-time linker global pointer initialiser
	OriginSyscall                    // other syscall-returned capability
	OriginSignal                     // signal-frame capability
	OriginSwapRederive               // swap-in rederivation
	OriginPtrace                     // debugger injection
	OriginDerive                     // ordinary user-code derivation
)

var originNames = map[Origin]string{
	OriginReset: "reset", OriginKernelCarve: "kern", OriginExec: "exec",
	OriginMmap: "mmap", OriginStack: "stack", OriginMalloc: "malloc",
	OriginTLS: "tls", OriginGOT: "glob relocs", OriginCapReloc: "cap relocs",
	OriginSyscall: "syscall", OriginSignal: "signal", OriginSwapRederive: "swap",
	OriginPtrace: "ptrace", OriginDerive: "derive",
}

func (o Origin) String() string {
	if s, ok := originNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Origin(%d)", int(o))
}

// crossPrincipal reports whether this origin is a blessed kernel-to-process
// transition: the only paths on which an abstract capability may cross a
// principal boundary.
func (o Origin) crossPrincipal() bool {
	switch o {
	case OriginExec, OriginMmap, OriginSyscall, OriginSignal, OriginSwapRederive, OriginPtrace:
		return true
	}
	return false
}

// AbstractCap is one node in the provenance forest.
type AbstractCap struct {
	ID        uint64
	Principal uint64
	Parent    uint64 // 0 for primordial capabilities
	Origin    Origin
	Base      uint64
	Len       uint64
	Perms     cap.Perm
}

// Top returns the exclusive upper bound.
func (a *AbstractCap) Top() uint64 { return a.Base + a.Len }

// Covers reports whether a's rights subsume bounds [base, base+length) and
// permissions perms.
func (a *AbstractCap) Covers(base, length uint64, perms cap.Perm) bool {
	return base >= a.Base && base+length <= a.Top() && perms&^a.Perms == 0
}

// Violation records a breach of the abstract model.
type Violation struct {
	CapID  uint64
	Origin Origin
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("abstract capability %d (%s): %s", v.CapID, v.Origin, v.Reason)
}

// Ledger is the abstract-capability event log and invariant checker.
type Ledger struct {
	principals map[uint64]*Principal
	caps       map[uint64]*AbstractCap
	violations []Violation
	nextPrin   uint64
	nextCap    uint64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		principals: map[uint64]*Principal{},
		caps:       map[uint64]*AbstractCap{},
	}
}

// NewPrincipal mints a fresh principal ("freshly created for the kernel
// and each process address space, unique over the entire execution").
func (l *Ledger) NewPrincipal(kind PrincipalKind, name string) *Principal {
	l.nextPrin++
	p := &Principal{ID: l.nextPrin, Kind: kind, Name: name}
	l.principals[p.ID] = p
	return p
}

// Primordial records a root capability (reset or kernel carve) owned by p.
func (l *Ledger) Primordial(p *Principal, c cap.Capability, origin Origin) *AbstractCap {
	l.nextCap++
	a := &AbstractCap{
		ID: l.nextCap, Principal: p.ID, Origin: origin,
		Base: c.Base(), Len: c.Len(), Perms: c.Perms(),
	}
	l.caps[a.ID] = a
	return a
}

// Derive records the derivation of c from parent, owned by p, and checks
// the model's invariants. Invariant breaches are recorded and returned;
// the ledger keeps the node either way so later analysis sees the full
// provenance graph.
func (l *Ledger) Derive(p *Principal, parent *AbstractCap, c cap.Capability, origin Origin) (*AbstractCap, error) {
	l.nextCap++
	a := &AbstractCap{
		ID: l.nextCap, Principal: p.ID, Parent: parent.ID, Origin: origin,
		Base: c.Base(), Len: c.Len(), Perms: c.Perms(),
	}
	l.caps[a.ID] = a
	var err error
	if !parent.Covers(a.Base, a.Len, a.Perms) {
		err = l.violate(a, "monotonicity: child rights exceed parent")
	}
	if parent.Principal != p.ID && !origin.crossPrincipal() {
		err = l.violate(a, fmt.Sprintf("principal isolation: %s derivation crossed principals", origin))
	}
	if origin.crossPrincipal() {
		if src := l.principals[parent.Principal]; src != nil && src.Kind != KernelPrincipal && parent.Principal != p.ID {
			err = l.violate(a, "cross-principal derivation not mediated by the kernel")
		}
	}
	return a, err
}

func (l *Ledger) violate(a *AbstractCap, reason string) error {
	v := Violation{CapID: a.ID, Origin: a.Origin, Reason: reason}
	l.violations = append(l.violations, v)
	return fmt.Errorf("core: %s", v)
}

// Violations returns all recorded invariant breaches.
func (l *Ledger) Violations() []Violation { return l.violations }

// Len returns the number of recorded abstract capabilities.
func (l *Ledger) Len() int { return len(l.caps) }

// Get returns a capability node by ID.
func (l *Ledger) Get(id uint64) *AbstractCap { return l.caps[id] }

// Chain returns the provenance chain of id, root first.
func (l *Ledger) Chain(id uint64) []*AbstractCap {
	var out []*AbstractCap
	for a := l.caps[id]; a != nil; a = l.caps[a.Parent] {
		out = append(out, a)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Root returns the primordial ancestor of id.
func (l *Ledger) Root(id uint64) *AbstractCap {
	chain := l.Chain(id)
	if len(chain) == 0 {
		return nil
	}
	return chain[0]
}

// ByOrigin returns all capabilities with the given origin, in creation order.
func (l *Ledger) ByOrigin(o Origin) []*AbstractCap {
	var out []*AbstractCap
	for _, a := range l.caps {
		if a.Origin == o {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ForPrincipal returns all capabilities owned by principal id.
func (l *Ledger) ForPrincipal(id uint64) []*AbstractCap {
	var out []*AbstractCap
	for _, a := range l.caps {
		if a.Principal == id {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CheckDisjointRoots verifies that the *process* principals' primordial
// capabilities do not overlap one another ("each principal's abstract
// capability has a disjoint root"). The kernel's own roots necessarily
// cover everything and are exempt.
func (l *Ledger) CheckDisjointRoots() []Violation {
	type root struct {
		a *AbstractCap
		p *Principal
	}
	var roots []root
	for _, a := range l.caps {
		if a.Parent != 0 {
			continue
		}
		p := l.principals[a.Principal]
		if p != nil && p.Kind == ProcessPrincipal {
			roots = append(roots, root{a, p})
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].a.ID < roots[j].a.ID })
	var out []Violation
	for i := 0; i < len(roots); i++ {
		for j := i + 1; j < len(roots); j++ {
			a, b := roots[i].a, roots[j].a
			if a.Base < b.Top() && b.Base < a.Top() && a.Len > 0 && b.Len > 0 {
				out = append(out, Violation{
					CapID:  b.ID,
					Origin: b.Origin,
					Reason: fmt.Sprintf("root overlaps root %d of principal %d", a.ID, a.Principal),
				})
			}
		}
	}
	l.violations = append(l.violations, out...)
	return out
}
