// Package cap implements the CHERI architectural capability model used by
// the rest of the simulator: tagged, bounded, permission-carrying pointers
// with monotonic derivation, and a CHERI-Concentrate-style 128-bit
// compressed encoding with representability constraints.
//
// A Capability always carries full-precision bounds in this package; the
// compressed encoding constrains which bounds are *constructible* (SetBounds
// rounding, alignment) and which cursor movements keep the tag (the
// representable window). This mirrors how ISA-level CHERI emulators model
// compression, and it round-trips exactly through the 16-byte in-memory
// encoding because every constructible capability is representable by
// construction.
package cap

import (
	"errors"
	"fmt"
)

// Perm is a bitset of capability permissions. The architectural permissions
// follow the CHERI ISA; PermVMMap is the software-defined permission CheriABI
// requires on capabilities passed to mmap/munmap/shmdt (the paper's "vmmap
// user-defined capability permission").
type Perm uint16

const (
	PermGlobal Perm = 1 << iota
	PermExecute
	PermLoad
	PermStore
	PermLoadCap
	PermStoreCap
	PermStoreLocalCap
	PermSeal
	PermInvoke
	PermUnseal
	PermSystemRegs
	PermVMMap // software permission: may create/replace memory mappings

	permCount = iota
)

// PermAll is every permission, as held by the primordial reset capability.
const PermAll = Perm(1<<permCount) - 1

// PermData is the permission set for an ordinary read-write data region.
const PermData = PermGlobal | PermLoad | PermStore | PermLoadCap | PermStoreCap | PermStoreLocalCap

// PermCode is the permission set for an executable region.
const PermCode = PermGlobal | PermExecute | PermLoad | PermLoadCap

// PermRO is the permission set for a read-only data region.
const PermRO = PermGlobal | PermLoad | PermLoadCap

func (p Perm) String() string {
	names := []struct {
		bit  Perm
		name string
	}{
		{PermGlobal, "G"}, {PermExecute, "X"}, {PermLoad, "R"}, {PermStore, "W"},
		{PermLoadCap, "r"}, {PermStoreCap, "w"}, {PermStoreLocalCap, "l"},
		{PermSeal, "S"}, {PermInvoke, "I"}, {PermUnseal, "U"},
		{PermSystemRegs, "$"}, {PermVMMap, "V"},
	}
	out := make([]byte, 0, len(names))
	for _, n := range names {
		if p&n.bit != 0 {
			out = append(out, n.name[0])
		}
	}
	if len(out) == 0 {
		return "-"
	}
	return string(out)
}

// OTypeUnsealed marks a capability that is not sealed.
const OTypeUnsealed uint32 = 0xFFFFFFFF

// Capability is a CHERI capability: a tagged, bounded pointer. The zero
// value is the NULL capability (untagged, zero bounds, zero address),
// exactly as in the architecture.
type Capability struct {
	tag   bool
	base  uint64
	len   uint64 // top = base + len; base+len never overflows uint64
	addr  uint64 // the cursor (the C-language pointer value)
	perms Perm
	otype uint32
}

// Null returns the NULL capability.
func Null() Capability { return Capability{otype: OTypeUnsealed} }

// NullWithAddr returns an untagged capability holding just an integer
// address, as produced by CFromInt or by clearing a tag.
func NullWithAddr(addr uint64) Capability {
	return Capability{addr: addr, otype: OTypeUnsealed}
}

// Root returns a primordial capability covering [base, base+length) with the
// given permissions, as provided by hardware at reset or carved by the
// kernel at boot. It panics if base+length overflows, since primordial
// capabilities are constructed from trusted constants only.
func Root(base, length uint64, perms Perm) Capability {
	if base+length < base {
		panic("cap: root capability bounds overflow")
	}
	return Capability{tag: true, base: base, len: length, addr: base, perms: perms, otype: OTypeUnsealed}
}

// Accessors. Tag, Base, Len, Top, Addr and HasPerm, which the
// simulator's fast paths call on capability registers through pointers,
// take a pointer receiver: a value-receiver method called through a
// pointer copies the whole capability first, even when inlined.

// Tag reports whether the capability is valid (its provenance chain is intact).
func (c *Capability) Tag() bool { return c.tag }

// Base returns the lower bound.
func (c *Capability) Base() uint64 { return c.base }

// Len returns the length (top - base).
func (c *Capability) Len() uint64 { return c.len }

// Top returns the upper bound (exclusive).
func (c *Capability) Top() uint64 { return c.base + c.len }

// Addr returns the cursor: the integer value a C program observes when it
// casts the pointer to uintptr_t (the paper's CGetAddr semantics).
func (c *Capability) Addr() uint64 { return c.addr }

// Offset returns addr-base (the legacy CHERI offset interpretation).
func (c Capability) Offset() uint64 { return c.addr - c.base }

// Perms returns the permission bits.
func (c Capability) Perms() Perm { return c.perms }

// OType returns the object type; OTypeUnsealed if the capability is unsealed.
func (c Capability) OType() uint32 { return c.otype }

// Sealed reports whether the capability is sealed.
func (c Capability) Sealed() bool { return c.otype != OTypeUnsealed }

// HasPerm reports whether every permission in p is present.
func (c *Capability) HasPerm(p Perm) bool { return c.perms&p == p }

func (c Capability) String() string {
	t := "cap"
	if !c.tag {
		t = "CAP(untagged)"
	}
	seal := ""
	if c.Sealed() {
		seal = fmt.Sprintf(" sealed:%d", c.otype)
	}
	return fmt.Sprintf("%s[%s 0x%x-0x%x addr=0x%x%s]", t, c.perms, c.base, c.base+c.len, c.addr, seal)
}

// Equal reports exact equality of all fields including the tag.
func (c Capability) Equal(o Capability) bool { return c == o }

// FaultCause identifies the reason a capability-checked operation failed,
// mirroring the CHERI exception cause codes.
type FaultCause int

// Capability fault causes.
const (
	FaultNone FaultCause = iota
	FaultTag             // untagged capability dereferenced
	FaultSeal            // sealed capability used for memory access or modified
	FaultBounds
	FaultPermLoad
	FaultPermStore
	FaultPermExecute
	FaultPermLoadCap
	FaultPermStoreCap
	FaultPermSeal
	FaultPermUnseal
	FaultPermSystemRegs
	FaultLength         // SetBounds asked for more than the parent grants
	FaultRepresentable  // requested bounds not representable exactly
	FaultAlignment      // misaligned capability-width access
	FaultMonotonicity   // attempt to increase rights
	FaultUnderivedLocal // store-local of a non-global capability without permission
)

var faultNames = map[FaultCause]string{
	FaultNone: "none", FaultTag: "tag", FaultSeal: "seal", FaultBounds: "bounds",
	FaultPermLoad: "perm-load", FaultPermStore: "perm-store", FaultPermExecute: "perm-execute",
	FaultPermLoadCap: "perm-loadcap", FaultPermStoreCap: "perm-storecap",
	FaultPermSeal: "perm-seal", FaultPermUnseal: "perm-unseal", FaultPermSystemRegs: "perm-sysregs",
	FaultLength: "length", FaultRepresentable: "representable", FaultAlignment: "alignment",
	FaultMonotonicity: "monotonicity", FaultUnderivedLocal: "store-local",
}

func (f FaultCause) String() string {
	if s, ok := faultNames[f]; ok {
		return s
	}
	return fmt.Sprintf("FaultCause(%d)", int(f))
}

// Fault is the error produced by failed capability operations.
type Fault struct {
	Cause FaultCause
	Cap   Capability
	Addr  uint64 // faulting address if relevant
	Size  uint64 // access size if relevant
}

func (f *Fault) Error() string {
	return fmt.Sprintf("capability fault: %s (addr=0x%x size=%d cap=%s)", f.Cause, f.Addr, f.Size, f.Cap)
}

// ErrFault can be used with errors.As to detect capability faults.
var ErrFault = errors.New("capability fault")

// Is lets errors.Is(err, cap.ErrFault) match any *Fault.
func (f *Fault) Is(target error) bool { return target == ErrFault }

func fault(cause FaultCause, c Capability, addr, size uint64) error {
	return &Fault{Cause: cause, Cap: c, Addr: addr, Size: size}
}

// Authorizes reports whether c fully authorizes a memory access of size
// bytes at addr with the permissions in need — the same decision
// CheckDeref makes, as a single branch chain small enough to inline into
// the simulator's access fast paths, which call it on a register through
// the pointer rather than on a copy. It does not attribute a fault cause;
// callers needing the precise fault call CheckDeref after a false return.
func (c *Capability) Authorizes(addr, size uint64, need Perm) bool {
	if !c.tag || c.otype != OTypeUnsealed || c.perms&need != need || addr < c.base {
		return false
	}
	off := addr - c.base
	return off <= c.len && size <= c.len-off
}

// CheckDeref validates a memory access of size bytes at address addr
// authorized by c, requiring the permissions in need. This is the check the
// hardware performs on every capability-relative load, store, and fetch.
func (c Capability) CheckDeref(addr, size uint64, need Perm) error {
	if c.Authorizes(addr, size, need) {
		return nil
	}
	return c.checkDerefFault(addr, size, need)
}

// checkDerefFault reproduces the hardware's check order — tag, seal,
// permissions, bounds — to identify which condition failed. CheckDeref
// only calls it when at least one has.
func (c Capability) checkDerefFault(addr, size uint64, need Perm) error {
	if !c.tag {
		return fault(FaultTag, c, addr, size)
	}
	if c.Sealed() {
		return fault(FaultSeal, c, addr, size)
	}
	if !c.HasPerm(need) {
		switch {
		case need&PermLoad != 0 && !c.HasPerm(PermLoad):
			return fault(FaultPermLoad, c, addr, size)
		case need&PermStore != 0 && !c.HasPerm(PermStore):
			return fault(FaultPermStore, c, addr, size)
		case need&PermExecute != 0 && !c.HasPerm(PermExecute):
			return fault(FaultPermExecute, c, addr, size)
		case need&PermLoadCap != 0 && !c.HasPerm(PermLoadCap):
			return fault(FaultPermLoadCap, c, addr, size)
		case need&PermStoreCap != 0 && !c.HasPerm(PermStoreCap):
			return fault(FaultPermStoreCap, c, addr, size)
		default:
			return fault(FaultPermLoad, c, addr, size)
		}
	}
	if addr < c.base {
		return fault(FaultBounds, c, addr, size)
	}
	off := addr - c.base
	if off > c.len || size > c.len-off {
		return fault(FaultBounds, c, addr, size)
	}
	return nil
}

// InBounds reports whether [addr, addr+size) lies within the bounds.
func (c Capability) InBounds(addr, size uint64) bool {
	if addr < c.base {
		return false
	}
	off := addr - c.base
	return off <= c.len && size <= c.len-off
}

// AndPerms returns c with permissions restricted to perms∩c.perms
// (monotonic: permissions can only shrink). Operating on a sealed
// capability clears the tag, as in the ISA.
func (c Capability) AndPerms(perms Perm) Capability {
	if c.Sealed() {
		c.tag = false
	}
	c.perms &= perms
	return c
}

// ClearTag returns c with the tag cleared.
func (c Capability) ClearTag() Capability {
	c.tag = false
	return c
}

// ClearPerms returns c with the given permissions removed.
func (c Capability) ClearPerms(perms Perm) Capability {
	return c.AndPerms(^perms)
}

// Seal returns c sealed with the object type drawn from authority's cursor.
func (c Capability) Seal(authority Capability) (Capability, error) {
	if !c.tag {
		return c, fault(FaultTag, c, 0, 0)
	}
	if c.Sealed() {
		return c, fault(FaultSeal, c, 0, 0)
	}
	if err := authority.CheckDeref(authority.addr, 1, PermSeal); err != nil {
		return c, fault(FaultPermSeal, authority, authority.addr, 0)
	}
	c.otype = uint32(authority.addr)
	return c, nil
}

// Unseal returns c unsealed using authority, whose cursor must match the
// object type and carry PermUnseal.
func (c Capability) Unseal(authority Capability) (Capability, error) {
	if !c.tag {
		return c, fault(FaultTag, c, 0, 0)
	}
	if !c.Sealed() {
		return c, fault(FaultSeal, c, 0, 0)
	}
	if err := authority.CheckDeref(authority.addr, 1, PermUnseal); err != nil {
		return c, fault(FaultPermUnseal, authority, authority.addr, 0)
	}
	if uint32(authority.addr) != c.otype {
		return c, fault(FaultPermUnseal, authority, authority.addr, 0)
	}
	c.otype = OTypeUnsealed
	return c, nil
}
