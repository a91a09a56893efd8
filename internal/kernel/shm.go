package kernel

import (
	"cheriabi/internal/cap"
	"cheriabi/internal/core"
	"cheriabi/internal/image"
	"cheriabi/internal/vm"
)

// shmSeg is one System-V shared-memory segment: frames shared across
// address spaces.
type shmSeg struct {
	id     int
	size   uint64
	frames []uint64
}

// sysShmget: shmget(key, size) — key 0 always creates.
func sysShmget(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	size := a.Int(1)
	if size == 0 || size > 64<<20 {
		return Err(EINVAL)
	}
	rlen := cap.RepresentableLength((size + vm.PageSize - 1) &^ (vm.PageSize - 1))
	k.nextShmID++
	seg := &shmSeg{
		id:     k.nextShmID,
		size:   rlen,
		frames: k.M.VM.AllocFrames(int(rlen / vm.PageSize)),
	}
	k.shmSegs[seg.id] = seg
	return Ret(uint64(seg.id))
}

// sysShmat: shmat(id, addr) maps the segment, honouring the paper's rule:
// a fixed address is accepted only as a valid capability carrying the
// vmmap permission.
func sysShmat(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	id := int(a.Int(0))
	hint := a.Ptr(0)
	seg := k.shmSegs[id]
	if seg == nil {
		return Err(EINVAL)
	}
	var va uint64
	if hint.Addr() != 0 {
		if p.ABI == image.ABICheri {
			k.charge(CostCheriCapCheck)
			if !hint.Tag() || !hint.HasPerm(cap.PermVMMap) {
				return Err(EACCES)
			}
		}
		va = hint.Addr() &^ (vm.PageSize - 1)
	} else {
		// shmget caps a segment at 64 MiB, so the bounded scan is short.
		var ok bool
		if va, ok = p.AS.FindFree(p.MmapHint, seg.size, UserTop); !ok {
			return Err(EINVAL)
		}
		p.MmapHint = va + seg.size
	}
	if !validUserRange(va, seg.size) {
		return Err(EINVAL)
	}
	if err := p.AS.MapFrames(va, seg.frames, vm.ProtRead|vm.ProtWrite); err != nil {
		return Err(ENOMEM)
	}
	if p.ABI != image.ABICheri {
		return Ret(va)
	}
	ret, err := cap.SetBounds(p.Root, va, seg.size)
	if err != nil {
		return Err(ENOMEM)
	}
	ret = ret.AndPerms(cap.PermData | cap.PermVMMap)
	k.capCreated("syscall", ret)
	k.Ledger.Derive(p.Prin, p.AbsRoot, ret, core.OriginSyscall)
	return ret, OK
}

// sysShmdt: shmdt(addr) requires the vmmap permission on the presented
// capability, like munmap.
func sysShmdt(k *Kernel, t *Thread, a *SysArgs) (cap.Capability, Errno) {
	p := t.Proc
	c := a.Ptr(0)
	va := c.Addr() &^ (vm.PageSize - 1)
	// Find the attached segment by matching frames at va.
	var seg *shmSeg
	for _, s := range k.shmSegs {
		if pa, pf := p.AS.Translate(va, vm.ProtRead); pf == nil && len(s.frames) > 0 && pa&^(vm.PageSize-1) == s.frames[0] {
			seg = s
			break
		}
	}
	if seg == nil {
		return Err(EINVAL)
	}
	if e := k.checkVMAuth(p, c, va, seg.size); e != OK {
		return Err(e)
	}
	if err := p.AS.Unmap(va, seg.size); err != nil {
		return Err(EINVAL)
	}
	return Ret(0)
}
