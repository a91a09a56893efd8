package kernel

import (
	"fmt"

	"cheriabi/internal/cap"
	"cheriabi/internal/core"
	"cheriabi/internal/image"
	"cheriabi/internal/isa"
	"cheriabi/internal/nat"
	"cheriabi/internal/rtld"
	"cheriabi/internal/uaccess"
	"cheriabi/internal/vm"
)

// Spawn creates a fresh process running the executable at path.
func (k *Kernel) Spawn(path string, argv, envv []string) (*Proc, error) {
	p := k.newProc(nil)
	t := k.newThread(p)
	if err := k.exec(p, t, path, argv, envv); err != nil {
		k.exitProc(p, int(SIGABRT))
		return nil, err
	}
	// Standard descriptors: console in/out/err, one shared open-file
	// description (the same console File object behind all three).
	tty := &FDesc{file: &ttyFile{k: k, console: p}, flags: ORdWr, refs: 3}
	p.FDs = []*FDesc{tty, tty, tty}
	return p, nil
}

// sigTrampoline is the read-only signal-return code page mapped by execve
// ("the return trampoline capability is a tightly bound capability to a
// read-only shared page mapped by execve"). The BREAK at callbackRetOff is
// the return point for run-time callbacks into guest code (qsort
// comparators), giving the fast-model runtime a precise stop address.
var sigTrampoline = []isa.Inst{
	{Op: isa.ADDI, Ra: isa.RV0, Rb: 0, Imm: nat.SysSigreturn},
	{Op: isa.SYSCALL},
	{Op: isa.BREAK}, // native-callback return point
}

// callbackRetOff is the offset of the callback BREAK within the trampoline.
const callbackRetOff = 2 * isa.InstSize

// exec replaces p's address space with a fresh image: Figure 1 process
// creation. A fresh abstract principal is minted; every initial capability
// is derived from the new process root and recorded.
func (k *Kernel) exec(p *Proc, t *Thread, path string, argv, envv []string) error {
	data, err := k.FS.ReadFile(path)
	if err != nil {
		return fmt.Errorf("exec %s: %w", path, err)
	}
	img, err := image.Unmarshal(data)
	if err != nil {
		return fmt.Errorf("exec %s: %w", path, err)
	}
	k.charge(CostExecBase)

	oldAS := p.AS
	as := k.M.VM.NewAddressSpace()
	p.AS = as
	p.ABI = img.ABI
	p.Name = path

	// Fresh principal and process root, carved from the kernel root.
	p.Prin = k.Ledger.NewPrincipal(core.ProcessPrincipal, fmt.Sprintf("%s#%d", path, p.PID))
	root, err := cap.SetBounds(k.kernRoot, UserBase, UserTop-UserBase)
	if err != nil {
		return err
	}
	p.Root = root
	p.AbsRoot, _ = k.Ledger.Derive(p.Prin, k.resetAbs, root, core.OriginExec)
	k.installRederive(p)

	// Layout perturbation stands in for ASLR/environment variance.
	perturb := uint64(k.seed%16) * vm.PageSize

	// Load the executable and its libraries.
	ld := &rtld.Linker{
		AS:       as,
		Mem:      k.M.Mem,
		ABI:      img.ABI,
		UserRoot: root,
		NextBase: ExecBase + perturb,
		Resolve: func(name string) (*image.Image, error) {
			b, err := k.FS.ReadFile("/lib/" + name)
			if err != nil {
				return nil, err
			}
			return image.Unmarshal(b)
		},
		SyncICache: k.M.CPU.SyncICache,
	}
	if k.OnCapCreate != nil {
		ld.Trace = func(kind string, c cap.Capability) { k.capCreated(kind, c) }
	}
	ln, err := ld.Load(img)
	if err != nil {
		return err
	}
	p.Linked = ln

	// Record the per-object capabilities in the ledger.
	for _, li := range ln.Order {
		for _, c := range []cap.Capability{li.TextCap, li.ROCap, li.GOTCap, li.DataCap} {
			if c.Tag() {
				k.Ledger.Derive(p.Prin, p.AbsRoot, c, core.OriginExec)
			}
		}
	}

	// Trampoline page.
	if err := as.Map(TrampVA, vm.PageSize, vm.ProtRead|vm.ProtExec, false); err != nil {
		return err
	}
	tramp := make([]byte, len(sigTrampoline)*4)
	for i, in := range sigTrampoline {
		w := isa.MustEncode(in)
		tramp[i*4] = byte(w)
		tramp[i*4+1] = byte(w >> 8)
		tramp[i*4+2] = byte(w >> 16)
		tramp[i*4+3] = byte(w >> 24)
	}
	if err := uaccess.WriteAS(k.M.Mem, as, TrampVA, tramp); err != nil {
		return err
	}
	// Executable bytes are final: sync the decoded-instruction cache, as an
	// OS would sync the I-cache after building a process image.
	k.M.CPU.SyncICache()

	// Stack (with a guard page below) and a TLS page.
	stackTop := uint64(StackTop) - perturb
	stackBase := stackTop - StackSize
	if err := as.Map(stackBase, StackSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		return err
	}
	tlsVA := stackBase - 2*vm.PageSize
	if err := as.Map(tlsVA, vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		return err
	}

	// AddressSanitizer builds get their shadow region (demand-zero).
	if img.ASan {
		if err := as.Map(AsanShadowBase, UserTop>>3, vm.ProtRead|vm.ProtWrite, false); err != nil {
			return err
		}
	}

	// Build argv/envv on the stack (Figure 1): string bytes first, then
	// pointer arrays. CheriABI pointers are bounded capabilities.
	cheri := img.ABI == image.ABICheri
	ptrSize := img.ABI.PtrSize()
	sp := stackTop

	writeStrings := func(strs []string) ([]uint64, error) {
		addrs := make([]uint64, len(strs))
		for i, s := range strs {
			b := append([]byte(s), 0)
			sp -= uint64(len(b))
			if err := uaccess.WriteAS(k.M.Mem, as, sp, b); err != nil {
				return nil, err
			}
			addrs[i] = sp
		}
		return addrs, nil
	}
	argAddrs, err := writeStrings(argv)
	if err != nil {
		return err
	}
	envAddrs, err := writeStrings(envv)
	if err != nil {
		return err
	}
	sp &^= cap.Bytes - 1 // capability-align the arrays

	stackCap, err := cap.SetBounds(root, stackBase, StackSize)
	if err != nil {
		return err
	}
	stackCap = stackCap.AndPerms(cap.PermData)
	k.capCreated("exec", stackCap)
	k.Ledger.Derive(p.Prin, p.AbsRoot, stackCap, core.OriginExec)

	// writePtrArray writes a NULL-terminated pointer array and returns its
	// address.
	writePtrArray := func(addrs []uint64, strs []string) (uint64, error) {
		n := uint64(len(addrs)+1) * ptrSize
		sp -= n
		sp &^= ptrSize - 1
		for i, a := range addrs {
			va := sp + uint64(i)*ptrSize
			if cheri {
				sc, err := cap.SetBounds(stackCap, a, uint64(len(strs[i]))+1)
				if err != nil {
					return 0, err
				}
				k.capCreated("exec", sc)
				if err := uaccess.WriteCapAS(k.M.Mem, as, va, sc); err != nil {
					return 0, err
				}
			} else if err := uaccess.WriteWordAS(k.M.Mem, as, va, a); err != nil {
				return 0, err
			}
		}
		// NULL terminator: pages are demand-zero, nothing to write.
		return sp, nil
	}
	argvVA, err := writePtrArray(argAddrs, argv)
	if err != nil {
		return err
	}
	envvVA, err := writePtrArray(envAddrs, envv)
	if err != nil {
		return err
	}
	sp &^= 15 // final stack alignment

	// Entry point and initial registers.
	pc, pcc, cgp, gotAddr, err := ld.EntryPoint(ln)
	if err != nil {
		return err
	}
	var f Frame
	for i := range f.C {
		f.C[i] = cap.Null()
	}
	f.PC = pc
	f.X[isa.RA0] = uint64(len(argv)) // argc: first integer argument
	if cheri {
		f.PCC = pcc
		f.DDC = cap.Null() // the CheriABI property: no implicit authority
		f.C[isa.CSP] = cap.SetAddr(stackCap, sp)
		f.C[isa.CGP] = cgp
		argvCap, err := cap.SetBounds(stackCap, argvVA, uint64(len(argv)+1)*ptrSize)
		if err != nil {
			return err
		}
		envvCap, err := cap.SetBounds(stackCap, envvVA, uint64(len(envv)+1)*ptrSize)
		if err != nil {
			return err
		}
		f.C[isa.CA0] = argvCap // first pointer argument
		f.C[isa.CA1] = envvCap
		tlsCap, err := cap.SetBounds(root, tlsVA, vm.PageSize)
		if err != nil {
			return err
		}
		f.C[isa.CTLS] = tlsCap.AndPerms(cap.PermData)
		// Kernel-installed capabilities visible to userspace: the TLS
		// block and the tightly-bounded sigreturn trampoline.
		k.capCreated("kern", f.C[isa.CTLS])
		k.capCreated("kern", p.sigTrampCap(k))
		k.capCreated("exec", argvCap)
		k.capCreated("exec", envvCap)
		k.Ledger.Derive(p.Prin, p.AbsRoot, argvCap, core.OriginExec)
	} else {
		// Legacy: PCC/DDC grant the whole user address space; pointers are
		// plain integers.
		f.PCC = root.AndPerms(cap.PermCode | cap.PermLoad)
		f.DDC = root.AndPerms(cap.PermData)
		f.X[isa.RSP] = sp
		f.X[isa.RGP] = gotAddr
		f.X[isa.RA1] = argvVA
		f.X[isa.RA2] = envvVA
		f.X[isa.RK0] = tlsVA
		p.brk = 0 // sbrk-able region is assigned lazily
	}
	*k.regs(t) = f
	p.MmapHint = MmapBase + perturb*16

	if oldAS != nil {
		oldAS.Release()
	}
	return nil
}
