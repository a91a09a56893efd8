// Package isa defines the simulator's instruction set: a 64-bit MIPS-like
// integer core extended with the CHERI capability instructions, including
// the large-immediate capability load/store the paper adds in §5.2 ("We
// added a new CLC with larger immediate, allowing most GOT entries to be
// accessed with a single instruction").
//
// Instructions are four bytes. Legacy loads and stores compute integer
// virtual addresses and are checked against the default data capability
// (DDC); capability loads and stores name an explicit capability register.
// Under CheriABI the kernel installs a NULL DDC, so legacy accesses fault:
// every access must be intentional.
package isa

import "fmt"

// Op is an opcode.
type Op uint8

// Integer register-register operations (Fmt3R: Rd, Rs, Rt).
const (
	NOP Op = iota
	ADD
	SUB
	MUL
	MULH
	DIV
	DIVU
	REM
	REMU
	AND
	OR
	XOR
	NOR
	SLL
	SRL
	SRA
	SLT
	SLTU
	SEXTB // Rd = sign-extend byte(Rs)
	SEXTH
	SEXTW

	// Integer immediate operations (Fmt2RI: Rd, Rs, Imm).
	ADDI
	ANDI
	ORI
	XORI
	SLTI
	SLTIU
	SLLI
	SRLI
	SRAI
	LUI // Rd = Imm << 14 (Fmt1RI: Rd, Imm)

	// Control flow.
	BEQ // Fmt2RI: Rs, Rt, Imm (pc-relative, instruction units)
	BNE
	BLT
	BGE
	BLTU
	BGEU
	J    // FmtJ: Imm (pc-relative)
	JAL  // FmtJ: link in r31 (legacy ABI only)
	JR   // Fmt1R: Rs
	JALR // Fmt2R: Rd, Rs

	// Traps.
	SYSCALL // kernel call; number in r2
	BREAK
	NCALL // FmtJ: native runtime call (libc fast-model), id in Imm

	// Legacy memory, integer base register, checked against DDC
	// (Fmt2RI: Rd/Rs data, Rb base, Imm offset).
	LB
	LBU
	LH
	LHU
	LW
	LWU
	LD
	SB
	SH
	SW
	SD

	// Capability-relative memory (Fmt2RI: data reg, cap base reg, Imm).
	CLB
	CLBU
	CLH
	CLHU
	CLW
	CLWU
	CLD
	CSB
	CSH
	CSW
	CSD
	CLC  // load capability, short scaled immediate (7-bit signed × CapSize)
	CSC  // store capability, short scaled immediate
	CLCB // load capability, large immediate (14-bit signed × CapSize) — the §5.2 extension
	CSCB // store capability, large immediate

	// Capability manipulation.
	CMOVE     // Fmt2R: Cd, Cb
	CINCOFF   // Fmt3R: Cd, Cb, Rt
	CINCOFFI  // Fmt2RI: Cd, Cb, Imm
	CSETADDR  // Fmt3R: Cd, Cb, Rt
	CGETADDR  // Fmt2R: Rd, Cb
	CSETBNDS  // Fmt3R: Cd, Cb, Rt (length in Rt)
	CSETBNDSI // Fmt2RI: Cd, Cb, Imm
	CSETBNDSE // Fmt3R: exact
	CANDPERM  // Fmt3R: Cd, Cb, Rt
	CCLRTAG   // Fmt2R: Cd, Cb
	CGETTAG   // Fmt2R: Rd, Cb
	CGETBASE  // Fmt2R
	CGETLEN   // Fmt2R
	CGETPERM  // Fmt2R
	CGETOFF   // Fmt2R
	CGETTYPE  // Fmt2R
	CSEAL     // Fmt3R: Cd, Cb, Ct
	CUNSEAL   // Fmt3R
	CFROMPTR  // Fmt3R: Cd, Cb, Rt — NULL if Rt==0 else Cb with addr=base+Rt
	CTOPTR    // Fmt3R: Rd, Cb, Ct — 0 if untagged else addr-base(Ct)
	CSUB      // Fmt3R: Rd, Cb, Ct — address difference
	CRRL      // Fmt2R: Rd = representable length of Rs
	CRAM      // Fmt2R: Rd = alignment mask for length Rs
	CEXEQ     // Fmt3R: Rd = exact-equals(Cb, Ct)
	CJR       // Fmt1R: Cb
	CJALR     // Fmt2R: Cd, Cb
	CGETPCC   // Fmt1R: Cd
	CRDDDC    // Fmt1R: Cd = DDC
	CWRDDC    // Fmt1R: DDC = Cb (privileged: needs PermSystemRegs on PCC)
	CBTS      // Fmt1RI: branch if Cb tagged
	CBTU      // Fmt1RI: branch if Cb untagged
	CJAL      // FmtJ: pc-relative call, link capability in CRA

	opCount
)

// NumOps is the number of defined opcodes.
const NumOps = int(opCount)

// Fmt describes operand layout for encoding and disassembly.
type Fmt uint8

// Operand formats.
const (
	Fmt0 Fmt = iota
	Fmt1R
	Fmt2R
	Fmt3R
	Fmt1RI
	Fmt2RI
	FmtJ
)

type opInfo struct {
	name string
	fmt  Fmt
}

var ops = [opCount]opInfo{
	NOP: {"nop", Fmt0}, ADD: {"add", Fmt3R}, SUB: {"sub", Fmt3R}, MUL: {"mul", Fmt3R},
	MULH: {"mulh", Fmt3R}, DIV: {"div", Fmt3R}, DIVU: {"divu", Fmt3R}, REM: {"rem", Fmt3R},
	REMU: {"remu", Fmt3R}, AND: {"and", Fmt3R}, OR: {"or", Fmt3R}, XOR: {"xor", Fmt3R},
	NOR: {"nor", Fmt3R}, SLL: {"sll", Fmt3R}, SRL: {"srl", Fmt3R}, SRA: {"sra", Fmt3R},
	SLT: {"slt", Fmt3R}, SLTU: {"sltu", Fmt3R}, SEXTB: {"sextb", Fmt2R}, SEXTH: {"sexth", Fmt2R},
	SEXTW: {"sextw", Fmt2R},
	ADDI:  {"addi", Fmt2RI}, ANDI: {"andi", Fmt2RI}, ORI: {"ori", Fmt2RI}, XORI: {"xori", Fmt2RI},
	SLTI: {"slti", Fmt2RI}, SLTIU: {"sltiu", Fmt2RI}, SLLI: {"slli", Fmt2RI}, SRLI: {"srli", Fmt2RI},
	SRAI: {"srai", Fmt2RI}, LUI: {"lui", Fmt1RI},
	BEQ: {"beq", Fmt2RI}, BNE: {"bne", Fmt2RI}, BLT: {"blt", Fmt2RI}, BGE: {"bge", Fmt2RI},
	BLTU: {"bltu", Fmt2RI}, BGEU: {"bgeu", Fmt2RI},
	J: {"j", FmtJ}, JAL: {"jal", FmtJ}, JR: {"jr", Fmt1R}, JALR: {"jalr", Fmt2R},
	SYSCALL: {"syscall", Fmt0}, BREAK: {"break", Fmt0}, NCALL: {"ncall", FmtJ},
	LB: {"lb", Fmt2RI}, LBU: {"lbu", Fmt2RI}, LH: {"lh", Fmt2RI}, LHU: {"lhu", Fmt2RI},
	LW: {"lw", Fmt2RI}, LWU: {"lwu", Fmt2RI}, LD: {"ld", Fmt2RI},
	SB: {"sb", Fmt2RI}, SH: {"sh", Fmt2RI}, SW: {"sw", Fmt2RI}, SD: {"sd", Fmt2RI},
	CLB: {"clb", Fmt2RI}, CLBU: {"clbu", Fmt2RI}, CLH: {"clh", Fmt2RI}, CLHU: {"clhu", Fmt2RI},
	CLW: {"clw", Fmt2RI}, CLWU: {"clwu", Fmt2RI}, CLD: {"cld", Fmt2RI},
	CSB: {"csb", Fmt2RI}, CSH: {"csh", Fmt2RI}, CSW: {"csw", Fmt2RI}, CSD: {"csd", Fmt2RI},
	CLC: {"clc", Fmt2RI}, CSC: {"csc", Fmt2RI}, CLCB: {"clcb", Fmt2RI}, CSCB: {"cscb", Fmt2RI},
	CMOVE: {"cmove", Fmt2R}, CINCOFF: {"cincoffset", Fmt3R}, CINCOFFI: {"cincoffseti", Fmt2RI},
	CSETADDR: {"csetaddr", Fmt3R}, CGETADDR: {"cgetaddr", Fmt2R},
	CSETBNDS: {"csetbounds", Fmt3R}, CSETBNDSI: {"csetboundsi", Fmt2RI}, CSETBNDSE: {"csetboundsexact", Fmt3R},
	CANDPERM: {"candperm", Fmt3R}, CCLRTAG: {"ccleartag", Fmt2R}, CGETTAG: {"cgettag", Fmt2R},
	CGETBASE: {"cgetbase", Fmt2R}, CGETLEN: {"cgetlen", Fmt2R}, CGETPERM: {"cgetperm", Fmt2R},
	CGETOFF: {"cgetoffset", Fmt2R}, CGETTYPE: {"cgettype", Fmt2R},
	CSEAL: {"cseal", Fmt3R}, CUNSEAL: {"cunseal", Fmt3R},
	CFROMPTR: {"cfromptr", Fmt3R}, CTOPTR: {"ctoptr", Fmt3R}, CSUB: {"csub", Fmt3R},
	CRRL: {"crrl", Fmt2R}, CRAM: {"cram", Fmt2R}, CEXEQ: {"cexeq", Fmt3R},
	CJR: {"cjr", Fmt1R}, CJALR: {"cjalr", Fmt2R}, CGETPCC: {"cgetpcc", Fmt1R},
	CRDDDC: {"creadddc", Fmt1R}, CWRDDC: {"cwriteddc", Fmt1R},
	CBTS: {"cbts", Fmt1RI}, CBTU: {"cbtu", Fmt1RI}, CJAL: {"cjal", FmtJ},
}

// Name returns the mnemonic.
func (o Op) Name() string {
	if int(o) < len(ops) {
		return ops[o].name
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Format returns the operand format.
func (o Op) Format() Fmt { return ops[o].fmt }

// InstSize is the size of every instruction in bytes.
const InstSize = 4

// Inst is one decoded instruction. Ra/Rb/Rc index the integer or
// capability register file depending on the opcode.
type Inst struct {
	Op  Op
	Ra  uint8
	Rb  uint8
	Rc  uint8
	Imm int32
}

func (i Inst) String() string {
	switch i.Op.Format() {
	case Fmt0:
		return i.Op.Name()
	case Fmt1R:
		return fmt.Sprintf("%s r%d", i.Op.Name(), i.Ra)
	case Fmt2R:
		return fmt.Sprintf("%s r%d, r%d", i.Op.Name(), i.Ra, i.Rb)
	case Fmt3R:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op.Name(), i.Ra, i.Rb, i.Rc)
	case Fmt1RI:
		return fmt.Sprintf("%s r%d, %d", i.Op.Name(), i.Ra, i.Imm)
	case Fmt2RI:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op.Name(), i.Ra, i.Rb, i.Imm)
	case FmtJ:
		return fmt.Sprintf("%s %d", i.Op.Name(), i.Imm)
	}
	return i.Op.Name()
}

// IsBranch reports whether the instruction is a conditional branch.
func (o Op) IsBranch() bool {
	switch o {
	case BEQ, BNE, BLT, BGE, BLTU, BGEU, CBTS, CBTU:
		return true
	}
	return false
}

// Integer register conventions (legacy SysV-flavoured ABI).
const (
	R0  = 0 // hard zero
	RAT = 1 // assembler temporary
	RV0 = 2 // return value / syscall number
	RV1 = 3 // second return value
	RA0 = 4 // first integer argument
	RA1 = 5
	RA2 = 6
	RA3 = 7
	RT0 = 8  // caller-saved temporaries r8..r15
	RS0 = 16 // callee-saved r16..r23
	RT8 = 24
	RT9 = 25
	RK0 = 26 // kernel scratch
	RK1 = 27
	RGP = 28 // legacy GOT pointer
	RSP = 29 // legacy stack pointer
	RFP = 30 // frame pointer
	RRA = 31 // legacy return address
)

// Capability register conventions (CheriABI).
const (
	CNULL = 0 // hard NULL capability
	CT0   = 1 // caller-saved temporaries
	CT1   = 2
	CA0   = 3 // first capability argument and return value
	CA1   = 4
	CA2   = 5
	CA3   = 6
	CA4   = 7
	CA5   = 8
	CA6   = 9
	CA7   = 10
	CSP   = 11 // stack capability
	CT2   = 12 // caller-saved temporaries c12..c16
	CRA   = 17 // return capability
	CS0   = 18 // callee-saved c18..c23
	CFP   = 24 // frame capability
	CGP   = 25 // capability GOT (captable) pointer
	CTLS  = 26 // thread-local storage capability
	CT3   = 27 // caller-saved temporaries c27..c29
	CK0   = 30 // kernel scratch
	CK1   = 31
)

// NumRegs is the size of each register file.
const NumRegs = 32

// CLC immediate scaling and ranges: short form covers ±64 capabilities
// around the base; the large-immediate form (the paper's ISA extension)
// covers ±8192.
const (
	CLCShortMin = -64
	CLCShortMax = 63
	CLCBigMin   = -8192
	CLCBigMax   = 8191
)
