package isa

import (
	"fmt"

	"cheriabi/internal/cap"
)

// Binary encoding: 32-bit little-endian words.
//
//	bits 0..7    opcode
//	bits 8..12   Ra
//	bits 13..17  Rb
//	bits 18..22  Rc            (Fmt3R)
//	bits 18..31  Imm (14-bit)  (Fmt2RI; CLC/CSC store Imm>>4)
//	bits 13..31  Imm (19-bit)  (Fmt1RI)
//	bits  8..31  Imm (24-bit)  (FmtJ)

// Immediate ranges.
const (
	Imm14Min = -(1 << 13)
	Imm14Max = 1<<13 - 1
	Imm19Min = -(1 << 18)
	Imm19Max = 1<<18 - 1
	Imm24Min = -(1 << 23)
	Imm24Max = 1<<23 - 1

	// Capability load/store immediates are in bytes, must be multiples of
	// the capability width, and are stored scaled by it.
	CapImmScale = cap.Bytes
	// Short-form CLC/CSC reach (the pre-extension encoding, a 5-bit scaled
	// immediate): ±256 bytes — 16 capability slots, "often too small" for
	// GOT access, exactly the §5.2 complaint.
	CLCShortRangeMin = -256
	CLCShortRangeMax = 240
	// Large-immediate CLCB/CSCB reach (the §5.2 extension): ±128 KiB.
	CLCBigRangeMin = Imm14Min * CapImmScale
	CLCBigRangeMax = Imm14Max * CapImmScale
)

func fits(v int32, min, max int32) bool { return v >= min && v <= max }

// Encode packs i into a 32-bit word, validating operand ranges.
func Encode(i Inst) (uint32, error) {
	if int(i.Op) >= NumOps {
		return 0, fmt.Errorf("isa: bad opcode %d", i.Op)
	}
	if i.Ra >= NumRegs || i.Rb >= NumRegs || i.Rc >= NumRegs {
		return 0, fmt.Errorf("isa: bad register in %v", i)
	}
	w := uint32(i.Op)
	switch i.Op.Format() {
	case Fmt0:
	case Fmt1R:
		w |= uint32(i.Ra) << 8
	case Fmt2R:
		w |= uint32(i.Ra)<<8 | uint32(i.Rb)<<13
	case Fmt3R:
		w |= uint32(i.Ra)<<8 | uint32(i.Rb)<<13 | uint32(i.Rc)<<18
	case Fmt1RI:
		if !fits(i.Imm, Imm19Min, Imm19Max) {
			return 0, fmt.Errorf("isa: immediate %d out of range for %s", i.Imm, i.Op.Name())
		}
		w |= uint32(i.Ra)<<8 | uint32(i.Imm&0x7FFFF)<<13
	case Fmt2RI:
		imm := i.Imm
		switch i.Op {
		case CLC, CSC:
			if imm%CapImmScale != 0 || !fits(imm, CLCShortRangeMin, CLCShortRangeMax) {
				return 0, fmt.Errorf("isa: short capability immediate %d invalid", imm)
			}
			imm /= CapImmScale
		case CLCB, CSCB:
			if imm%CapImmScale != 0 || !fits(imm, CLCBigRangeMin, CLCBigRangeMax) {
				return 0, fmt.Errorf("isa: large capability immediate %d invalid", imm)
			}
			imm /= CapImmScale
		case ANDI, ORI, XORI:
			// Logical immediates are zero-extended: range 0..16383.
			if imm < 0 || imm > 0x3FFF {
				return 0, fmt.Errorf("isa: logical immediate %d out of range for %s", imm, i.Op.Name())
			}
		default:
			if !fits(imm, Imm14Min, Imm14Max) {
				return 0, fmt.Errorf("isa: immediate %d out of range for %s", imm, i.Op.Name())
			}
		}
		w |= uint32(i.Ra)<<8 | uint32(i.Rb)<<13 | uint32(imm&0x3FFF)<<18
	case FmtJ:
		if !fits(i.Imm, Imm24Min, Imm24Max) {
			return 0, fmt.Errorf("isa: jump immediate %d out of range", i.Imm)
		}
		w |= uint32(i.Imm&0xFFFFFF) << 8
	}
	return w, nil
}

func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode unpacks a 32-bit word. Unknown opcodes decode to an Inst whose
// execution raises a reserved-instruction trap.
func Decode(w uint32) Inst {
	op := Op(w & 0xFF)
	i := Inst{Op: op}
	if int(op) >= NumOps {
		return i
	}
	switch op.Format() {
	case Fmt1R:
		i.Ra = uint8(w >> 8 & 0x1F)
	case Fmt2R:
		i.Ra = uint8(w >> 8 & 0x1F)
		i.Rb = uint8(w >> 13 & 0x1F)
	case Fmt3R:
		i.Ra = uint8(w >> 8 & 0x1F)
		i.Rb = uint8(w >> 13 & 0x1F)
		i.Rc = uint8(w >> 18 & 0x1F)
	case Fmt1RI:
		i.Ra = uint8(w >> 8 & 0x1F)
		i.Imm = signExtend(w>>13, 19)
	case Fmt2RI:
		i.Ra = uint8(w >> 8 & 0x1F)
		i.Rb = uint8(w >> 13 & 0x1F)
		i.Imm = signExtend(w>>18, 14)
		switch op {
		case CLC, CSC, CLCB, CSCB:
			i.Imm *= CapImmScale
		case ANDI, ORI, XORI:
			i.Imm = int32(w >> 18 & 0x3FFF) // zero-extended
		}
	case FmtJ:
		i.Imm = signExtend(w>>8, 24)
	}
	return i
}

// MustEncode is Encode for trusted instruction streams; it panics on error
// (used by code generators after their own range checks).
func MustEncode(i Inst) uint32 {
	w, err := Encode(i)
	if err != nil {
		panic(err)
	}
	return w
}
