package cap

import "encoding/binary"

// In-memory capability encoding. The tag travels out of band (one tag bit
// per capability-sized granule of physical memory, package mem); these
// functions pack and unpack only the in-band bits.
//
// Layout (Bytes = 16, little endian):
//
//	[0:8)   cursor (the full 64-bit address)
//	[8:16)  packed metadata:
//	        bits 0..11   permissions
//	        bits 12..19  otype (0xFF = unsealed; the simulator uses small
//	                     object types only)
//	        bits 20..25  exponent E
//	        bits 26..40  length mantissa (len >> E)
//	        bits 41..56  signed base offset ((addr>>E) - (base>>E)), which
//	                     recovers the base from the cursor exactly while the
//	                     cursor stays inside the representable window
//
// Untagged memory bytes decode to an untagged capability carrying only the
// cursor bits; untagged capabilities are never dereferenceable so their
// bounds are immaterial.

const (
	otypeShift = 12
	expShift   = 20
	lenShift   = 26
	boffShift  = 41
)

// Encode packs c into buf, which must be at least Bytes long. The tag is
// not stored; callers keep it out of band.
func Encode(c Capability, buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:8], c.addr)
	e := exponent(c.len)
	ot := uint64(0xFF)
	if c.otype != OTypeUnsealed {
		ot = uint64(c.otype & 0xFF)
	}
	boff := int64(c.addr>>e) - int64(c.base>>e)
	packed := uint64(c.perms) |
		ot<<otypeShift |
		uint64(e)<<expShift |
		(c.len>>e)<<lenShift |
		uint64(uint16(boff))<<boffShift
	binary.LittleEndian.PutUint64(buf[8:16], packed)
}

// Decode unpacks a capability from buf with the given out-of-band tag.
func Decode(buf []byte, tag bool) Capability {
	var c Capability
	DecodeInto(&c, buf, tag)
	return c
}

// DecodeInto unpacks a capability from buf with the given out-of-band tag
// into *dst, overwriting every field: the CPU decodes a loaded
// capability straight into its destination register.
func DecodeInto(dst *Capability, buf []byte, tag bool) {
	addr := binary.LittleEndian.Uint64(buf[0:8])
	if !tag {
		*dst = NullWithAddr(addr)
		return
	}
	packed := binary.LittleEndian.Uint64(buf[8:16])
	e := uint(packed >> expShift & 0x3F)
	boff := int64(int16(packed >> boffShift & 0xFFFF))
	dst.base = uint64(int64(addr>>e)-boff) << e
	dst.len = (packed >> lenShift & 0x7FFF) << e
	ot := uint32(packed >> otypeShift & 0xFF)
	if ot == 0xFF {
		ot = OTypeUnsealed
	}
	dst.tag = true
	dst.addr = addr
	dst.perms = Perm(packed) & PermAll
	dst.otype = ot
}
