package cpu

import "fmt"

// Engine selects the simulator's host-side fast paths. None of them is
// architectural: every Engine value retires the same instructions, charges
// the same cycles, leaves the same memory and raises the same traps (the
// differential suites run every value in Engines() and require this). The
// zero value enables every fast path.
type Engine struct {
	// Tier is the instruction-execution tier.
	Tier Tier
	// ByteCopy makes the uaccess subsystem move each page run byte at a
	// time instead of with bulk memmoves (internal/uaccess).
	ByteCopy bool
}

// Tier is an instruction-execution tier. Tiers are ordered: each adds one
// fast path on top of every tier below it, and the fastest is the zero
// value.
type Tier int8

// Execution tiers, slowest first.
const (
	// Interpreter runs one Step per instruction, each performing the full
	// PCC check, translation and decode.
	Interpreter Tier = iota - 2
	// DecodeCache serves Step's fetches from decoded pages (decode.go).
	DecodeCache
	// Threaded runs straight-line code from decoded pages inside runBlock
	// (threaded.go), falling back to Step between runs.
	Threaded
)

func (t Tier) String() string {
	switch t {
	case Interpreter:
		return "interpreter"
	case DecodeCache:
		return "decode-cache"
	case Threaded:
		return "threaded"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

func (e Engine) String() string {
	if e.ByteCopy {
		return e.Tier.String() + "+bytecopy"
	}
	return e.Tier.String()
}

// Engines returns every Engine value, slowest first: the reference
// configuration, the interpreter with byte-at-a-time copies, leads.
func Engines() []Engine {
	var out []Engine
	for t := Interpreter; t <= Threaded; t++ {
		out = append(out, Engine{Tier: t, ByteCopy: true}, Engine{Tier: t})
	}
	return out
}
