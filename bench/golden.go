package main

import (
	_ "embed"
	"encoding/json"
	"slices"
)

// golden.json pins every program's output and the fleet's checksum lines.
// All of them are independent of the seed. Only the test's -update flag
// rewrites the file.
//
//go:embed golden.json
var goldenJSON []byte

type goldenPins struct {
	// Programs maps "<abi>/<program>" to the program's stdout hash and
	// exit code.
	Programs map[string]observation `json:"programs"`
	// Fleet holds the load generator's checksum lines, node order.
	Fleet []string `json:"fleet"`
}

func loadGolden() (goldenPins, error) {
	var g goldenPins
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// verify fails every run of o whose output differs from its pin: a
// program whose output or exit code differs, or all of a fleet's requests
// when a checksum line does.
func (g goldenPins) verify(o *outcome) {
	ok := slices.Equal(o.fleet, g.Fleet)
	if o.key != "" {
		pin, found := g.Programs[o.key]
		ok = found && pin == o.obs
	}
	if !ok {
		o.failed = o.attempted
	}
}
