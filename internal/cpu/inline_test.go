package cpu

import (
	"os/exec"
	"regexp"
	"testing"
)

// TestHotHelpersInline holds the inlining the data and capability fast
// paths are built on. Each helper below sits on the path of nearly every
// retired instruction, and a call to it costs the threaded engine a
// spill of its loop state, so an edit that pushes one over the
// compiler's inlining budget would quietly put that call back. The test
// asks the compiler (go build -gcflags=-m) and fails if any of them stops
// reporting "can inline".
func TestHotHelpersInline(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	pkgs := []string{"cheriabi/internal/cap", "cheriabi/internal/cache", "cheriabi/internal/cpu"}
	out, err := exec.Command(goTool, append([]string{"build", "-gcflags=-m"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{
		// internal/cap: pointer arithmetic and the access check.
		`SetAddrP`, `IncAddrP`, `\(\*Capability\)\.Authorizes`,
		// internal/cache: the way-0 hit test and the batched hit count.
		`\(\*Probe\)\.mru`, `\(\*Probe\)\.Hit`, `\(\*Cache\)\.Hits`,
		// internal/cpu: a data run's set-up and settlement.
		`\(\*CPU\)\.newDataRun`, `\(\*CPU\)\.settle`,
	} {
		if !regexp.MustCompile(`(?m): can inline ` + fn + `$`).Match(out) {
			t.Errorf("%s no longer inlines", fn)
		}
	}
}
