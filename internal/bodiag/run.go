package bodiag

import (
	"fmt"

	"cheriabi"
	"cheriabi/internal/driver"
)

// Env is one evaluated protection environment (a Table 3 row).
type Env struct {
	Name string
	ABI  cheriabi.ABI
	ASan bool
	// SubObjectBounds enables the §6 member-narrowing extension (used by
	// the ablation benchmarks, not the paper's Table 3).
	SubObjectBounds bool
}

// Envs are the paper's three rows.
var Envs = []Env{
	{Name: "mips64", ABI: cheriabi.ABILegacy},
	{Name: "cheriabi", ABI: cheriabi.ABICheri},
	{Name: "asan", ABI: cheriabi.ABILegacy, ASan: true},
}

// Result is a full Table 3: detections per environment and variant.
type Result struct {
	Total int
	// Detected[env][variant-1] counts min/med/large detections.
	Detected map[string][3]int
	// OKFailures counts correct variants that misbehaved (must be 0).
	OKFailures int
	// Failures lists diagnostics for unexpected behaviour.
	Failures []string
}

// memBytes is the physical-memory size every bodiag machine boots with.
const memBytes = 192 << 20

// detected runs one case/variant in env on a freshly booted machine and
// reports whether the violation was detected: the process died on a
// signal, or a kernel/library path refused the access (exit 99 = EFAULT
// observed).
func detected(env Env, c Case, v Variant) (bool, error) {
	src := Source(c, v)
	// The image name must be a deterministic function of (case, variant,
	// env): it becomes the installed path and therefore argv[0], which is
	// copied onto the guest stack, so a scheduling-dependent name (e.g. a
	// per-runner counter) would perturb stack layout and make detection
	// outcomes only probabilistically worker-count-invariant.
	img, _, err := cheriabi.Compile(cheriabi.CompileOptions{
		Name:            fmt.Sprintf("%s-%s-%s", c.Name(), v, env.Name),
		ABI:             env.ABI,
		ASan:            env.ASan,
		SubObjectBounds: env.SubObjectBounds,
	}, src)
	if err != nil {
		return false, fmt.Errorf("%s/%s: compile: %w", c.Name(), v, err)
	}
	sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: memBytes})
	sys.Kernel.FS.Mkdir(CwdPath)
	res, err := sys.RunImage(img)
	if err != nil {
		return false, fmt.Errorf("%s/%s: run: %w", c.Name(), v, err)
	}
	return res.Signal != 0 || res.ExitCode == 99, nil
}

// RunParallel evaluates cases under envs across a pool of workers
// (pass Generate() and Envs for the full Table 3). Every (case, variant,
// env) run is one item executed on its own freshly booted machine, so no
// simulated state leaks between runs regardless of scheduling; and
// detection is an architectural outcome (signal or EFAULT), not a timing
// or placement one, so the worker count cannot change it — the parallel
// determinism test compares one worker against eight.
func RunParallel(cases []Case, envs []Env, workers int) (*Result, error) {
	type run struct {
		ci, ei, vi int // vi indexes variants: 0 = OK, 1..3 = min/med/large
	}
	variants := []Variant{VarOK, VarMin, VarMed, VarLarge}
	runs := make([]run, 0, len(cases)*len(envs)*len(variants))
	for ci := range cases {
		for ei := range envs {
			for vi := range variants {
				runs = append(runs, run{ci: ci, ei: ei, vi: vi})
			}
		}
	}
	hits, err := driver.Map(workers, runs, func(r run) (bool, error) {
		return detected(envs[r.ei], cases[r.ci], variants[r.vi])
	})
	if err != nil {
		return nil, err
	}
	// Fold env-major, then case, then variant, so the Failures
	// diagnostics come out in a fixed order.
	idx := func(ci, ei, vi int) int { return (ci*len(envs)+ei)*len(variants) + vi }
	res := &Result{Total: len(cases), Detected: map[string][3]int{}}
	for ei, env := range envs {
		var counts [3]int
		for ci, c := range cases {
			if hits[idx(ci, ei, 0)] {
				res.OKFailures++
				res.Failures = append(res.Failures, fmt.Sprintf("%s: OK variant flagged under %s", c.Name(), env.Name))
			}
			for vi := 0; vi < 3; vi++ {
				if hits[idx(ci, ei, vi+1)] {
					counts[vi]++
				}
			}
		}
		res.Detected[env.Name] = counts
	}
	return res, nil
}

// Render formats the result as the paper's Table 3.
func (res *Result) Render() string {
	s := fmt.Sprintf("%-10s %6s %6s %6s   (of %d tests)\n", "", "min", "med", "large", res.Total)
	names := make([]string, 0, len(res.Detected))
	for _, env := range Envs {
		if _, ok := res.Detected[env.Name]; ok {
			names = append(names, env.Name)
		}
	}
	for name := range res.Detected {
		seen := false
		for _, n := range names {
			if n == name {
				seen = true
			}
		}
		if !seen {
			names = append(names, name)
		}
	}
	for _, name := range names {
		c := res.Detected[name]
		s += fmt.Sprintf("%-10s %6d %6d %6d\n", name, c[0], c[1], c[2])
	}
	return s
}
