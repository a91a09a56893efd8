package testsuite

import (
	"fmt"
	"sort"
	"strings"

	"cheriabi"
	"cheriabi/internal/driver"
)

// Tally is one Table 1 cell group: condition outcomes for one suite under
// one ABI.
type Tally struct {
	Pass, Fail, Skip int
	// Crashed counts programs that died before finishing (their remaining
	// conditions are lost, as in the paper's totals).
	Crashed int
}

// Total returns the number of reported conditions.
func (t Tally) Total() int { return t.Pass + t.Fail + t.Skip }

// Suite is one corpus.
type Suite struct {
	Name     string
	Programs map[string]string
}

// Suites are the paper's three corpora.
var Suites = []Suite{
	{Name: "FreeBSD", Programs: FreeBSDSuite},
	{Name: "PostgreSQL", Programs: map[string]string{"minidb_regress": SrcMiniDB}},
	{Name: "libc++", Programs: map[string]string{"libcxx_test": SrcLibcxx}},
}

// memBytes is the physical-memory size every suite machine boots with.
const memBytes = 128 << 20

// RunSuite executes one corpus under one ABI on a cold-booted machine and
// tallies conditions. Programs run in sorted name order and machine state
// carries across the row's programs.
func RunSuite(s Suite, abi cheriabi.ABI) (Tally, error) {
	sys := cheriabi.NewSystem(cheriabi.Config{MemBytes: memBytes})
	var tally Tally
	names := make([]string, 0, len(s.Programs))
	for name := range s.Programs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		img, _, err := cheriabi.Compile(cheriabi.CompileOptions{Name: name, ABI: abi}, s.Programs[name])
		if err != nil {
			return tally, fmt.Errorf("testsuite %s/%s: %w", s.Name, name, err)
		}
		res, err := sys.RunImage(img, name)
		if err != nil {
			return tally, fmt.Errorf("testsuite %s/%s: %w", s.Name, name, err)
		}
		if res.Signal != 0 {
			tally.Crashed++
		}
		tally.Pass += strings.Count(res.Output, "P")
		tally.Fail += strings.Count(res.Output, "F")
		tally.Skip += strings.Count(res.Output, "S")
	}
	return tally, nil
}

// Row is one Table 1 line.
type Row struct {
	Suite string
	ABI   string
	Tally
}

// Table1 runs every suite under both ABIs.
func Table1() ([]Row, error) { return Table1Parallel(1) }

// Table1Parallel runs the six (suite, ABI) rows across a worker pool,
// each row on its own freshly booted machine. Rows are independent;
// results arrive in table order regardless of the worker count.
func Table1Parallel(workers int) ([]Row, error) {
	type job struct {
		suite Suite
		abi   cheriabi.ABI
	}
	var jobs []job
	for _, s := range Suites {
		for _, abi := range []cheriabi.ABI{cheriabi.ABILegacy, cheriabi.ABICheri} {
			jobs = append(jobs, job{suite: s, abi: abi})
		}
	}
	return driver.Map(workers, jobs, func(j job) (Row, error) {
		t, err := RunSuite(j.suite, j.abi)
		if err != nil {
			return Row{}, err
		}
		label := "MIPS"
		if j.abi == cheriabi.ABICheri {
			label = "CheriABI"
		}
		return Row{Suite: j.suite.Name, ABI: label, Tally: t}, nil
	})
}

// Render formats rows as the paper's Table 1.
func Render(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %6s %6s %7s\n", "", "Pass", "Fail", "Skip", "Total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %6d %6d %6d %7d\n",
			r.Suite+" "+r.ABI, r.Pass, r.Fail, r.Skip, r.Total())
	}
	return b.String()
}
