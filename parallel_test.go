// Parallel-driver determinism: the sharded evaluation driver must produce
// aggregated results that are independent of the worker count. These tests
// run a Figure 4 subset and a Table 3 subset with 1 worker and with 8, and
// require deeply-equal results; CI runs the short suite under the race
// detector, so any sharing between per-worker Systems would also surface
// as a data race here.
package cheriabi_test

import (
	"fmt"
	"reflect"
	"testing"

	"cheriabi/internal/bodiag"
	"cheriabi/internal/driver"
	"cheriabi/internal/testsuite"
	"cheriabi/internal/workload"
)

// TestParallelFigure4Determinism compares sequential and sharded Figure 4
// measurement of the same rows.
func TestParallelFigure4Determinism(t *testing.T) {
	ws := workload.ShortCorpus()
	seeds := []int64{1}
	seq, err := workload.Figure4Rows(ws, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := workload.Figure4Rows(ws, seeds, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Figure 4 rows diverged across worker counts:\nworkers=1: %+v\nworkers=8: %+v", seq, par)
	}
}

// TestParallelBodiagDeterminism compares sequential and sharded Table 3
// aggregation over a strided case subset (the full sweep runs nightly via
// cmd/cheri-bodiag).
func TestParallelBodiagDeterminism(t *testing.T) {
	all := bodiag.Generate()
	stride := 12
	if testing.Short() {
		stride = 48
	}
	var subset []bodiag.Case
	for i := 0; i < len(all); i += stride {
		subset = append(subset, all[i])
	}
	seq, err := bodiag.RunParallel(subset, bodiag.Envs, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := bodiag.RunParallel(subset, bodiag.Envs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Table 3 aggregation diverged across worker counts:\nworkers=1: %+v\nworkers=8: %+v", seq, par)
	}
}

// TestParallelTable1Determinism compares sequential and sharded Table 1.
func TestParallelTable1Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("full test suites; covered by the non-short run")
	}
	seq, err := testsuite.Table1Parallel(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := testsuite.Table1Parallel(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Table 1 rows diverged across worker counts:\nworkers=1: %+v\nworkers=8: %+v", seq, par)
	}
}

// TestDriverOrderingAndErrors pins the driver's determinism contract:
// input-order results and lowest-index error selection, for any worker
// count.
func TestDriverOrderingAndErrors(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 3, 16, 200} {
		out, err := driver.Map(workers, items, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		// Several items fail; the reported error must deterministically be
		// the lowest-indexed one regardless of scheduling.
		_, err = driver.Map(workers, items, func(i int) (int, error) {
			if i%7 == 3 {
				return 0, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("workers=%d: want lowest-index error 'item 3 failed', got %v", workers, err)
		}
	}
}
