// Package driver is the sharded parallel evaluation driver. The paper's
// evaluation — Figure 4 rows, Table 1 suites, Table 3's 291×4×3 sweep —
// is hundreds of *independent* whole-machine simulations, so they shard
// perfectly across a worker pool as long as each worker owns its machines
// outright (one System per goroutine; nothing in the simulator is shared)
// and aggregation is deterministic.
//
// Determinism contract: results are delivered in input order regardless of
// worker count or scheduling, and the returned error (if any) is the one
// from the lowest-indexed failing item. The top-level parallel-driver
// determinism test runs the same sweep with 1 and 8 workers under the race
// detector and requires identical aggregated results.
package driver

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// FlagPassed reports whether the named flag was set explicitly on the
// command line (flag.Parse must have run). Companion to ResolveWorkers
// for the evaluation CLIs' shared -workers handling.
func FlagPassed(name string) bool {
	passed := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}

// ResolveWorkers turns a -workers flag value into the pool size for a
// sweep of nItems: an explicitly passed value must be positive and is
// honored as given; the default (explicit == false) auto-calibrates via
// AutoWorkers. Shared by the evaluation CLIs so the validation and
// calibration rules live in one place.
func ResolveWorkers(explicit bool, requested, nItems int) (int, error) {
	if requested <= 0 {
		return 0, fmt.Errorf("-workers must be positive (got %d); omit the flag to auto-calibrate", requested)
	}
	if explicit {
		return requested, nil
	}
	return AutoWorkers(nItems), nil
}

// AutoWorkers returns the calibrated worker count for a sweep of nItems
// independent whole-machine runs: the host's available parallelism
// (GOMAXPROCS), clamped to the number of shards — workers beyond the
// shard count only pay goroutine spin-up for idle hands — with a floor
// of one. Single-core hosts therefore run sequentially without pool
// overhead, and the nightly multi-core runners use every core the sweep
// can feed.
func AutoWorkers(nItems int) int {
	w := runtime.GOMAXPROCS(0)
	if nItems > 0 && w > nItems {
		w = nItems
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn over items on a pool of workers and returns the results in
// input order. workers < 1 (or > len(items)) is clamped. A sweep gives
// each item its own machine inside fn, so no simulated state leaks
// between items regardless of worker scheduling.
func Map[T, R any](workers int, items []T, fn func(T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(items) {
		workers = len(items)
	}
	errs := make([]error, len(items))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Short-circuit once anything failed: items are claimed in
				// index order, so every unclaimed item has a higher index
				// than every claimed one, and skipping the rest cannot
				// change which error is the lowest-indexed (in-flight items
				// still run to completion and record theirs).
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				results[i], errs[i] = fn(items[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
