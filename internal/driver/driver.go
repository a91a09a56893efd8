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
	"sync"
	"sync/atomic"
)

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
