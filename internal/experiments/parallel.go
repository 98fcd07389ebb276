package experiments

import (
	"runtime"
	"sync/atomic"
)

// The experiment drivers are embarrassingly parallel at the cell level:
// every figure point and campaign cell is one self-contained Scenario.Run
// with its own engine, cluster, and flow network, sharing nothing mutable
// with its neighbors. Running cells concurrently therefore changes nothing
// about any cell's result — each run is bit-for-bit the run the serial
// driver would have produced — and the drivers assemble rows by cell index
// (scenario.ForEach over the budget below), so report output is
// byte-identical too. This run-level parallelism composes with the
// scenario-level component sharding (scenario.WithParallel) one layer down.

// parallelWorkers is the worker budget for cell fan-out; 0 (the default)
// runs every driver serially.
var parallelWorkers atomic.Int32

// SetParallel sets how many experiment cells may run concurrently: 0 restores
// the serial driver, negative uses GOMAXPROCS. It applies to all subsequent
// Run* calls (process-wide, like the drivers themselves).
func SetParallel(workers int) {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parallelWorkers.Store(int32(workers))
}

// ParallelWorkers returns the current cell-level worker budget.
func ParallelWorkers() int { return int(parallelWorkers.Load()) }
