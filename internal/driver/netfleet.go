package driver

import (
	"fmt"

	"cheriabi"
	"cheriabi/internal/fabric"
	"cheriabi/internal/kernel"
)

// The fleet runner: N simulated machines under one network fabric. Each
// FleetNode is a machine (cloned from a shared snapshot template when
// one is given, cold-booted otherwise) running one program; machine i is
// reachable at fabric.NodeAddr(i), so callers bake peer addresses into
// guest argv before the fleet boots. The whole run is coordinated by
// fabric.Fabric.Run on one goroutine and is bit-reproducible for a fixed
// (configs, programs, fabric seed) triple.

// FleetNode is one machine's program.
type FleetNode struct {
	Exe  *cheriabi.Image
	Argv []string // argv[0] defaults to the image name
}

// FleetConfig configures a fleet run.
type FleetConfig struct {
	// Snapshot, when non-nil, is the boot template every node clones;
	// otherwise each node cold-boots with its Config.
	Snapshot *cheriabi.Snapshot
	// Config is the per-node machine config (seed, ablations, memory).
	Config cheriabi.Config
	// Fabric seeds and sizes the switch.
	Fabric fabric.Config
	// Budget bounds total fleet instructions (0 = fabric default).
	Budget uint64
}

// FleetNodeResult is one machine's outcome.
type FleetNodeResult struct {
	ExitCode int
	Signal   int
	Output   string
	Stats    cheriabi.Stats // machine-wide deltas for the run
	Cycles   uint64         // the machine's final clock
}

// FleetResult is a completed fleet run.
type FleetResult struct {
	Nodes     []FleetNodeResult
	TraceHash uint64 // fabric delivery trace (bit-reproducibility witness)
	Delivered uint64 // packets delivered through the fabric
	DataBytes uint64 // payload bytes moved through the fabric
}

// RunFleet boots one machine per node, joins them with a fabric, runs
// every program to completion under the lockstep coordinator, and
// reports per-node results plus the fabric's delivery trace.
func RunFleet(cfg FleetConfig, nodes []FleetNode) (*FleetResult, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("driver: empty fleet")
	}
	fab := fabric.New(cfg.Fabric)
	systems := make([]*cheriabi.System, len(nodes))
	procs := make([]*kernel.Proc, len(nodes))
	before := make([]cheriabi.Stats, len(nodes))
	for i, nd := range nodes {
		var sys *cheriabi.System
		if cfg.Snapshot != nil {
			sys = cfg.Snapshot.Clone(cfg.Config)
		} else {
			sys = cheriabi.NewSystem(cfg.Config)
		}
		fab.Attach(sys.Kernel)
		path, err := sys.Install(nd.Exe)
		if err != nil {
			return nil, fmt.Errorf("driver: node %d install: %w", i, err)
		}
		argv := nd.Argv
		if len(argv) == 0 {
			argv = []string{path}
		}
		before[i] = sys.Machine.CPU.Stats
		p, err := sys.Kernel.Spawn(path, argv, nil)
		if err != nil {
			return nil, fmt.Errorf("driver: node %d spawn: %w", i, err)
		}
		systems[i] = sys
		procs[i] = p
	}
	err := fab.Run(cfg.Budget, func() bool {
		for _, p := range procs {
			if !p.Exited() {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("driver: fleet run: %w (node 0 output so far: %q)", err, procs[0].Stdout.String())
	}
	res := &FleetResult{
		Nodes:     make([]FleetNodeResult, len(nodes)),
		TraceHash: fab.TraceHash(),
		Delivered: fab.Delivered(),
		DataBytes: fab.DataBytes(),
	}
	for i, sys := range systems {
		p := procs[i]
		if !p.Exited() {
			return nil, fmt.Errorf("driver: fleet quiescent but node %d has not exited", i)
		}
		after := sys.Machine.CPU.Stats
		res.Nodes[i] = FleetNodeResult{
			ExitCode: p.ExitCode(),
			Signal:   p.TermSignal(),
			Output:   p.Stdout.String(),
			Stats:    cheriabi.DeltaStats(before[i], after),
			Cycles:   sys.Kernel.Now(),
		}
		sys.Kernel.Reap(p)
	}
	return res, nil
}
