package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"cheriabi"
	"cheriabi/internal/driver"
	"cheriabi/internal/fabric"
	"cheriabi/internal/kernel"
	"cheriabi/internal/workload"
)

// memBytes is the machine size workload.Run boots, so a program's
// simulated counters here equal the ones workload.Run reports.
const memBytes = 128 << 20

// machineConfig is every clone's configuration. The seed perturbs the
// layout only: /dev/urandom is pinned, so the programs' inputs, and with
// them their outputs, are the same at every seed.
func machineConfig(seed int64) cheriabi.Config {
	return cheriabi.Config{MemBytes: memBytes, Seed: seed, UrandomSeed: 0x5eed}
}

// A spec is one benchmark workload. setup compiles its programs and
// captures the template machine, and returns the units of one pass.
type spec struct {
	name  string
	setup func(seed int64, tr *tracer) ([]unit, error)
}

// A unit is one separately timed part of a pass: one program run on a
// fresh clone, or one fleet run. It records spans into tr (nil when
// untraced).
type unit func(tr *tracer) outcome

// outcome is one unit's result: what was attempted, what failed, and its
// simulated and per-layer counts, which repeat exactly for a fixed seed.
type outcome struct {
	attempted, failed int
	c                 counts
	// key and obs are a program's golden key and observed output.
	key string
	obs observation
	// fleet holds a fleet's seed-independent checksum lines.
	fleet []string
}

// specs are the benchmark's workloads; README.md says why each was chosen.
var specs = []spec{
	{"fig4-mips64", func(seed int64, tr *tracer) ([]unit, error) {
		return setupPrograms(workload.Figure4[:13], cheriabi.ABILegacy, seed, tr)
	}},
	{"fig4-cheriabi", func(seed int64, tr *tracer) ([]unit, error) {
		return setupPrograms(workload.Figure4[:13], cheriabi.ABICheri, seed, tr)
	}},
	{"kernel-io", func(seed int64, tr *tracer) ([]unit, error) {
		return setupPrograms(kernelIO(), cheriabi.ABICheri, seed, tr)
	}},
	{"fleet-loadgen", setupFleet},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// kernelIO lists the short syscall-bound programs of the kernel-io
// workload: file, pipe and /dev/zero transfers, an AF_UNIX echo to a
// forked peer, a write loop, a poll storm over idle blocked children, and
// the four POSIX scenario programs of Figure 4.
func kernelIO() []workload.Workload {
	ws := []workload.Workload{
		{Name: "fileio-file", Src: workload.SrcFileIOBench, Args: []string{"file", "3000"}},
		{Name: "fileio-pipe", Src: workload.SrcFileIOBench, Args: []string{"pipe", "3000"}},
		{Name: "fileio-zero", Src: workload.SrcFileIOBench, Args: []string{"zero", "3000"}},
		{Name: "socket-echo", Src: workload.SrcSocketEchoBench, Args: []string{"1000"}},
		{Name: "syscall-write", Src: workload.SrcSyscallMicro, Args: []string{"write", "4000"}},
		{Name: "poll-storm", Src: workload.SrcPollStormBench, Args: []string{"16", "300"}},
	}
	for _, name := range []string{"posix-vectorio", "posix-sockets", "posix-timers", "posix-inet"} {
		w, ok := workload.ByName(name)
		if !ok {
			panic("bench: unknown workload " + name)
		}
		ws = append(ws, w)
	}
	return ws
}

// observation is what a program run is checked on.
type observation struct {
	Stdout string `json:"stdout_fnv1a"`
	Exit   int    `json:"exit"`
}

func goldenKey(abi cheriabi.ABI, name string) string {
	if abi == cheriabi.ABICheri {
		return "cheriabi/" + name
	}
	return "mips64/" + name
}

type program struct {
	w    workload.Workload
	key  string
	exe  *cheriabi.Image
	libs []*cheriabi.Image
}

// setupPrograms compiles ws for abi and captures a booted template. Each
// program is a unit that runs on its own clone.
func setupPrograms(ws []workload.Workload, abi cheriabi.ABI, seed int64, tr *tracer) ([]unit, error) {
	progs := make([]program, len(ws))
	for i, w := range ws {
		end := tr.begin("cc.compile")
		exe, libs, err := workload.Build(w, workload.BuildOptions{ABI: abi})
		end()
		if err != nil {
			return nil, err
		}
		progs[i] = program{w: w, key: goldenKey(abi, w.Name), exe: exe, libs: libs}
	}
	snap, err := snapshot(tr)
	if err != nil {
		return nil, err
	}
	cfg := machineConfig(seed)
	units := make([]unit, len(progs))
	for i, p := range progs {
		units[i] = func(tr *tracer) outcome {
			tr.nextReq()
			c, obs, err := runProgram(tr, snap, cfg, p)
			if err != nil {
				return outcome{attempted: 1, failed: 1, key: p.key}
			}
			return outcome{attempted: 1, c: c, key: p.key, obs: obs}
		}
	}
	return units, nil
}

// snapshot boots the template machine every clone starts from.
func snapshot(tr *tracer) (*cheriabi.Snapshot, error) {
	defer tr.begin("kernel.snapshot")()
	return cheriabi.NewSystem(cheriabi.Config{MemBytes: memBytes}).Snapshot()
}

// runProgram runs one program to exit on a fresh clone and reads every
// layer's counters from that machine.
func runProgram(tr *tracer, snap *cheriabi.Snapshot, cfg cheriabi.Config, p program) (counts, observation, error) {
	end := tr.begin("kernel.clone")
	sys := snap.Clone(cfg)
	end()
	end = tr.begin("kernel.install")
	path, err := install(sys, p)
	end()
	if err != nil {
		return counts{}, observation{}, err
	}
	before := sys.Machine.CPU.Stats
	end = tr.begin("kernel.spawn")
	proc, err := sys.Kernel.Spawn(path, append([]string{p.w.Name}, p.w.Args...), nil)
	end()
	if err != nil {
		return counts{}, observation{}, err
	}
	end = tr.begin("kernel.run")
	err = sys.Kernel.RunUntilExit(proc, 0)
	end()
	if err != nil {
		return counts{}, observation{}, err
	}
	obs := observation{Stdout: fnv1a(proc.Stdout.String()), Exit: proc.ExitCode()}
	end = tr.begin("kernel.reap")
	sys.Kernel.Reap(proc)
	end()
	m := sys.Machine
	return counts{
		CPU:     cheriabi.DeltaStats(before, m.CPU.Stats),
		Decode:  m.CPU.DecodeStats,
		L1I:     m.Hier.L1I.Stats(),
		L1D:     m.Hier.L1D.Stats(),
		L2:      m.Hier.L2.Stats(),
		DRAM:    m.Hier.DRAMAccesses(),
		UAccess: m.UA.Stats,
	}, obs, nil
}

func install(sys *cheriabi.System, p program) (string, error) {
	for _, lib := range p.libs {
		if _, err := sys.Install(lib); err != nil {
			return "", err
		}
	}
	return sys.Install(p.exe)
}

func fnv1a(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// The fleet: one echo server and fleetClients client machines, each
// forking fleetConns connection workers that send fleetRequests requests
// apiece, one at a time (a closed loop with 48 connections outstanding).
const (
	fleetClients  = 4
	fleetConns    = 12
	fleetRequests = 64
	fleetTotal    = fleetClients * fleetConns * fleetRequests
)

// setupFleet compiles the load-generator pair and captures the template
// every fleet machine clones. The seed sets both the machine layout and
// the fabric's latency draws. The unit calls driver.RunFleet rather than
// workload.LoadGen, which compiles and boots on every call, so that a
// pass times the fleet run alone.
func setupFleet(seed int64, tr *tracer) ([]unit, error) {
	end := tr.begin("cc.compile")
	server, client, err := workload.LoadGenImages(cheriabi.ABICheri)
	end()
	if err != nil {
		return nil, err
	}
	snap, err := snapshot(tr)
	if err != nil {
		return nil, err
	}
	srvAddr := strconv.FormatUint(fabric.NodeAddr(0), 10)
	nodes := []driver.FleetNode{{
		Exe:  server,
		Argv: []string{"loadgen-server", strconv.Itoa(fleetClients * fleetConns)},
	}}
	for i := 0; i < fleetClients; i++ {
		nodes = append(nodes, driver.FleetNode{
			Exe: client,
			Argv: []string{"loadgen-client", srvAddr,
				strconv.Itoa(fleetConns), strconv.Itoa(fleetRequests), strconv.Itoa(i)},
		})
	}
	cfg := driver.FleetConfig{
		Snapshot: snap,
		Config:   machineConfig(seed),
		Fabric:   fabric.Config{Seed: uint64(seed)},
	}
	return []unit{func(tr *tracer) outcome {
		tr.nextReq()
		o := outcome{attempted: fleetTotal}
		end := tr.begin("driver.run_fleet")
		res, err := driver.RunFleet(cfg, nodes)
		end()
		if err != nil {
			o.failed = fleetTotal
			return o
		}
		var lat []uint64
		for _, n := range res.Nodes {
			if n.ExitCode != 0 || n.Signal != 0 {
				o.failed = fleetTotal
				return o
			}
			if n.Stats.Cycles > o.c.CPU.Cycles {
				o.c.CPU.Cycles = n.Stats.Cycles
			}
			st := n.Stats
			st.Cycles = 0
			addCounts(&o.c, &counts{CPU: st})
			for _, line := range strings.Split(n.Output, "\n") {
				if v, ok := strings.CutPrefix(line, "L "); ok {
					c, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
					if err == nil {
						lat = append(lat, c)
					}
				} else if line != "" {
					o.fleet = append(o.fleet, line)
				}
			}
		}
		o.failed = fleetTotal - min(len(lat), fleetTotal)
		o.c.Requests = uint64(len(lat))
		o.c.FabricPackets = res.Delivered
		o.c.FabricBytes = res.DataBytes
		o.c.LatencyP50 = nearestRank(lat, 50)
		o.c.LatencyP99 = nearestRank(lat, 99)
		return o
	}}, nil
}

// simUS converts simulated cycles to simulated microseconds.
func simUS(cycles uint64) float64 { return float64(cycles) * 1e6 / kernel.ClockHz }
