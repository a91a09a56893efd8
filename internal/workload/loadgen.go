package workload

// The multi-machine load-generator workload: one echo-server machine
// plus N client machines joined by the deterministic network fabric.
// Each client machine forks K connection workers, every worker runs a
// fixed request mix and prints one "L <cycles>" line per request; this
// file builds the fleet, runs it through driver.RunFleet, and aggregates
// the lines into throughput and latency percentiles. The checksum lines
// are functions of the byte streams alone (identical across fabric
// seeds); the latency distribution and the fabric trace hash are
// functions of the seed (identical across same-seed repeats).

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cheriabi"
	"cheriabi/internal/driver"
	"cheriabi/internal/fabric"
	"cheriabi/internal/kernel"
)

// FleetEchoImages compiles the cross-machine echo pair: the poll-driven
// server (argv: expected connection count) and the 512-byte round-trip
// client (argv: server address, rounds, machine id).
func FleetEchoImages(abi cheriabi.ABI) (server, client *cheriabi.Image, err error) {
	server, _, err = cheriabi.Compile(cheriabi.CompileOptions{Name: "echo-server", ABI: abi}, SrcInetFleetServer)
	if err != nil {
		return nil, nil, fmt.Errorf("echo-server: %w", err)
	}
	client, _, err = cheriabi.Compile(cheriabi.CompileOptions{Name: "echo-client", ABI: abi}, SrcInetFleetClient)
	if err != nil {
		return nil, nil, fmt.Errorf("echo-client: %w", err)
	}
	return server, client, nil
}

// LoadGenImages compiles the load-generator pair: the same echo server,
// and the client machine that forks one worker per connection (argv:
// server address, connections, requests per connection, machine id).
func LoadGenImages(abi cheriabi.ABI) (server, client *cheriabi.Image, err error) {
	server, _, err = cheriabi.Compile(cheriabi.CompileOptions{Name: "loadgen-server", ABI: abi}, SrcInetFleetServer)
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen-server: %w", err)
	}
	client, _, err = cheriabi.Compile(cheriabi.CompileOptions{Name: "loadgen-client", ABI: abi}, SrcLoadGenClient)
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen-client: %w", err)
	}
	return server, client, nil
}

// FleetEcho runs the cross-machine echo fleet: one server machine plus
// clients machines, each performing rounds 512-byte round trips through
// the fabric seeded with seed.
func FleetEcho(abi cheriabi.ABI, clients, rounds int, seed uint64) (*driver.FleetResult, error) {
	if clients <= 0 || clients > fleetConns {
		return nil, fmt.Errorf("workload: echo fleet size %d out of range", clients)
	}
	server, client, err := FleetEchoImages(abi)
	if err != nil {
		return nil, err
	}
	srvAddr := strconv.FormatUint(fabric.NodeAddr(0), 10)
	nodes := []driver.FleetNode{{
		Exe:  server,
		Argv: []string{"echo-server", strconv.Itoa(clients)},
	}}
	for i := 0; i < clients; i++ {
		nodes = append(nodes, driver.FleetNode{
			Exe:  client,
			Argv: []string{"echo-client", srvAddr, strconv.Itoa(rounds), strconv.Itoa(i)},
		})
	}
	return driver.RunFleet(driver.FleetConfig{
		Config: cheriabi.Config{MemBytes: memBytes},
		Fabric: fabric.Config{Seed: seed},
	}, nodes)
}

// LoadGenSpec sizes one load-generator fleet run.
type LoadGenSpec struct {
	ABI      cheriabi.ABI
	Clients  int // client machines (the fleet is 1 server + Clients)
	Conns    int // forked connection workers per client machine
	Requests int // requests per connection
	// Seed drives the fabric's latency draws; MachineSeed the per-machine
	// layout perturbation.
	Seed        uint64
	MachineSeed int64
	Budget      uint64 // fleet instruction budget (0 = fabric default)
}

// LoadGenResult aggregates one load-generator run.
type LoadGenResult struct {
	Fleet    *driver.FleetResult
	Requests int    // requests completed (Clients * Conns * Requests)
	P50, P99 uint64 // per-request round-trip latency, simulated cycles
	// Cycles is the fleet makespan: the largest per-machine virtual-time
	// delta, i.e. how long the whole run took in simulated time.
	Cycles uint64
	// RequestsPerSec is Requests over the makespan in simulated seconds.
	RequestsPerSec float64
	// Checksums are the seed-independent summary lines (per-machine
	// response checksums and the server's served-byte total), node order.
	Checksums []string
	// Latencies are every request's round-trip cycles, node order.
	Latencies []uint64
}

// fleetConns bounds Clients*Conns: the server's poll set is one listener
// plus every connection, and must fit the guest's arrays and poll(2)'s
// 64-descriptor cap.
const fleetConns = 48

// LoadGen runs the load-generator fleet: it boots 1+Clients nodes, joins
// them with a seeded fabric, runs every program to completion, and
// aggregates the per-request latency lines. Defaults: 4 clients x 8
// connections x 8 requests.
func LoadGen(spec LoadGenSpec) (*LoadGenResult, error) {
	if spec.Clients <= 0 {
		spec.Clients = 4
	}
	if spec.Conns <= 0 {
		spec.Conns = 8
	}
	if spec.Requests <= 0 {
		spec.Requests = 8
	}
	total := spec.Clients * spec.Conns
	if total > fleetConns {
		return nil, fmt.Errorf("workload: %d connections exceed the fleet bound %d", total, fleetConns)
	}
	server, client, err := LoadGenImages(spec.ABI)
	if err != nil {
		return nil, err
	}
	srvAddr := strconv.FormatUint(fabric.NodeAddr(0), 10)
	nodes := []driver.FleetNode{{
		Exe:  server,
		Argv: []string{"loadgen-server", strconv.Itoa(total)},
	}}
	for i := 0; i < spec.Clients; i++ {
		nodes = append(nodes, driver.FleetNode{
			Exe: client,
			Argv: []string{"loadgen-client", srvAddr,
				strconv.Itoa(spec.Conns), strconv.Itoa(spec.Requests), strconv.Itoa(i)},
		})
	}
	res, err := driver.RunFleet(driver.FleetConfig{
		Config: cheriabi.Config{MemBytes: memBytes, Seed: spec.MachineSeed},
		Fabric: fabric.Config{Seed: spec.Seed},
		Budget: spec.Budget,
	}, nodes)
	if err != nil {
		return nil, err
	}
	out := &LoadGenResult{Fleet: res}
	for i, n := range res.Nodes {
		if n.Signal != 0 || n.ExitCode != 0 {
			return nil, fmt.Errorf("workload: loadgen node %d exited %d signal %d (output %q)",
				i, n.ExitCode, n.Signal, n.Output)
		}
		if n.Stats.Cycles > out.Cycles {
			out.Cycles = n.Stats.Cycles
		}
		for _, line := range strings.Split(n.Output, "\n") {
			if v, ok := strings.CutPrefix(line, "L "); ok {
				c, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("workload: loadgen node %d bad latency line %q", i, line)
				}
				out.Latencies = append(out.Latencies, c)
			} else if line != "" {
				out.Checksums = append(out.Checksums, line)
			}
		}
	}
	out.Requests = len(out.Latencies)
	if want := total * spec.Requests; out.Requests != want {
		return nil, fmt.Errorf("workload: loadgen completed %d requests, want %d", out.Requests, want)
	}
	out.P50 = percentile(out.Latencies, 50)
	out.P99 = percentile(out.Latencies, 99)
	if out.Cycles > 0 {
		out.RequestsPerSec = float64(out.Requests) * kernel.ClockHz / float64(out.Cycles)
	}
	return out, nil
}

// percentile returns the p-th percentile of vals (nearest-rank on a
// sorted copy).
func percentile(vals []uint64, p int) uint64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]uint64(nil), vals...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[(len(s)-1)*p/100]
}
