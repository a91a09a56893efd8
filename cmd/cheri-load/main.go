// Command cheri-load runs the multi-machine load-generator workload: one
// echo-server machine and N client machines joined by the deterministic
// network fabric, every client forking K connection workers that drive a
// fixed 64/256/512/1024-byte request mix. It reports simulated-time
// request throughput, guest-observed latency percentiles in simulated
// cycles, payload bytes moved through the fabric, and the delivery-trace
// hash (the bit-reproducibility witness: same seed, same hash, always).
package main

import (
	"flag"
	"fmt"
	"os"

	"cheriabi"
	"cheriabi/internal/kernel"
	"cheriabi/internal/workload"
)

func main() {
	clients := flag.Int("clients", 4, "client machines (the fleet is 1 server + N clients)")
	conns := flag.Int("conns", 8, "connection workers forked per client machine")
	requests := flag.Int("requests", 8, "requests per connection")
	seed := flag.Uint64("seed", 1, "fabric latency seed")
	machineSeed := flag.Int64("machine-seed", 0, "per-machine layout seed")
	abiFlag := flag.String("abi", "cheriabi", "guest ABI: mips64 or cheriabi")
	flag.Parse()

	abi, err := cheriabi.ParseABI(*abiFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cheri-load:", err)
		os.Exit(2)
	}

	fmt.Printf("Load generator: 1 server + %d clients x %d conns x %d requests (abi=%s, fabric seed %d)\n",
		*clients, *conns, *requests, *abiFlag, *seed)
	res, err := workload.LoadGen(workload.LoadGenSpec{
		ABI:         abi,
		Clients:     *clients,
		Conns:       *conns,
		Requests:    *requests,
		Seed:        *seed,
		MachineSeed: *machineSeed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cheri-load:", err)
		os.Exit(1)
	}

	usPerCycle := 1e6 / float64(kernel.ClockHz)
	fmt.Println()
	fmt.Printf("requests      %d\n", res.Requests)
	fmt.Printf("makespan      %d sim-cycles (%.2f ms simulated)\n",
		res.Cycles, float64(res.Cycles)*usPerCycle/1000)
	fmt.Printf("throughput    %.0f requests/s of simulated time\n", res.RequestsPerSec)
	fmt.Printf("latency p50   %d sim-cycles (%.1f us)\n", res.P50, float64(res.P50)*usPerCycle)
	fmt.Printf("latency p99   %d sim-cycles (%.1f us)\n", res.P99, float64(res.P99)*usPerCycle)
	fmt.Printf("fabric        %d packets delivered, %d payload bytes moved\n",
		res.Fleet.Delivered, res.Fleet.DataBytes)
	fmt.Printf("trace hash    %016x\n", res.Fleet.TraceHash)
	fmt.Println()
	for _, line := range res.Checksums {
		fmt.Println(" ", line)
	}
}
