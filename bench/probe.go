package main

import "time"

// The host-speed probe. On a shared host the speed of the machine under
// the benchmark drifts by tens of percent over minutes, far more than
// the changes the benchmark must resolve. Every timed interval is
// therefore bracketed by runs of a fixed computation, and its host time
// is reported in normalised seconds: the seconds it would take on a host
// that runs the probe in probeNominalS. The probe is a small register
// machine interpreter over an 8 MiB memory, so it leans on the same host
// resources as the simulator (dispatch branches, loads and stores); it
// allocates nothing, and it never changes, since it is part of the
// benchmark.

// probeNominalS is the probe's duration on the host that normalised
// seconds refer to.
const probeNominalS = 0.025

type probeInst struct {
	op, a, b uint8
	imm      uint64
}

var (
	probeMem  [1 << 20]uint64
	probeProg = func() []probeInst {
		p := make([]probeInst, 1024)
		x := uint64(0x9e3779b97f4a7c15)
		for i := range p {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p[i] = probeInst{op: uint8(x % 8), a: uint8(x>>8) & 15, b: uint8(x>>12) & 15, imm: x >> 20}
		}
		return p
	}()
	probeSink uint64
)

// probeSeconds runs the probe once and returns its host time.
func probeSeconds() float64 {
	start := time.Now()
	var r [16]uint64
	const mask = len(probeMem) - 1
	for it := 0; it < 4000; it++ {
		for _, in := range probeProg {
			switch in.op {
			case 0:
				r[in.a] += r[in.b] + in.imm
			case 1:
				r[in.a] ^= r[in.b] >> 3
			case 2:
				r[in.a] = probeMem[int(r[in.b]+in.imm)&mask]
			case 3:
				probeMem[int(r[in.a]^in.imm)&mask] = r[in.b]
			case 4:
				if r[in.a] < r[in.b] {
					r[in.a], r[in.b] = r[in.b], r[in.a]
				}
			case 5:
				r[in.a] *= r[in.b] | 1
			case 6:
				r[in.a] = r[in.a]<<1 | r[in.a]>>63
			case 7:
				r[in.a] -= r[in.b]
			}
		}
	}
	probeSink += r[0]
	return time.Since(start).Seconds()
}

// probeFunc is the probe's name in a CPU profile, whose samples are not
// the simulator's.
const probeFunc = "main.probeSeconds"

// probeEvery is how much work a pass does between probe runs, in raw
// host seconds; it keeps the probe's share of a run near a fifth.
const probeEvery = 4 * probeNominalS

// probeClock normalises host times. last is the probe run that ended the
// previous interval.
type probeClock struct {
	last   float64
	probes []float64
}

func newProbeClock() *probeClock {
	c := &probeClock{}
	c.last = c.probe()
	return c
}

func (c *probeClock) probe() float64 {
	p := probeSeconds()
	c.probes = append(c.probes, p)
	return p
}

// scale runs the probe and returns the factor that turns raw host
// seconds of the work since its last run into normalised seconds: the
// nominal probe time over the mean of the probe runs either side.
func (c *probeClock) scale() float64 {
	next := c.probe()
	f := probeNominalS / ((c.last + next) / 2)
	c.last = next
	return f
}
