package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public call. Spans of one program run, or of one fleet
// run, share Req.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // spans begun and not yet ended, innermost last
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func nop() {}

// begin opens a span and returns the function that ends it. Spans end in
// the reverse order they began.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return nop
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndNS = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// nextReq starts a new request: the spans that follow share its id.
func (t *tracer) nextReq() {
	if t != nil {
		t.req++
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.EndNS - s.StartNS - covered(s, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of kids clipped to s.
func covered(s span, kids []span) int64 {
	type interval struct{ a, b int64 }
	var iv []interval
	for _, k := range kids {
		if a, b := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS); a < b {
			iv = append(iv, interval{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y interval) int { return cmp.Compare(x.a, y.a) })
	var total int64
	end := int64(math.MinInt64)
	for _, v := range iv {
		if v.b > end {
			total += v.b - max(v.a, end)
			end = v.b
		}
	}
	return total
}

// nearestRank returns the p-th percentile of vals by the nearest-rank
// method: the smallest value with at least p% of vals at or below it.
func nearestRank[T cmp.Ordered](vals []T, p float64) T {
	var zero T
	if len(vals) == 0 {
		return zero
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}
