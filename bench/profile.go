package main

// A decoder for the gzipped profile.proto that runtime/pprof writes,
// reading only what bucketing host time by layer needs: each sample's
// innermost frame and count. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// protoField is one decoded field: v holds a varint or fixed-width
// value, data the bytes of a length-delimited one.
type protoField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

var errTruncated = errors.New("profile: truncated message")

func uvarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// fields calls fn for each field of the message b, in order.
func fields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, n, err := uvarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = uvarint(b); err != nil {
				return err
			}
		case 1, 5:
			n = 8
			if f.wire == 5 {
				n = 4
			}
			if len(b) < n {
				return errTruncated
			}
			for i := n - 1; i >= 0; i-- {
				f.v = f.v<<8 | uint64(b[i])
			}
		case 2:
			l, m, err := uvarint(b)
			if err != nil {
				return err
			}
			if l > uint64(len(b)-m) {
				return errTruncated
			}
			f.data, n = b[m:m+int(l)], m+int(l)
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		b = b[n:]
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uints returns a repeated integer field's values, packed or not.
func uints(f protoField) ([]uint64, error) {
	if f.wire != 2 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// leafCounts decodes a gzipped CPU profile and returns the sample count of
// each innermost function, by name.
func leafCounts(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ leaf, count uint64 }
	var samples []sample
	var strs []string
	locFunc := map[uint64]uint64{}  // location id -> innermost function id
	funcName := map[uint64]uint64{} // function id -> string table index
	err = fields(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample: location_id = 1 (leaf first), value = 2
			var locs, vals []uint64
			err := fields(f.data, func(g protoField) error {
				if g.num != 1 && g.num != 2 {
					return nil
				}
				vs, err := uints(g)
				if g.num == 1 {
					locs = append(locs, vs...)
				} else {
					vals = append(vals, vs...)
				}
				return err
			})
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: vals[0]})
			}
			return err
		case 4: // Location: id = 1, line = 4 (innermost inlined frame first)
			var id, fn uint64
			err := fields(f.data, func(g protoField) error {
				switch {
				case g.num == 1:
					id = g.v
				case g.num == 4 && fn == 0:
					return fields(g.data, func(l protoField) error {
						if l.num == 1 {
							fn = l.v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := fields(f.data, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[locFunc[s.leaf]]; ok && i < uint64(len(strs)) {
			name = strs[i]
		}
		out[name] += int64(s.count)
	}
	return out, nil
}

// profBuckets are the layers host time is attributed to: the simulator's
// internal packages plus the Go runtime; everything else is "other".
var profBuckets = []string{"cpu", "cache", "cap", "mem", "vm", "uaccess", "kernel", "libc", "rtld", "fabric", "runtime", "other"}

// bucketOf maps a function name to its layer.
func bucketOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(fn, "cheriabi/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, b := range profBuckets {
			if b == pkg {
				return b
			}
		}
	}
	return "other"
}

// layerShares returns each bucket's percentage of the profile's samples.
func layerShares(leaves map[string]int64) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for fn, n := range leaves {
		by[bucketOf(fn)] += n
		total += n
	}
	out := make(map[string]float64, len(profBuckets))
	for _, b := range profBuckets {
		out[b] = 100 * float64(by[b]) / float64(max(total, 1))
	}
	return out
}
