package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuShares reads a gzipped pprof CPU profile and returns each bucket's
// share of the sampled CPU time. A sample goes to the bucket of its
// leaf frame (self time): aqlsched/internal/<pkg> for the listed
// packages, internal_other for the rest of internal/, runtime (GC
// included), syscall, or other.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
	}
	byBucket := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		name := ""
		if len(s.locs) > 0 {
			name = p.leafFunc(s.locs[0])
		}
		b := bucketOf(name, known)
		byBucket[b] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = ratio(float64(byBucket[b]), float64(total))
	}
	return out, nil
}

// bucketOf maps a fully qualified function name to its cpu_share bucket.
func bucketOf(fn string, known map[string]bool) string {
	const internal = "aqlsched/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if known[pkg] {
			return pkg
		}
		return "internal_other"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/runtime/syscall"),
		strings.HasPrefix(fn, "runtime/internal/syscall"):
		return "syscall"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// profile is the part of a pprof profile the buckets need.
type profile struct {
	samples  []profSample
	locFunc  map[uint64]uint64 // location ID → leaf (innermost inlined) function ID
	funcName map[uint64]int64  // function ID → string table index
	strings  []string
}

type profSample struct {
	locs  []uint64
	value int64
}

func (p *profile) leafFunc(loc uint64) string {
	idx, ok := p.funcName[p.locFunc[loc]]
	if !ok || idx < 0 || int(idx) >= len(p.strings) {
		return ""
	}
	return p.strings[idx]
}

// parseProfile decodes the profile.proto fields it needs: samples
// (field 2), locations (4), functions (5) and the string table (6). The
// last sample value is CPU nanoseconds in a Go CPU profile.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := forFields(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s profSample
			var vals []int64
			err := forFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, d)
				case 2:
					for _, x := range appendPacked(nil, w, v, d) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4:
			var id, fn uint64
			first := true
			err := forFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if !first {
						return nil // later lines are the callers it was inlined into
					}
					first = false
					return forFields(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFunc[id] = fn
		case 5:
			var id uint64
			var name int64
			err := forFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field that may be packed.
func appendPacked(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// forFields walks one protobuf message, calling fn with each field's
// number, wire type and value (varint) or payload (length-delimited).
func forFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
