package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile the harness takes of a traced pass and
// attributes every sample to one layer. The profile is pprof's gzipped
// protocol buffer; only the four messages needed to recover symbolized
// stacks are decoded, with the standard library alone.

// stackSample is one profile sample: its frames' function names, leaf
// first, and its weight.
type stackSample struct {
	Frames []string
	Weight int64
}

// field is one protobuf field: a varint value or a length-delimited body.
type field struct {
	num  int
	val  uint64
	body []byte
}

var errTruncated = errors.New("truncated protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// fields walks one message, calling fn for each field.
func fields(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := field{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return errTruncated
			}
			f.body, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d not supported", key&7)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedUint reads a repeated integer field, packed or not.
func repeatedUint(f field, into []uint64) ([]uint64, error) {
	if f.body == nil {
		return append(into, f.val), nil
	}
	b := f.body
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// parseProfile decodes a gzipped pprof profile into its samples. A
// sample's weight is its last value, which for a CPU profile is
// nanoseconds of CPU.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string-table index
	var strs []string

	err = fields(raw, func(f field) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := fields(f.body, func(sf field) (err error) {
				switch sf.num {
				case 1:
					s.locs, err = repeatedUint(sf, s.locs)
				case 2:
					s.values, err = repeatedUint(sf, s.values)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(f.body, func(lf field) error {
				switch lf.num {
				case 1:
					id = lf.val
				case 4: // Line
					return fields(lf.body, func(ln field) error {
						if ln.num == 1 {
							fns = append(fns, ln.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(f.body, func(ff field) error {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.body))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{Weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.Frames = append(st.Frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// ownLayers are the repository packages with a bucket of their own; any
// other plasma/ package lands in "other".
var ownLayers = map[string]bool{
	"graph": true, "sim": true, "cluster": true, "actor": true, "profile": true,
	"epl": true, "emr": true, "trace": true, "apps": true,
}

// frameLayer names the layer that owns a function, or "" for the Go
// runtime and standard library.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "harness"
	}
	rest, ok := strings.CutPrefix(fn, "plasma/internal/")
	if !ok {
		if strings.HasPrefix(fn, "plasma/") {
			return "other"
		}
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		pkg = rest[:i]
	}
	if ownLayers[pkg] {
		return pkg
	}
	return "other"
}

// stackLayer attributes a stack, leaf first, to the innermost frame that a
// layer or the harness owns: map, malloc and memclr time lands on whoever
// asked for it. A stack nobody owns is the runtime's own background work,
// which on these workloads is the garbage collector.
func stackLayer(frames []string) string {
	for _, fn := range frames {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "runtime.gc"
}

// yardstickFrame marks the samples taken while the harness timed its own
// fixed work between slices: they are no part of the workload.
const yardstickFrame = "main.(*yardstick).burst"

// cpuShares buckets the workload's samples by layer. The shares sum to 1.
func cpuShares(samples []stackSample) map[string]float64 {
	by := map[string]int64{}
	var total int64
sample:
	for _, s := range samples {
		for _, fn := range s.Frames {
			if fn == yardstickFrame {
				continue sample
			}
		}
		by[stackLayer(s.Frames)] += s.Weight
		total += s.Weight
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = float64(by[l]) / float64(total)
		}
	}
	return out
}
