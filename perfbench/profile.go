package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// selfModules are the repository's layers that host_self_pct reports by
// name; samples in any other package of the repository, in the dkf facade
// or in the benchmark's own step code count as "other".
var selfModules = []string{
	"sim", "payload", "pack", "datatype", "layoutcache", "gpu", "fusion",
	"fabric", "mpi", "coll", "rma", "fault", "ckpt",
}

// selfShares reads a CPU profile written by runtime/pprof and returns the
// percentage of its samples that each layer spent, keyed by the names of
// selfModules plus "gc", "runtime" and "other". Samples taken under
// runner.untimed, the per-step work outside the timed step, are left out.
//
// A sample is charged to the innermost frame of this repository on its
// stack, so runtime helpers such as memmove or mallocgc count for the layer
// that called them; a sample under a garbage-collector worker or assist
// counts as gc, and one with no repository frame at all (scheduler, idle
// loops) as runtime.
func selfShares(path string) (map[string]float64, error) {
	stacks, err := readProfile(path)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile %s: %w", path, err)
	}
	counts := map[string]int64{}
	var total int64
	for _, st := range stacks {
		mod, ok := classify(st.frames)
		if !ok {
			continue
		}
		counts[mod] += st.count
		total += st.count
	}
	out := map[string]float64{}
	for _, m := range append(selfModules, "gc", "runtime", "other") {
		if total > 0 {
			out[m] = 100 * float64(counts[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out, nil
}

// classify names the layer a sample's stack (leaf first) is charged to, or
// reports false for a sample to leave out.
func classify(frames []string) (string, bool) {
	for _, f := range frames {
		if f == "main.(*runner).untimed" {
			return "", false
		}
	}
	for _, f := range frames {
		if isGC(f) {
			return "gc", true
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			for _, m := range selfModules {
				if m == mod {
					return m, true
				}
			}
			return "other", true
		}
		if strings.HasPrefix(f, "repro.") || strings.HasPrefix(f, "main.") {
			return "other", true
		}
	}
	return "runtime", true
}

func isGC(f string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.sweepone", "runtime.(*sweepLocked)",
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// stack is one profile sample: its frames, leaf first, and sample count.
type stack struct {
	frames []string
	count  int64
}

// readProfile decodes the gzipped profile.proto that runtime/pprof writes,
// keeping only what attribution needs: each sample's function names with
// inlined frames expanded, and its first value (the sample count).
func readProfile(path string) ([]stack, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcs   = map[uint64]int64{}    // function ID -> name string index
		strs    []string
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendInts(s.locs, v, b)
				case 2:
					if vals := appendInts(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number and either the varint value or the bytes of a
// length-delimited field.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field's values: one varint, or a
// packed run of them.
func appendInts(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
