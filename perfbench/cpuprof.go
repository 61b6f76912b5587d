package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules lists the modules a CPU profile's self samples are
// attributed to, in report order. Functions of internal packages not
// listed here, of the benchmark itself and of the standard library
// (except encoding/json and the runtime) count as "other".
var cpuModules = []string{
	"features", "marvel", "img", "svm", "workcache", "cost",
	"sim", "cell", "core", "spe", "mfc", "eib", "ls", "mainmem", "mbox", "fault",
	"serve", "parallel", "exec", "experiments", "trace", "metrics",
	"json", "runtime", "other",
}

// moduleOf maps a fully qualified Go function name to its module.
func moduleOf(fn string) string {
	const internal = "cellport/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range cpuModules {
			if m == rest {
				return m
			}
		}
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuShares decodes a gzip-compressed pprof CPU profile and returns each
// module's share of the self samples (the innermost frame of each
// sample, inlined frames included).
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		loc   uint64
		count int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location id -> innermost function id
	funcName := map[uint64]int64{} // function id -> string table index
	var strs []string

	err = pbFields(raw, func(f int, v uint64, data []byte) error {
		switch f {
		case 2: // sample
			var s sample
			first := true
			err := pbFields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1: // location_id (innermost first)
					return pbUints(v, data, func(u uint64) {
						if first {
							s.loc, first = u, false
						}
					})
				case 2: // value[0] is the sample count
					n := 0
					return pbUints(v, data, func(u uint64) {
						if n == 0 {
							s.count = int64(u)
						}
						n++
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			haveLine := false
			err := pbFields(data, func(f int, v uint64, data []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return pbFields(data, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	shares := map[string]float64{}
	for _, m := range cpuModules {
		shares[m] = 0
	}
	var total int64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.loc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		shares[moduleOf(name)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= float64(total)
		}
	}
	return shares, nil
}

// pbFields walks one protobuf message, calling fn with each field number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped; pprof uses none that matter here.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints yields the values of a repeated varint field occurrence, packed
// (data != nil) or not.
func pbUints(v uint64, data []byte, yield func(uint64)) error {
	if data == nil {
		yield(v)
		return nil
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(u)
		data = data[n:]
	}
	return nil
}
