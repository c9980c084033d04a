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

// A small decoder for the gzipped profile.proto that runtime/pprof
// writes, just enough to attribute CPU samples to modules: each
// sample's CPU nanoseconds go to the innermost frame of its stack that
// classify names (inlined frames included); a stack with no such frame
// goes to the key "".

// cpuByModule decodes a CPU profile and sums its samples by the module
// classify assigns to each sample's innermost classified frame.
func cpuByModule(gz []byte, classify func(pkg string) string) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		valueType []int64 // string index of each sample type's type
		samples   [][]byte
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]int64{}    // function id -> name string index
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkProto(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					valueType = append(valueType, int64(v))
				}
				return nil
			})
		case 2: // sample
			samples = append(samples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; inlined callees come before their callers
					return walkProto(lb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU value is the sample type whose type is "cpu".
	col := -1
	for i, s := range valueType {
		if s >= 0 && int(s) < len(strs) && strs[s] == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := map[string]int64{}
	for _, sb := range samples {
		var locs []uint64
		var vals []int64
		err := walkProto(sb, func(f int, v uint64, b []byte) error {
			switch f {
			case 1:
				if b == nil {
					locs = append(locs, v)
					return nil
				}
				return walkPacked(b, func(x uint64) { locs = append(locs, x) })
			case 2:
				if b == nil {
					vals = append(vals, int64(v))
					return nil
				}
				return walkPacked(b, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(locs) == 0 || col >= len(vals) {
			continue
		}
		mod := ""
	stack:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if i, ok := funcName[fn]; ok && i >= 0 && int(i) < len(strs) {
					if mod = classify(packageOf(strs[i])); mod != "" {
						break stack
					}
				}
			}
		}
		out[mod] += vals[col]
	}
	return out, nil
}

// packageOf extracts the import path from a symbol name such as
// "repro/internal/lfs.(*LFS).cleanLocked" or "runtime.mallocgc".
func packageOf(sym string) string {
	if sym == "" {
		return "unknown"
	}
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// walkProto calls fn for each field of a protobuf message: varints
// arrive as v with b == nil, length-delimited fields as b (non-nil).
func walkProto(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func walkPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
