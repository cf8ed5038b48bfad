package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// frame is one function of a sampled stack: its qualified name (as pprof
// prints it, e.g. "htmcmp/internal/htm.(*Thread).txLoad") and source file.
type frame struct {
	Name string
	File string
}

// sample is one CPU-profile sample: its stack, innermost frame first with
// inlined calls expanded, and the CPU nanoseconds it stands for.
type sample struct {
	Stack []frame
	Nanos int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields needed to name each sampled stack are read
// (samples, locations, functions, strings); the module carries no
// dependencies, so this is a minimal protobuf reader rather than
// github.com/google/pprof.
func parseCPUProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		strs      []string
		locFuncs  = map[uint64][]uint64{}  // location id -> function ids, innermost first
		funcs     = map[uint64][2]uint64{} // function id -> (name, file) string indexes
		nanoIndex = -1                     // value column holding CPU nanoseconds
		typeIdx   []uint64                 // sample_type units, as string indexes
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 2 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, pb []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendPacked(s.locs, v, pb)
				case 2:
					s.values, err = appendPacked(s.values, v, pb)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			var nf [2]uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					nf[0] = v
				case 4:
					nf[1] = v
				}
				return nil
			})
			funcs[id] = nf
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for i, t := range typeIdx {
		if str(t) == "nanoseconds" {
			nanoIndex = i
		}
	}
	if nanoIndex < 0 {
		return nil, errors.New("profile: no nanoseconds sample column")
	}

	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if nanoIndex >= len(s.values) {
			return nil, errors.New("profile: sample is missing its CPU value")
		}
		var stack []frame
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				nf := funcs[f]
				stack = append(stack, frame{Name: str(nf[0]), File: str(nf[1])})
			}
		}
		out = append(out, sample{Stack: stack, Nanos: int64(s.values[nanoIndex])})
	}
	return out, nil
}

// appendPacked appends a repeated scalar field that arrived either as one
// varint (v) or packed in a length-delimited payload (pb).
func appendPacked(dst []uint64, v uint64, pb []byte) ([]uint64, error) {
	if pb == nil {
		return append(dst, v), nil
	}
	for len(pb) > 0 {
		x, n := binary.Uvarint(pb)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		pb = pb[n:]
	}
	return dst, nil
}

// eachField walks the fields of one protobuf message. Varint fields arrive
// as v with a nil payload; length-delimited fields as a non-nil payload
// (possibly empty); fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			payload := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}
