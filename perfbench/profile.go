package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profLayers are the packages a CPU profile's samples are charged to.
// Samples whose innermost repository frame is in another package, or in
// the benchmark itself, count as "other"; samples with no repository frame
// at all (the Go scheduler, GC, idle loops of the runtime) count as
// "runtime".
var profLayers = []string{"simtime", "nums", "shm", "fabric", "mpi", "pip", "core", "coll", "bench", "serve", "runtime", "other"}

const internalPrefix = "repro/internal/"

// frameLayer classifies one function name, reporting false for frames
// outside the repository.
func frameLayer(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "other", true
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range profLayers {
		if rest == l && l != "runtime" && l != "other" {
			return l, true
		}
	}
	return "other", true
}

// layerShares reads a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time. Each sample is charged to its innermost
// repository frame, so standard-library leaves such as encoding/binary and
// memmove count against the layer that called them.
func layerShares(gz []byte) (map[string]float64, error) {
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
	charged := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // CPU nanoseconds
		total += v
		charged[p.sampleLayer(s)] += v
	}
	shares := make(map[string]float64, len(profLayers))
	for _, l := range profLayers {
		if total > 0 {
			shares[l] = charged[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares, nil
}

// profile holds the parts of a pprof profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions map[uint64]int64    // function ID -> name string index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) sampleLayer(s sample) string {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			idx, ok := p.functions[fn]
			if !ok || idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			if l, ok := frameLayer(p.strings[idx]); ok {
				return l
			}
		}
	}
	return "runtime"
}

// parseProfile decodes the protobuf fields of profile.proto that
// attribution reads: Profile.sample (2), location (4), function (5) and
// string_table (6); Sample.location_id (1) and value (2); Location.id (1)
// and line (4); Line.function_id (1); Function.id (1) and name (2).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, v, data)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field that arrived either as one
// unpacked value (data nil) or as a packed run.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed profile protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value (data nil) or its length-delimited bytes.
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errBadProto, wire)
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning the bytes consumed (0 if b
// ends early or the value overflows).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
