package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes host CPU time to the simulator's layers
// from a runtime/pprof CPU profile: each sample is charged to the
// package of its leaf frame. Go runtime frames (GC, malloc, maps,
// memmove) are charged to "goruntime"; other standard-library frames
// (sort, container/heap, sync, bytes) are charged to the nearest caller
// that belongs to the repository, so des's event heap counts as des.
// The benchmark's own frames are "bench".
//
// The profile is decoded here, from the protobuf wire format, so the
// benchmark needs nothing beyond the standard library.

// repoPkgPrefix is the import-path prefix of the simulator's layers;
// benchPkg is this package's import path, which its symbols carry when
// built as a test binary (a command's symbols say "main").
const (
	repoPkgPrefix = "github.com/elisa-go/elisa/internal/"
	benchPkg      = "github.com/elisa-go/elisa/perfbench"
)

// layerOfFunc maps a fully qualified function name to the layer it is
// charged to: a package under internal/ by its first path element,
// "bench", "goruntime", or "" for a standard-library frame whose caller
// decides.
func layerOfFunc(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, repoPkgPrefix):
		rest := pkg[len(repoPkgPrefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "main" || pkg == benchPkg:
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "goruntime"
	case strings.Contains(pkg, "."):
		return "other" // a non-standard package outside the layers (the root facade)
	}
	return ""
}

// funcPackage extracts the import path from a function symbol such as
// "github.com/x/y/internal/ept.(*TLB).Lookup" or
// "container/heap.down". Generic instantiations carry type arguments in
// brackets, which may contain dots and slashes; they are cut first.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profileSelfTime decodes a gzipped pprof CPU profile and returns the
// sample count charged to each layer.
func profileSelfTime(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		out[p.layerOfStack(s.locs)] += s.count
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strs      []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // the first sample value (samples/count for CPU profiles)
}

func (p *profile) funcName(id uint64) string {
	i := p.funcNames[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// layerOfStack walks the stack from the leaf outward until a frame
// names its layer.
func (p *profile) layerOfStack(locs []uint64) string {
	for _, loc := range locs {
		for _, fid := range p.locFuncs[loc] {
			if l := layerOfFunc(p.funcName(fid)); l != "" {
				return l
			}
		}
	}
	return "other"
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			first := true
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case fSampleLocation:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return eachVarint(v, packed, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case fProfileStrings:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// eachField calls fn for every field of a protobuf message: varint
// fields pass their value, length-delimited fields their bytes; fixed
// 32/64-bit fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n, err := varint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n, err := varint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[:l]); err != nil {
				return err
			}
			b = b[l:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// eachVarint handles a repeated varint field in either encoding: a
// single unpacked value (packed == nil) or a packed run.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n, err := varint(packed)
		if err != nil {
			return err
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
