package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// CPU-profile buckets. Each sample lands in exactly one.
const (
	bucketHandoff = iota // Go runtime channel and scheduler code: process hand-off
	bucketKernel         // internal/sim: event heaps, windows, barriers
	bucketModel          // core, wiss, rel, nose, disk: the machine model
	bucketOther          // everything else (GC workers, the benchmark itself)
	nBuckets
)

// handoffFuncs are the runtime functions that move control between
// goroutines. A sample whose runtime frames (those below the first
// non-runtime frame) include one of them is hand-off time.
var handoffFuncs = map[string]bool{
	"chansend": true, "chansend1": true, "chanrecv": true, "chanrecv1": true, "chanrecv2": true,
	"selectgo": true, "send": true, "recv": true, "gopark": true, "goparkunlock": true,
	"goready": true, "ready": true, "park_m": true, "schedule": true, "findRunnable": true,
	"casgstatus": true, "mcall": true, "execute": true, "gogo": true, "goexit0": true,
	"runqget": true, "runqput": true, "runqgrab": true, "runqsteal": true, "wakep": true,
	"startm": true, "stopm": true, "handoffp": true, "acquireSudog": true, "releaseSudog": true,
	"newproc": true, "newproc1": true, "gfget": true, "gfput": true,
}

// cpuProfile is a CPU profile reduced to bucket sample counts.
type cpuProfile struct {
	buckets [nBuckets]int64
	total   int64
}

func (p cpuProfile) share(b int) float64 { return ratio(float64(p.buckets[b]), float64(p.total)) }

// profileRounds runs f under the runtime CPU profiler and buckets the samples.
func profileRounds(f func()) (cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		f()
		return cpuProfile{}, err
	}
	f()
	pprof.StopCPUProfile()
	return bucketProfile(&buf)
}

// bucketProfile decodes a gzipped profile.proto CPU profile.
func bucketProfile(r io.Reader) (cpuProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return cpuProfile{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuProfile{}, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					values = appendPacked(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuProfile{}, err
	}
	var p cpuProfile
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.buckets[classify(stack)] += s.count
		p.total += s.count
	}
	return p, nil
}

// classify assigns a stack (leaf first) to a bucket: hand-off if its
// runtime frames include a hand-off function, otherwise the layer of its
// innermost repository frame.
func classify(stack []string) int {
	for _, fn := range stack {
		name, ok := strings.CutPrefix(fn, "runtime.")
		if !ok {
			break
		}
		if handoffFuncs[name] {
			return bucketHandoff
		}
	}
	for _, fn := range stack {
		pkg, ok := strings.CutPrefix(fn, "gamma/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "sim":
			return bucketKernel
		case "core", "wiss", "rel", "nose", "disk":
			return bucketModel
		}
		return bucketOther
	}
	return bucketOther
}

// eachField walks the fields of one protobuf message, passing varints in v
// and length-delimited payloads in b.
func eachField(msg []byte, f func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := f(field, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v) or
// packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
