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

// CPU profiles are folded by the layer that burned each sample. The profile
// is decoded here, from the protocol-buffer encoding runtime/pprof writes,
// so the benchmark needs neither a pprof module nor an external process.

// cpuProfile is the part of a pprof profile the folding needs: each sample's
// stack as function names, leaf first, with its CPU nanoseconds.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack []string // function names, leaf first
	nanos int64
}

// parseCPUProfile decodes a (gzip-compressed) CPU profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
		valueIdx  = -1 // index of the cpu/nanoseconds value
		types     [][2]int64
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, bb)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, bb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range types {
		if t[0] >= 0 && t[0] < int64(len(strs)) && strs[t[0]] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	p := &cpuProfile{samples: make([]cpuSample, 0, len(samples))}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without cpu value")
		}
		cs := cpuSample{nanos: s.values[valueIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := ""
				if si, ok := funcNames[fn]; ok && si >= 0 && si < int64(len(strs)) {
					name = strs[si]
				}
				cs.stack = append(cs.stack, name)
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// eachField walks one protocol-buffer message, calling fn per field with its
// number, wire type, varint value (wire types 0, 1 and 5) or payload (type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// unpacked element, or a packed run.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

const modulePath = "github.com/hybridmig/hybridmig"

// funcPackage returns the import path of a profiled function's package.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 { // generic instantiation
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// isRuntimePackage reports whether a package belongs to the Go runtime
// proper rather than to the standard library above it.
func isRuntimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg" ||
		pkg == "sync/atomic" || pkg == "internal/sync"
}

// Frames that mark a runtime sample as garbage-collector or scheduler work.
// A sample is gc when any frame of its stack is a gc frame (allocation,
// assists, mark and sweep workers), else sched when any frame is a scheduler
// frame (channel operations, parking, scheduling, futex and lock waits).
var (
	gcFrames = []string{
		"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
		"runtime.gcDrain", "runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.sweepone", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
		"runtime.bulkBarrierPreWrite", "runtime.growslice", "runtime.newobject",
		"runtime.makeslice", "runtime.(*mheap)", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*sweepLocked)",
		"runtime.(*scavengerState)", "runtime.greyobject", "runtime.findObject",
	}
	schedFrames = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.schedule", "runtime.findRunnable",
		"runtime.park_m", "runtime.mcall", "runtime.futex", "runtime.lock2",
		"runtime.unlock2", "runtime.notesleep", "runtime.notewakeup", "runtime.stopm",
		"runtime.startm", "runtime.wakep", "runtime.runqgrab", "runtime.runqsteal",
		"runtime.goschedImpl", "runtime.gosched_m", "runtime.execute", "runtime.gogo",
		"runtime.newproc", "runtime.goexit0", "runtime.usleep", "runtime.osyield",
		"runtime.procyield", "runtime.semacquire", "runtime.semrelease", "runtime.netpoll",
		"runtime.checkTimers", "runtime.send", "runtime.recv", "runtime.closechan",
	}
)

func hasFrame(stack []string, marks []string) bool {
	for _, f := range stack {
		for _, m := range marks {
			if strings.HasPrefix(f, m) {
				return true
			}
		}
	}
	return false
}

// layerOf names the layer a sample's CPU time is charged to: the package of
// the leaf frame for the repository's own packages ("flow", "sim", ...),
// "runtime.gc", "runtime.sched" or "runtime.other" for runtime frames (split
// by stack), "bench" for the benchmark itself and "stdlib" for the rest of
// the standard library.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "runtime.other"
	}
	pkg := funcPackage(stack[0])
	switch {
	case isRuntimePackage(pkg):
		switch {
		case hasFrame(stack, gcFrames):
			return "runtime.gc"
		case hasFrame(stack, schedFrames):
			return "runtime.sched"
		}
		return "runtime.other"
	case pkg == "main" || pkg == modulePath+"/benchmark": // this benchmark, or its test binary
		return "bench"
	case strings.HasPrefix(pkg, modulePath+"/internal/"):
		layer := strings.TrimPrefix(pkg, modulePath+"/internal/")
		if i := strings.IndexByte(layer, '/'); i >= 0 { // strategy/adaptive -> strategy
			layer = layer[:i]
		}
		return layer
	case pkg == modulePath:
		return "facade"
	}
	return "stdlib"
}

// foldByLayer sums a profile's CPU seconds per layer.
func foldByLayer(p *cpuProfile) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		out[layerOf(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}
