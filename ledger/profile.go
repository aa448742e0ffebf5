package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"regexp"
	"strings"
)

// The CPU profile of the traced passes is folded into flat shares per
// package: the share of samples whose innermost function lives in that
// package. runtime/pprof writes a gzipped profile.proto; the standard
// library has no public reader for it, so the few fields needed are
// decoded here (sample.location_id[0] → location.line[0].function_id →
// function.name → string_table).

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num  int
	val  uint64
	data []byte
}

var errProto = errors.New("ledger: malformed profile")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// pbFields decodes one message's top-level fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, b, err = pbVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := pbVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return nil, errProto
			}
			f.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated uint64 field that may be packed.
func pbUints(f pbField) ([]uint64, error) {
	if f.data == nil {
		return []uint64{f.val}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out, b = append(out, v), rest
	}
	return out, nil
}

// flatByFunction returns the CPU-time samples of a gzipped pprof profile
// summed by innermost function name.
func flatByFunction(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id → string index
	locFunc := map[uint64]uint64{}  // location id → innermost function id
	type sample struct {
		loc uint64
		val float64
	}
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 6: // string_table
			strs = append(strs, string(f.data))
		case 5: // function {id=1, name=2}
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.val
				case 2:
					name = x.val
				}
			}
			funcName[id] = name
		case 4: // location {id=1, line=4 {function_id=1}}; line[0] is the innermost frame
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seen := false
			for _, x := range fs {
				switch {
				case x.num == 1:
					id = x.val
				case x.num == 4 && !seen:
					seen = true
					ls, err := pbFields(x.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fn = l.val
						}
					}
				}
			}
			locFunc[id] = fn
		case 2: // sample {location_id=1, value=2}; the last value is cpu nanoseconds
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s sample
			var haveLoc bool
			for _, x := range fs {
				vs, err := pbUints(x)
				if err != nil {
					return nil, err
				}
				switch x.num {
				case 1:
					if !haveLoc && len(vs) > 0 {
						s.loc, haveLoc = vs[0], true
					}
				case 2:
					if len(vs) > 0 {
						s.val = float64(int64(vs[len(vs)-1]))
					}
				}
			}
			samples = append(samples, s)
		}
	}
	out := map[string]float64{}
	for _, s := range samples {
		idx := funcName[locFunc[s.loc]]
		name := "?"
		if idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[name] += s.val
	}
	return out, nil
}

var (
	runtimeGC    = regexp.MustCompile(`(?i)gc|alloc|scan|mark|sweep|scaveng|madvise|span|mcache|mcentral|mheap|nextfree|newobject|newarray|makeslice|growslice|memclr|wbuf|wbbuf|heapbits|typepointers|greyobject|findobject|bulkbarrier|typedmemmove|unwinder|stkframe|stackmap|adjustframe|copystack|pcvalue|pcdatavalue|findfunc|funcspdelta`)
	runtimeSched = regexp.MustCompile(`(?i)sched|findrunnable|park|ready|futex|chan|select|lock|note|coro|guintptr|mcall|runq|usleep|osyield|wakep|stopm|startm|sema|steal|preempt|gosave|gogo|netpoll|casgstatus|execute|sysmon`)
)

// shareKey maps a function name to the per-layer share it counts
// towards: the repo's packages by name, the Go runtime split into GC and
// allocation (with stack scanning and copying) / scheduler, coroutine
// switch, channels and futexes / the rest, and "other"
// for everything else (standard library, the ledger itself).
func shareKey(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "hpcbd/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		switch pkg {
		case "sim", "exec", "cluster", "transport", "dfs", "rdd", "mapred", "mpi", "ha", "chaos", "workload", "keyhash", "core":
			return pkg
		}
		return "other"
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		switch {
		case runtimeGC.MatchString(rest):
			return "runtime_gc"
		case runtimeSched.MatchString(rest):
			return "runtime_sched"
		}
		return "runtime_other"
	}
	switch {
	case strings.HasPrefix(fn, "iter.Pull"), strings.HasPrefix(fn, "internal/runtime/atomic."):
		// The kernel's coroutine switch: iter.Pull's resume and yield,
		// and the status compare-and-swaps under runtime.coroswitch.
		return "runtime_sched"
	case strings.HasPrefix(fn, "runtime/internal/"), strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime_other"
	}
	return "other"
}

// cpuShares folds a profile into "<key>.cpu_share" metrics summing to 1.
func cpuShares(gz []byte) (map[string]float64, error) {
	flat, err := flatByFunction(gz)
	if err != nil {
		return nil, err
	}
	var total float64
	byKey := map[string]float64{}
	for fn, v := range flat {
		byKey[shareKey(fn)] += v
		total += v
	}
	out := map[string]float64{}
	if total == 0 {
		return out, nil
	}
	for k, v := range byKey {
		out[k+".cpu_share"] = v / total
	}
	return out, nil
}
