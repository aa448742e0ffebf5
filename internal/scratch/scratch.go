// Package scratch provides sync.Pool-backed scratch buffers for the
// shuffle hot paths of the rdd and mapred engines and for the small
// payloads of the MPI reduction collectives. The mpi package keeps
// snapshots above 64 KiB (8,192 float64s) out of this pool, on a free
// list owned by each MPI world: a pool's victim cache keeps what it holds
// alive through the next GC, and megabyte buffers held there raised the
// heap goal of whatever ran next.
//
// The shuffle rewrites (two-pass bucketize, open-addressing combiners,
// hash-cached sorts) all need transient integer arrays — per-record
// hashes, per-bucket counts, probe tables — whose lifetimes end inside
// one payload. Generic code cannot hang a sync.Pool per type
// instantiation off package scope, so all scratch is concrete-typed
// ([]uint64, []int32, []float64) and shared here. Payloads run
// concurrently on the host worker pool, which is exactly what sync.Pool
// is safe for; buffers are fully (re)initialized by their users, so reuse
// cannot leak state between payloads, and pooling therefore cannot affect
// determinism.
package scratch

import "sync"

var u64Pool = sync.Pool{New: func() any { return new([]uint64) }}
var i32Pool = sync.Pool{New: func() any { return new([]int32) }}
var f64Pool = sync.Pool{New: func() any { return new([]float64) }}

// U64 returns a length-n uint64 buffer with arbitrary contents.
// Release with PutU64.
func U64(n int) *[]uint64 {
	p := u64Pool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	*p = (*p)[:n]
	return p
}

// PutU64 returns a buffer to the pool.
func PutU64(p *[]uint64) { u64Pool.Put(p) }

// I32 returns a length-n int32 buffer with arbitrary contents.
// Release with PutI32.
func I32(n int) *[]int32 {
	p := i32Pool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return p
}

// I32Zero returns a length-n int32 buffer of zeros.
func I32Zero(n int) *[]int32 {
	p := I32(n)
	clear(*p)
	return p
}

// I32Fill returns a length-n int32 buffer filled with v (the -1 "empty"
// marker of the open-addressing tables).
func I32Fill(n int, v int32) *[]int32 {
	p := I32(n)
	s := *p
	for i := range s {
		s[i] = v
	}
	return p
}

// PutI32 returns a buffer to the pool.
func PutI32(p *[]int32) { i32Pool.Put(p) }

// F64 returns a length-n float64 buffer with arbitrary contents.
// Release with PutF64.
func F64(n int) *[]float64 {
	p := f64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// PutF64 returns a buffer to the pool.
func PutF64(p *[]float64) { f64Pool.Put(p) }

// TableSize returns the open-addressing table size for n entries: the
// smallest power of two >= 2n (load factor <= 0.5), minimum 8.
func TableSize(n int) int {
	sz := 8
	for sz < 2*n {
		sz <<= 1
	}
	return sz
}
