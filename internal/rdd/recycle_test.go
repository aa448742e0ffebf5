package rdd

import (
	"slices"
	"testing"

	"hpcbd/internal/cluster"
	"hpcbd/internal/sim"
)

// TestTakeBuf checks the free list's best fit: the smallest buffer that
// covers want, and nil with the list unchanged when none does.
func TestTakeBuf(t *testing.T) {
	ctx := NewContext(cluster.Comet(sim.NewKernel(1), 1), DefaultConfig())
	p := poolOf[int](ctx)
	for _, c := range []int{8, 64, 16, 32} {
		*p = append(*p, make([]int, 3, c))
	}
	caps := func() []int {
		var out []int
		for _, b := range *p {
			out = append(out, cap(b))
		}
		return out
	}

	b := takeBuf[int](ctx, 20)
	if cap(b) != 32 || len(b) != 0 {
		t.Fatalf("takeBuf(20) = len %d cap %d, want len 0 cap 32", len(b), cap(b))
	}
	if got := caps(); !slices.Equal(got, []int{8, 64, 16}) {
		t.Fatalf("after takeBuf(20) the list holds caps %v, want [8 64 16]", got)
	}
	if b := takeBuf[int](ctx, 100); b != nil {
		t.Fatalf("takeBuf(100) = cap %d, want nil", cap(b))
	}
	if got := caps(); !slices.Equal(got, []int{8, 64, 16}) {
		t.Fatalf("after takeBuf(100) the list holds caps %v, want it unchanged", got)
	}
	if b := takeBuf[int](ctx, 0); cap(b) != 8 {
		t.Fatalf("takeBuf(0) = cap %d, want the smallest, 8", cap(b))
	}
	if b := takeBuf[string](ctx, 1); b != nil {
		t.Fatalf("takeBuf on an empty list = cap %d, want nil", cap(b))
	}
}
