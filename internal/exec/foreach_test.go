package exec

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	t.Cleanup(func() { SetForEachWidth(0) })
	for _, width := range []int{0, 1, 2, 4} {
		SetForEachWidth(width)
		const n = 137
		var hits [n]int32
		ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("width=%d: index %d ran %d times", width, i, h)
			}
		}
	}
}

func TestForEachSerialWhenWidthOne(t *testing.T) {
	SetForEachWidth(1)
	defer SetForEachWidth(0)
	// Serial execution must be in-order on the caller's goroutine:
	// appends without synchronization are safe and ordered.
	var order []int
	ForEach(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial ForEach out of order: %v", order)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	ran := false
	ForEach(0, func(int) { ran = true })
	ForEach(-3, func(int) { ran = true })
	if ran {
		t.Fatal("ForEach ran fn for n <= 0")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	// A panicking point must neither hang the width-N run (lost worker,
	// stuck wg.Wait) nor kill the process; the panic with the lowest
	// index must reach the caller at every width, including serial.
	t.Cleanup(func() { SetForEachWidth(0) })
	for _, width := range []int{1, 2, 4, 8} {
		SetForEachWidth(width)
		var ran atomic.Int32
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("width=%d: panic did not propagate", width)
				}
				if r != "point-3" {
					t.Fatalf("width=%d: got panic %v, want point-3 (lowest index)", width, r)
				}
			}()
			ForEach(64, func(i int) {
				ran.Add(1)
				if i == 3 || i == 40 {
					panic(fmt.Sprintf("point-%d", i))
				}
			})
		}()
		if ran.Load() == 0 {
			t.Fatalf("width=%d: nothing ran", width)
		}
	}
}

func TestForEachStopsClaimingAfterPanic(t *testing.T) {
	SetForEachWidth(4)
	defer SetForEachWidth(0)
	var ran atomic.Int32
	func() {
		defer func() { _ = recover() }()
		ForEach(1<<16, func(i int) {
			ran.Add(1)
			if i == 0 {
				panic("early")
			}
			// Each later point takes a little time, so the others cannot
			// drain every point while the worker that panicked is off CPU
			// before its panic is recorded.
			time.Sleep(10 * time.Microsecond)
		})
	}()
	// Workers drain their claimed points and stop: the run must not have
	// churned through anything close to the full 65536 points.
	if n := ran.Load(); n > 1<<12 {
		t.Fatalf("ran %d points after an index-0 panic", n)
	}
}

func TestForEachWidthBounds(t *testing.T) {
	SetForEachWidth(0)
	if w := ForEachWidth(); w < 1 {
		t.Fatalf("ForEachWidth = %d", w)
	}
	SetForEachWidth(3)
	if w := ForEachWidth(); w != 3 {
		t.Fatalf("ForEachWidth override = %d, want 3", w)
	}
	SetForEachWidth(0)
}
