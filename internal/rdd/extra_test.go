package rdd

import (
	"testing"

	"hpcbd/internal/sim"
)

func TestTakeScansMinimalPartitions(t *testing.T) {
	reads := 0
	var got []int
	app(2, DefaultConfig(), func(p *sim.Proc, ctx *Context) {
		src := FromSource(ctx, "src", 10, nil, func(tv TaskView, part int) []int {
			reads++
			return []int{part * 10, part*10 + 1}
		}, 8)
		var err error
		got, err = Take(p, src, 3)
		if err != nil {
			t.Error(err)
		}
	})
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 10 {
		t.Errorf("take got %v", got)
	}
	if reads > 2 {
		t.Errorf("take scanned %d partitions, want <= 2", reads)
	}
}

func TestCoalesceConcatenatesWithoutShuffle(t *testing.T) {
	ctx, _ := app(2, DefaultConfig(), func(p *sim.Proc, ctx *Context) {
		r := Parallelize(ctx, "data", ints(100), 8, 8)
		c := Coalesce(r, 3)
		if c.NumPartitions() != 3 {
			t.Errorf("partitions %d", c.NumPartitions())
		}
		n, err := Count(p, c)
		if err != nil || n != 100 {
			t.Errorf("count %d err %v", n, err)
		}
	})
	if ctx.nextShuf != 0 {
		t.Errorf("coalesce created %d shuffles", ctx.nextShuf)
	}
}

func TestCountByKey(t *testing.T) {
	var got map[int]int64
	app(2, DefaultConfig(), func(p *sim.Proc, ctx *Context) {
		r := Parallelize(ctx, "data", ints(90), 6, 8)
		pairs := Map(r, func(v int) KV[int, int] { return KV[int, int]{v % 3, v} })
		var err error
		got, err = CountByKey(p, pairs)
		if err != nil {
			t.Error(err)
		}
	})
	for k := 0; k < 3; k++ {
		if got[k] != 30 {
			t.Errorf("key %d count %d, want 30", k, got[k])
		}
	}
}
