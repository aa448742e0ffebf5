package mpi

import (
	"fmt"
	"sort"
)

// Comm is a communicator: an ordered group of world ranks with an isolated
// message-matching context. A Comm is immutable once built, so Dup shares
// its parent's group and index.
type Comm struct {
	world *World
	group []int       // comm rank -> world rank
	index map[int]int // world rank -> comm rank; nil for the world communicator, where the two coincide
	cid   int         // context id salting message matching
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// rankOf translates a world rank to its comm rank in constant time —
// every Send and collective starts here; panics if r is not a member.
func (c *Comm) rankOf(r *Rank) int {
	if c.index == nil {
		return r.rank
	}
	if i, ok := c.index[r.rank]; ok {
		return i
	}
	panic(fmt.Sprintf("mpi: rank %d is not in communicator %d", r.rank, c.cid))
}

// Rank returns r's rank within the communicator.
func (c *Comm) Rank(r *Rank) int { return c.rankOf(r) }

// Split partitions the communicator like MPI_Comm_split: ranks with equal
// color land in the same new communicator, ordered by (key, old rank).
// Every member must call Split with its own color and key; each receives
// the communicator for its color. The call synchronizes like a barrier.
//
// Implementation note: the color/key exchange is modelled as an allgather
// of 8-byte entries, which is what MPI implementations do internally.
type splitEntry struct {
	color, key, rank int
}

func (c *Comm) Split(r *Rank, color, key int) *Comm {
	entries := c.Allgather(r, splitEntry{color, key, c.rankOf(r)}, 8)
	var mine []splitEntry
	for _, e := range entries {
		se := e.(splitEntry)
		if se.color == color {
			mine = append(mine, se)
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	group := make([]int, len(mine))
	index := make(map[int]int, len(mine))
	for i, se := range mine {
		group[i] = c.group[se.rank]
		index[group[i]] = i
	}
	// Context ids must agree across members: derive deterministically
	// from the parent cid and color. The world allocator is advanced so
	// future communicators do not collide.
	cid := c.cid*4096 + color + 1
	if cid >= c.world.nextCID {
		c.world.nextCID = cid + 1
	}
	return &Comm{world: c.world, group: group, index: index, cid: cid}
}

// Dup duplicates the communicator with a fresh context (collective).
func (c *Comm) Dup(r *Rank) *Comm {
	c.Barrier(r)
	return &Comm{world: c.world, group: c.group, index: c.index, cid: c.cid*4096 + 4095}
}
