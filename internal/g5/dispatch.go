package g5

import (
	"sync"

	"repro/internal/hostk"
	"repro/internal/vec"
)

// slot is one staged batch: the caller's i-range and output slices plus
// a private copy of its source list (the Accumulate caller reuses its j
// buffers immediately after submission). The acc and pot slices alias
// the caller's output arrays; distinct batches write disjoint ranges, so
// shards commit results without any reduction step. The SoA layout
// (padding included) is preserved so shard engines see exactly the
// caller's request. The cluster owns a fixed set of slots and recycles
// each one as soon as its batch drains.
type slot struct {
	ipos []vec.V3
	j    hostk.JList
	acc  []vec.V3
	pot  []float64
}

// dispatcher is the cluster's work-stealing dispatch queue: one FIFO
// lane per shard. Batches are round-robined onto the lanes; owners pop
// from the front of their lane (batches stream through a board in
// submission order, the double-buffered SetIP/Run/GetForce cadence),
// and an idle shard steals from the back of the longest lane, where the
// freshest — and least prefetch-committed — work sits. Stealing
// balances by time: the emulated Compute cost is proportional to the
// batch's interaction count, so executed load tracks hardware load.
//
// Stealing is allowed only from a BUSY victim: work queued behind a
// board that is currently draining a batch is genuinely delayed, while
// an idle shard's queue is work its own board is about to start — a
// thief grabbing it would serialise two boards' load onto one. The
// distinction matters most on a host with fewer cores than shards,
// where an idle shard's worker goroutine can be runnable but not yet
// scheduled; without the busy check the running worker would drain
// every lane itself and the simulated critical path would collapse to
// the aggregate.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lanes  [][]*slot
	busy   []bool // shard k's worker is executing a batch
	steals int64
	closed bool
}

func newDispatcher(k int) *dispatcher {
	d := &dispatcher{
		lanes: make([][]*slot, k),
		busy:  make([]bool, k),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// submit appends s to lane k and wakes the workers. A broadcast (not a
// single signal) is required: while lane k's owner is idle no other
// shard may take the batch, and a lone Signal could wake a thief
// instead of the owner.
func (d *dispatcher) submit(k int, s *slot) {
	d.mu.Lock()
	d.lanes[k] = append(d.lanes[k], s)
	d.mu.Unlock()
	d.cond.Broadcast()
}

// next blocks until shard k has work and returns it, or returns nil
// once the dispatcher is closed and k has nothing left to run. The
// shard is marked busy while it executes the returned batch; a waiting
// or finished shard is idle (and wakes its lane's waiters so a thief
// reconsiders).
func (d *dispatcher) next(k int) *slot {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.busy[k] {
		d.busy[k] = false
		// Becoming idle changes what thieves may take; re-examine.
		d.cond.Broadcast()
	}
	for {
		if lane := d.lanes[k]; len(lane) > 0 {
			s := lane[0]
			// Release the popped entry so the lane holds no stale slot.
			lane[0] = nil
			d.lanes[k] = lane[1:]
			d.busy[k] = true
			return s
		}
		victim, best := -1, 0
		for i, lane := range d.lanes {
			if i != k && d.busy[i] && len(lane) > best {
				victim, best = i, len(lane)
			}
		}
		if victim >= 0 {
			lane := d.lanes[victim]
			s := lane[len(lane)-1]
			lane[len(lane)-1] = nil
			d.lanes[victim] = lane[:len(lane)-1]
			d.steals++
			d.busy[k] = true
			return s
		}
		if d.closed {
			return nil
		}
		d.cond.Wait()
	}
}

// Steals returns how many batches ran on a shard other than the one
// they were submitted to.
func (d *dispatcher) Steals() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.steals
}

// close wakes every worker for shutdown; workers drain their remaining
// lanes before exiting.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}
