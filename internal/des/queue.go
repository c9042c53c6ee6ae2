package des

// eventQueue is the pending-event store: a 4-ary min-heap on (at, seq).
// Each slot holds its item's key inline, so sifting compares slots
// without dereferencing items. seq is unique, so (at, seq) is a strict
// total order and any correct priority queue pops the same sequence,
// with FIFO order at equal timestamps.
//
// Cancellation is lazy: a cancelled item keeps its slot, and is counted,
// until it is popped or reaped.
type eventQueue struct {
	heap      []slot // every stored item, cancelled included
	live      int    // uncancelled items
	cancelled int    // cancelled-but-unreaped items
}

// slot is one heap entry: the item and its ordering key.
type slot struct {
	at  Time
	seq uint64
	it  *item
}

// before is the strict event order: time, then scheduling sequence.
func (a slot) before(b slot) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// insert files it under the key (at, seq).
func (q *eventQueue) insert(at Time, seq uint64, it *item) {
	it.queued = true
	q.live++
	q.heap = append(q.heap, slot{at, seq, it})
	q.up(len(q.heap) - 1)
}

// popMin removes the earliest item (cancelled included) and returns it
// with its time, or a nil item when the queue is empty.
func (q *eventQueue) popMin() (Time, *item) {
	n := len(q.heap) - 1
	if n < 0 {
		return 0, nil
	}
	top := q.heap[0]
	q.heap[0] = q.heap[n]
	q.heap[n] = slot{}
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	if top.it.cancelled {
		q.cancelled--
	} else {
		q.live--
	}
	top.it.queued = false
	return top.at, top.it
}

// noteCancelled moves one item from the live to the cancelled tally.
func (q *eventQueue) noteCancelled() {
	q.live--
	q.cancelled++
}

// needsReap reports whether cancelled-but-unpopped items exceed half the
// stored entries — the trigger for compacting them out instead of letting
// them linger until popped (which inflates memory in cancel-heavy runs).
// A reap costs O(total) and removes more than total/2 items, so reaping
// at this threshold is amortised O(1) per cancellation. Queues of a
// handful of entries stay lazy: reaping recycles the entries, and at
// that size there is no memory to reclaim.
func (q *eventQueue) needsReap() bool {
	return q.cancelled >= 8 && q.cancelled > q.live
}

// reap removes every cancelled item, hands each to release for
// recycling, and restores the heap order over the survivors.
func (q *eventQueue) reap(release func(*item)) {
	out := q.heap[:0]
	for _, s := range q.heap {
		if s.it.cancelled {
			s.it.queued = false
			release(s.it)
			continue
		}
		out = append(out, s)
	}
	clear(q.heap[len(out):])
	q.heap = out
	q.cancelled = 0
	// Heapify from the last parent, (len-2)/4 rounded down, to the root.
	for i := (len(out)+2)/4 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// up moves the slot at i towards the root until its parent is earlier.
func (q *eventQueue) up(i int) {
	h := q.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down moves the slot at i towards the leaves until no child is earlier.
func (q *eventQueue) down(i int) {
	h := q.heap
	x := h[i]
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < len(h); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
