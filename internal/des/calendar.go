package des

import "math"

// calendar is the pending-event store: a calendar queue (Brown 1988)
// giving amortised O(1) insert and pop-min at high event counts, against
// the O(log n) of the container/heap implementation it replaced.
//
// Events hash into year-cyclic buckets by timestamp (bucket = virtual
// bucket number mod the bucket count, virtual bucket = floor(at/width)).
// Each bucket is kept sorted by (at, seq) DESCENDING so the bucket's
// minimum sits at the end of the slice and pops are O(1) slice shrinks.
// Ordering is therefore exact — pops come out in precisely the (at, seq)
// order the heap produced, including FIFO ties at equal timestamps — and
// the calendar layout only decides how much scanning finds the minimum.
//
// The structure self-tunes deterministically: the bucket array doubles or
// halves with the population, and the bucket width is resampled from the
// live event span whenever a full-year scan misses (rate-limited so
// redistribution stays amortised O(1) per operation). All decisions are
// pure functions of the event sequence, so identical runs produce
// identical layouts — though results never depend on the layout anyway.
type calendar struct {
	buckets [][]*item
	mask    int64
	// perWidth is the reciprocal of the bucket width: vbOf multiplies by
	// it instead of dividing by the width. Both maps are monotone in the
	// timestamp, which is all the scan needs, so the pop order is the same.
	perWidth float64
	// vbCur is the virtual bucket of the calendar's current position: the
	// canonical scan start. The owner advances it (advanceTo) as the
	// simulation clock moves; because every schedulable timestamp is >= the
	// clock, no stored item ever has a virtual bucket below it. It must
	// NOT be advanced to popped-but-cancelled timestamps ahead of the
	// clock — later inserts may land below them.
	vbCur int64
	// startAt is the timestamp the position was derived from, used to
	// re-derive vbCur across resizes.
	startAt Time

	total     int // items stored, cancelled included
	live      int // uncancelled items
	cancelled int // cancelled-but-unreaped items

	// sincePopResample counts pops since the last redistribution and
	// rate-limits direct-search width resampling: one may only happen
	// after at least total pops since the previous rebuild, so
	// pathological spacings cost amortised O(1) extra per pop.
	sincePopResample int

	// spill holds the items while redistribute re-files them; it is
	// emptied afterwards and kept for the next rebuild.
	spill []*item
}

const (
	minBuckets = 8
	// maxVB clamps virtual bucket numbers so far-future (or +Inf)
	// timestamps cannot overflow int64 arithmetic. All clamped items share
	// one bucket, where exact (at, seq) comparison still orders them.
	maxVB = int64(1) << 61
)

// less is the strict event order: time, then scheduling sequence.
func less(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *calendar) init() {
	c.buckets = make([][]*item, minBuckets)
	c.mask = minBuckets - 1
	c.perWidth = 1
}

// vbOf maps a timestamp to its virtual bucket under the current width.
func (c *calendar) vbOf(at Time) int64 {
	q := at * c.perWidth
	if q >= float64(maxVB) || math.IsInf(q, 1) {
		return maxVB
	}
	return int64(q)
}

// insert files an item by timestamp, keeping its bucket sorted.
func (c *calendar) insert(it *item) {
	if c.buckets == nil {
		c.init()
	}
	idx := int(c.vbOf(it.at) & c.mask)
	b := c.buckets[idx]
	// Binary search for the insertion point in descending (at, seq) order:
	// lo becomes the first position whose item sorts before it.
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(b[mid], it) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	b = append(b, nil)
	copy(b[lo+1:], b[lo:])
	b[lo] = it
	c.buckets[idx] = b
	it.queued = true
	c.total++
	c.live++
	if c.total > 2*len(c.buckets) {
		c.resize(2 * len(c.buckets))
	}
}

// findMin locates the earliest item (cancelled included — they share the
// ordering until reaped) and returns it with its bucket index, without
// removing it. It returns (nil, -1) when the calendar is empty.
//
// The scan starts at the canonical position and visits each bucket once;
// an item whose virtual bucket matches the scan year is the global
// minimum (items in earlier years would have violated the position
// invariant, items in later years map to later scan steps). A full-cycle
// miss means every item is at least a year ahead of the position, so a
// direct search over bucket minima resolves the minimum exactly.
func (c *calendar) findMin() (*item, int) {
	if c.total == 0 {
		return nil, -1
	}
	nb := int64(len(c.buckets))
	for i := int64(0); i < nb; i++ {
		vb := c.vbCur + i
		idx := int(vb & c.mask)
		b := c.buckets[idx]
		if n := len(b); n > 0 {
			it := b[n-1]
			if c.vbOf(it.at) == vb {
				return it, idx
			}
		}
	}
	// Direct search: the population is sparse relative to the bucket
	// width. Resample the width (rate-limited) so subsequent pops scan
	// locally again.
	if c.sincePopResample >= c.total && c.total >= 4 {
		c.redistribute(len(c.buckets), c.sampleWidth())
	}
	var best *item
	bestIdx := -1
	for idx, b := range c.buckets {
		if n := len(b); n > 0 {
			if it := b[n-1]; best == nil || less(it, best) {
				best, bestIdx = it, idx
			}
		}
	}
	return best, bestIdx
}

// removeMin detaches the item found by findMin.
func (c *calendar) removeMin(it *item, idx int) {
	b := c.buckets[idx]
	n := len(b) - 1
	b[n] = nil
	c.buckets[idx] = b[:n]
	c.total--
	if it.cancelled {
		c.cancelled--
	} else {
		c.live--
	}
	it.queued = false
	c.sincePopResample++
	if c.total < len(c.buckets)/4 && len(c.buckets) > minBuckets {
		c.resize(len(c.buckets) / 2)
	}
}

// advanceTo moves the canonical scan position to the simulation clock.
// The clock is a lower bound on every stored and every future timestamp,
// so this is the latest position that keeps the scan correct (advancing
// to a popped cancelled item's time instead would overshoot: the clock
// has not reached it, and a later insert may be earlier).
func (c *calendar) advanceTo(at Time) {
	if at > c.startAt {
		c.startAt = at
		c.vbCur = c.vbOf(at)
	}
}

// popMin removes and returns the earliest item, or nil when empty.
func (c *calendar) popMin() *item {
	it, idx := c.findMin()
	if it == nil {
		return nil
	}
	c.removeMin(it, idx)
	return it
}

// noteCancelled moves one item from the live to the cancelled tally.
func (c *calendar) noteCancelled() {
	c.live--
	c.cancelled++
}

// needsReap reports whether cancelled-but-unpopped items exceed half the
// stored entries — the trigger for compacting them out instead of letting
// them linger until popped (which inflates memory in cancel-heavy runs).
// A reap costs O(total) and removes more than total/2 items, so reaping
// at this threshold is amortised O(1) per cancellation. Queues of a
// handful of entries stay lazy: reaping recycles the entries, and at
// that size there is no memory to reclaim.
func (c *calendar) needsReap() bool {
	return c.cancelled >= 8 && c.cancelled > c.live
}

// reap removes every cancelled item in place, preserving bucket order,
// and hands each to release for recycling.
func (c *calendar) reap(release func(*item)) {
	for idx, b := range c.buckets {
		out := b[:0]
		for _, it := range b {
			if it.cancelled {
				it.queued = false
				release(it)
				continue
			}
			out = append(out, it)
		}
		for j := len(out); j < len(b); j++ {
			b[j] = nil
		}
		c.buckets[idx] = out
	}
	c.total -= c.cancelled
	c.cancelled = 0
}

// sampleWidth derives a bucket width from the stored span so the average
// bucket holds O(1) items. Without this both failure modes of a fixed
// width appear: events far denser than the width pile into one bucket
// (degenerating to a sorted array), and events far sparser force a full
// scan plus direct search on every pop.
func (c *calendar) sampleWidth() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, b := range c.buckets {
		for _, it := range b {
			if it.at < lo {
				lo = it.at
			}
			if it.at > hi && !math.IsInf(it.at, 1) {
				hi = it.at
			}
		}
	}
	w := 1.0
	if hi > lo && c.total > 1 {
		w = (hi - lo) / float64(c.total)
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) || math.IsInf(1/w, 0) {
		w = 1
	}
	return w
}

// resize rebuilds the calendar with nb buckets and a freshly sampled
// width (Brown's calendar queue resamples on every resize, which is what
// keeps the width tracking the event density as the population changes).
func (c *calendar) resize(nb int) {
	c.redistribute(nb, c.sampleWidth())
}

// redistribute rebuilds the bucket array at the given size and width,
// re-filing every item. Cost O(total), amortised by the triggering
// thresholds. It reuses storage: the bucket arrays are emptied in place
// and kept, including those beyond nb after a shrink (the bucket slice is
// only resliced), so a calendar that grows and shrinks repeatedly
// allocates nothing once its arrays have reached their peak sizes. Bucket
// order is exact (at, seq), so the order items are re-filed in does not
// matter.
func (c *calendar) redistribute(nb int, width float64) {
	items := c.spill[:0]
	for idx, b := range c.buckets {
		items = append(items, b...)
		clear(b)
		c.buckets[idx] = b[:0]
	}
	if nb <= cap(c.buckets) {
		c.buckets = c.buckets[:nb]
	} else {
		grown := make([][]*item, nb)
		copy(grown, c.buckets[:cap(c.buckets)])
		c.buckets = grown
	}
	c.mask = int64(nb) - 1
	c.perWidth = 1 / width
	c.vbCur = c.vbOf(c.startAt)
	total, live, cancelled := c.total, c.live, c.cancelled
	c.total, c.live, c.cancelled = 0, 0, 0
	for _, it := range items {
		wasCancelled := it.cancelled
		c.insert(it)
		if wasCancelled {
			c.noteCancelled()
		}
	}
	// insert() recounts as it re-files; the tallies must round-trip.
	if c.total != total || c.live != live || c.cancelled != cancelled {
		panic("des: calendar redistribute lost items")
	}
	clear(items)
	c.spill = items[:0]
	c.sincePopResample = 0
}
