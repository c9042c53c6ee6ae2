package trace

// Capped is a bounded append buffer with a drop counter. Unlike Ring,
// which overwrites its oldest entries to retain the newest, Capped
// rejects appends once full and counts what it turned away. Keep-oldest
// is the right policy for hierarchical data — a span tree, for one —
// where the earliest entries carry the structure everything later hangs
// off: evicting a root to admit a leaf would orphan the whole subtree.
//
// Capped is not safe for concurrent use on its own; callers that share
// one across goroutines hold their own lock (span.Trace does).
type Capped[T any] struct {
	cap     int
	buf     []T
	dropped uint64
}

// NewCapped creates a buffer retaining up to capacity items. Capacity
// must be positive.
func NewCapped[T any](capacity int) *Capped[T] {
	if capacity <= 0 {
		panic("trace: capped capacity must be positive")
	}
	return &Capped[T]{cap: capacity}
}

// Append stores v if there is room and reports whether it was kept.
// A rejected item increments the drop counter.
func (c *Capped[T]) Append(v T) bool {
	if len(c.buf) >= c.cap {
		c.dropped++
		return false
	}
	c.buf = append(c.buf, v)
	return true
}

// NoteDrops folds n externally observed drops (for example a remote
// buffer's) into the counter without storing anything.
func (c *Capped[T]) NoteDrops(n uint64) { c.dropped += n }

// Dropped returns how many appends were rejected, plus any drops folded
// in via NoteDrops.
func (c *Capped[T]) Dropped() uint64 { return c.dropped }

// Snapshot returns a copy of the retained items in append order.
func (c *Capped[T]) Snapshot() []T {
	out := make([]T, len(c.buf))
	copy(out, c.buf)
	return out
}
