package metrics

import "math"

// Streaming mode: a Collector built by NewStreamingCollector keeps
// memory constant no matter how many tasks a run streams through. The
// headline metrics come from the same counters as in the default mode
// and are exact; RTPercentile comes from a bounded geometric histogram (a
// few percent relative error); the learning-cycle series is downsampled
// to a bounded uniformly strided subset.

const (
	// rtHistBuckets and rtHistGamma shape the response-time histogram:
	// bucket k covers [γ^(k-off), γ^(k-off+1)), giving ~5% relative
	// resolution over roughly e^±25 around 1.0 — far wider than any
	// plausible response time in simulation units.
	rtHistBuckets = 1024
	rtHistGamma   = 1.05

	// maxCycleRecords bounds the retained learning-cycle series. When the
	// cap is reached the series is decimated to every other record and the
	// keep-stride doubles, so the retained subset stays uniform over the
	// whole run.
	maxCycleRecords = 4096
)

// rtHistogram is a fixed-size geometric histogram of response times.
type rtHistogram struct {
	zero   int
	total  int
	counts [rtHistBuckets]int
}

func (h *rtHistogram) add(rt float64) {
	h.total++
	if rt <= 0 {
		h.zero++
		return
	}
	i := int(math.Floor(math.Log(rt)/math.Log(rtHistGamma))) + rtHistBuckets/2
	if i < 0 {
		i = 0
	} else if i >= rtHistBuckets {
		i = rtHistBuckets - 1
	}
	h.counts[i]++
}

// percentile approximates the stats.Percentile rank convention
// (rank = p/100·(n−1)) by returning the geometric midpoint of the bucket
// containing that rank.
func (h *rtHistogram) percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := int(math.Round(p / 100 * float64(h.total-1)))
	if rank < h.zero {
		return 0
	}
	cum := h.zero
	for i, n := range h.counts {
		cum += n
		if cum > rank {
			return math.Pow(rtHistGamma, float64(i-rtHistBuckets/2)+0.5)
		}
	}
	return math.Pow(rtHistGamma, float64(rtHistBuckets/2))
}

// NewStreamingCollector creates a constant-memory collector for
// large-scale runs (see the streaming-mode notes above).
func NewStreamingCollector(numProcessors int) *Collector {
	c := NewCollector(numProcessors)
	c.rtHist = new(rtHistogram)
	return c
}

// Streaming reports whether the collector bounds its cycle series and
// keeps a response-time histogram.
func (c *Collector) Streaming() bool { return c.rtHist != nil }

// decimateCycles halves the retained cycle series to every other record
// and doubles the keep-stride, so the subset stays uniform over the run.
func (c *Collector) decimateCycles() {
	kept := c.cycles[:0]
	for i, rec := range c.cycles {
		if i%2 == 0 {
			kept = append(kept, rec)
		}
	}
	c.cycles = kept
	c.cycleStride *= 2
}
