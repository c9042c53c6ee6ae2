package report

import (
	"fmt"
	"html"
	"math"
	"sort"
	"strings"

	"rlsched/internal/audit"
	"rlsched/internal/probe"
)

// Policy-report geometry: the visitation heatmap bins the observed state
// space into a fixed grid. 12x12 keeps cells readable at chart width
// while still showing where the policy actually spent its decisions.
const (
	heatmapBins = 12
	heatmapCell = 36
	heatmapPad  = 56
	// policyTopN bounds the explained-decisions table.
	policyTopN = 20
)

// NewPolicyReport assembles the explainable-scheduling report for a set
// of audited runs: per-run learning curves (reward, TD-error, epsilon
// decay, exploration ratio, memory hit rate), a state-space visitation
// heatmap over the retained decisions, and a top-N decision table with
// each decision's candidate scores — the paper's learning dynamics
// (§IV.B/C) made inspectable for one concrete run. Self-contained HTML,
// like every report: no scripts, no external references.
func NewPolicyReport(title string, runs []audit.RunLog) *HTMLReport {
	rep := NewHTMLReport(title)
	rep.AddKeyValues("Decision audit", policySummary(runs))
	for _, run := range runs {
		if len(run.Curves) > 0 {
			rep.AddRunSeries(probe.RunSeries{Index: run.Index, Label: run.Label + " — learning curves", Series: run.Curves})
		}
		rep.AddStateHeatmap(run)
		rep.AddDecisionTable(run)
	}
	return rep
}

// policySummary reduces the audited runs to the headline numbers.
func policySummary(runs []audit.RunLog) [][2]string {
	var total, retained, decided, explored, fed uint64
	for _, r := range runs {
		total += r.Total
		retained += uint64(r.Retained)
		decided += r.Decided
		explored += r.Kinds[audit.KindExplore]
		fed += r.Fed
	}
	rows := [][2]string{
		{"audited runs", fmt.Sprintf("%d", len(runs))},
		{"decisions", fmt.Sprintf("%d (%d retained)", total, retained)},
		{"re-decisions", fmt.Sprintf("%d", decided)},
		{"feedback delivered", fmt.Sprintf("%d", fed)},
	}
	if decided > 0 {
		rows = append(rows, [2]string{"exploration ratio",
			fmt.Sprintf("%.3f", float64(explored)/float64(decided))})
	}
	return rows
}

// AddStateHeatmap appends a state-space visitation heatmap: the run's
// retained decisions binned over (Load, SiteLoad), cell opacity scaled
// by visit count. It shows at a glance which corner of the state space
// the policy actually exercised — a decision log whose mass sits in one
// cell explains a flat learning curve better than any scalar could.
func (h *HTMLReport) AddStateHeatmap(run audit.RunLog) {
	type cell struct{ x, y int }
	var (
		counts               = make(map[cell]int)
		xmin, xmax           = math.Inf(1), math.Inf(-1)
		ymin, ymax           = math.Inf(1), math.Inf(-1)
		maxCount, placedDecs int
	)
	for _, d := range run.Decisions {
		if d.Kind == audit.KindKeep || (d.State == (audit.Decision{}).State && d.Kind == audit.KindPolicy) {
			// Keep decisions carry no state snapshot (the policy skipped
			// observation entirely); unannotated policy decisions with a
			// zero state are indistinguishable from unobserved ones.
			continue
		}
		xmin, xmax = math.Min(xmin, d.State.Load), math.Max(xmax, d.State.Load)
		ymin, ymax = math.Min(ymin, d.State.SiteLoad), math.Max(ymax, d.State.SiteLoad)
		placedDecs++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<section>\n<h2>%s — state visitation</h2>\n", html.EscapeString(run.Label))
	if placedDecs == 0 {
		b.WriteString("<p class=\"note\">no retained decisions carry a state snapshot.</p>\n</section>\n")
		h.sections = append(h.sections, b.String())
		return
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	binOf := func(v, lo, hi float64) int {
		i := int((v - lo) / (hi - lo) * heatmapBins)
		if i >= heatmapBins {
			i = heatmapBins - 1
		}
		if i < 0 {
			i = 0
		}
		return i
	}
	for _, d := range run.Decisions {
		if d.Kind == audit.KindKeep {
			continue
		}
		c := cell{binOf(d.State.Load, xmin, xmax), binOf(d.State.SiteLoad, ymin, ymax)}
		counts[c]++
		if counts[c] > maxCount {
			maxCount = counts[c]
		}
	}
	w := heatmapPad + heatmapBins*heatmapCell + padRight
	ht := padTop + heatmapBins*heatmapCell + padBot
	fmt.Fprintf(&b, "<figure class=\"viz-root\">\n<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\">\n", w, ht, w, ht)
	// Cells render in grid order, not map order, so the report bytes are
	// a function of the decisions alone.
	for i := 0; i < heatmapBins*heatmapBins; i++ {
		c := cell{i % heatmapBins, i / heatmapBins}
		n := counts[c]
		if n == 0 {
			continue
		}
		x := heatmapPad + c.x*heatmapCell
		// Row 0 (lowest SiteLoad) renders at the bottom, like a chart axis.
		y := padTop + (heatmapBins-1-c.y)*heatmapCell
		fmt.Fprintf(&b, "<rect class=\"hm-cell\" x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill-opacity=\"%.3f\"><title>load [%s, %s) × site load [%s, %s): %d decisions</title></rect>\n",
			x, y, heatmapCell, heatmapCell, 0.15+0.85*float64(n)/float64(maxCount),
			trimFloat(xmin+float64(c.x)*(xmax-xmin)/heatmapBins),
			trimFloat(xmin+float64(c.x+1)*(xmax-xmin)/heatmapBins),
			trimFloat(ymin+float64(c.y)*(ymax-ymin)/heatmapBins),
			trimFloat(ymin+float64(c.y+1)*(ymax-ymin)/heatmapBins), n)
	}
	// Axis labels and corner ticks; a full tick ladder would crowd the
	// cells without adding reading precision the tooltips already give.
	fmt.Fprintf(&b, "<text class=\"tick\" x=\"%d\" y=\"%d\" text-anchor=\"start\">%s</text>\n",
		heatmapPad, padTop+heatmapBins*heatmapCell+16, trimFloat(xmin))
	fmt.Fprintf(&b, "<text class=\"tick\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%s</text>\n",
		heatmapPad+heatmapBins*heatmapCell, padTop+heatmapBins*heatmapCell+16, trimFloat(xmax))
	fmt.Fprintf(&b, "<text class=\"tick\" x=\"%d\" y=\"%d\" text-anchor=\"end\" dominant-baseline=\"middle\">%s</text>\n",
		heatmapPad-6, padTop+heatmapBins*heatmapCell, trimFloat(ymin))
	fmt.Fprintf(&b, "<text class=\"tick\" x=\"%d\" y=\"%d\" text-anchor=\"end\" dominant-baseline=\"middle\">%s</text>\n",
		heatmapPad-6, padTop, trimFloat(ymax))
	fmt.Fprintf(&b, "<text class=\"label\" x=\"%d\" y=\"%d\" text-anchor=\"middle\">node load</text>\n",
		heatmapPad+heatmapBins*heatmapCell/2, ht-6)
	fmt.Fprintf(&b, "<text class=\"label\" transform=\"rotate(-90)\" x=\"%d\" y=\"12\" text-anchor=\"middle\">site load</text>\n",
		-(padTop + heatmapBins*heatmapCell/2))
	b.WriteString("</svg>\n")
	fmt.Fprintf(&b, "<figcaption class=\"note\">%d retained decisions over a %d×%d grid; darker cells were visited more (max %d).</figcaption>\n",
		placedDecs, heatmapBins, heatmapBins, maxCount)
	b.WriteString("</figure>\n</section>\n")
	h.sections = append(h.sections, b.String())
}

// AddDecisionTable appends the run's top decisions by received reward
// (fed decisions first), each with its audit context: sim-time, agent,
// kind, chosen action, epsilon, the feedback that landed, and the
// candidate experiences the shared memory offered at decision time.
func (h *HTMLReport) AddDecisionTable(run audit.RunLog) {
	decs := append([]audit.Decision(nil), run.Decisions...)
	sort.SliceStable(decs, func(i, j int) bool {
		if decs[i].Fed != decs[j].Fed {
			return decs[i].Fed
		}
		if decs[i].Reward != decs[j].Reward {
			return decs[i].Reward > decs[j].Reward
		}
		return decs[i].Seq < decs[j].Seq
	})
	if len(decs) > policyTopN {
		decs = decs[:policyTopN]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<section>\n<h2>%s — top decisions</h2>\n", html.EscapeString(run.Label))
	if len(decs) == 0 {
		b.WriteString("<p class=\"note\">no decisions retained.</p>\n</section>\n")
		h.sections = append(h.sections, b.String())
		return
	}
	fmt.Fprintf(&b, "<p class=\"note\">top %d of %d retained decisions, best-rewarded first.</p>\n", len(decs), run.Retained)
	b.WriteString("<table class=\"data\">\n<tr><th>seq</th><th>t</th><th>agent</th><th>kind</th><th>action</th><th>ε</th><th>reward</th><th>error</th><th>candidates (score · l_val)</th></tr>\n")
	for _, d := range decs {
		reward, errv := "—", "—"
		if d.Fed {
			reward, errv = trimFloat(d.Reward), trimFloat(d.Error)
		}
		var cands strings.Builder
		for i, c := range d.Candidates {
			if i > 0 {
				cands.WriteString("; ")
			}
			fmt.Fprintf(&cands, "op%d/%s %s · %s", c.Action.Opnum, c.Action.Mode, trimFloat(c.Score), trimFloat(c.LVal))
		}
		if cands.Len() == 0 {
			cands.WriteString("—")
		}
		fmt.Fprintf(&b, "<tr><td>%d</td><td>%s</td><td>%d</td><td>%s</td><td>op%d/%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			d.Seq, trimFloat(d.T), d.Agent, html.EscapeString(d.Kind),
			d.Action.Opnum, d.Action.Mode, trimFloat(d.Epsilon),
			reward, errv, html.EscapeString(cands.String()))
	}
	b.WriteString("</table>\n</section>\n")
	h.sections = append(h.sections, b.String())
}
