package audit

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rlsched/internal/grouping"
	"rlsched/internal/memory"
	"rlsched/internal/probe"
)

// Log is the wire snapshot of one run's decision audit.
type Log struct {
	// Total counts every decision the run made; Retained is how many the
	// bounded reservoir kept (every Stride-th one).
	Total    uint64 `json:"total"`
	Retained int    `json:"retained"`
	Stride   uint64 `json:"stride"`
	// Decided counts re-decisions (explore/exploit/fallback) and Fed how
	// many decisions received their group's dual feedback.
	Decided uint64 `json:"decided"`
	Fed     uint64 `json:"fed"`
	// Kinds counts decisions by kind over the whole run.
	Kinds map[string]uint64 `json:"kinds"`
	// ExplorationRatio is explored/decided over the whole run.
	ExplorationRatio float64 `json:"exploration_ratio"`
	// Decisions holds the retained decisions in Seq order.
	Decisions []Decision `json:"decisions"`
	// Curves are the learning-curve series (reward, td_error, epsilon,
	// exploration_ratio, memory_hit_rate, plus per-agent reward/td_error
	// for the first MaxAgentSeries agents).
	Curves []probe.Series `json:"curves,omitempty"`
}

// RunLog bundles one simulation point's decision log with its identity
// inside a campaign: the point's index (see
// experiments.Profile.RecordersFor) and its canonical label
// (experiments.PointLabel) — the same self-
// describing convention probe.RunSeries uses, so campaign exports carry
// which point each row belongs to.
type RunLog struct {
	Index int    `json:"index"`
	Label string `json:"label"`
	Log
}

// csvHeader is the fixed column set of the decisions CSV export. The
// label column stamps experiments.PointLabel on every row so a
// multi-point campaign export is self-describing.
var csvHeader = []string{
	"run", "label", "seq", "t", "agent", "kind",
	"opnum", "mode",
	"load", "free_slots", "mean_power", "site_load",
	"epsilon", "fed", "reward", "error", "feedback_at",
	"candidates",
}

// formatFloat renders a float the shortest way that parses back to the
// same bits, so CSV round-trips are exact.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Candidate list encoding inside the one CSV cell: candidates joined by
// '|', fields by ';' — agent;cycle;opnum;mode;similarity;lval;score.
// Neither separator can appear in a formatted int or float.
func formatCandidates(cs []memory.Candidate) string {
	if len(cs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range cs {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.Itoa(c.AgentID))
		b.WriteByte(';')
		b.WriteString(strconv.Itoa(c.Cycle))
		b.WriteByte(';')
		b.WriteString(strconv.Itoa(c.Action.Opnum))
		b.WriteByte(';')
		b.WriteString(strconv.Itoa(int(c.Action.Mode)))
		b.WriteByte(';')
		b.WriteString(formatFloat(c.Similarity))
		b.WriteByte(';')
		b.WriteString(formatFloat(c.LVal))
		b.WriteByte(';')
		b.WriteString(formatFloat(c.Score))
	}
	return b.String()
}

func parseCandidates(s string) ([]memory.Candidate, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "|")
	out := make([]memory.Candidate, 0, len(parts))
	for _, p := range parts {
		f := strings.Split(p, ";")
		if len(f) != 7 {
			return nil, fmt.Errorf("candidate %q has %d fields, want 7", p, len(f))
		}
		var (
			ints   [4]int
			floats [3]float64
			err    error
		)
		for i, name := range [...]string{"agent", "cycle", "opnum", "mode"} {
			if ints[i], err = strconv.Atoi(f[i]); err != nil {
				return nil, fmt.Errorf("candidate %s %q: %w", name, f[i], err)
			}
		}
		for i, name := range [...]string{"similarity", "lval", "score"} {
			if floats[i], err = strconv.ParseFloat(f[4+i], 64); err != nil {
				return nil, fmt.Errorf("candidate %s %q: %w", name, f[4+i], err)
			}
		}
		out = append(out, memory.Candidate{
			AgentID:    ints[0],
			Cycle:      ints[1],
			Action:     memory.Action{Opnum: ints[2], Mode: grouping.Mode(ints[3])},
			Similarity: floats[0],
			LVal:       floats[1],
			Score:      floats[2],
		})
	}
	return out, nil
}

// WriteDecisionsCSV renders recorded runs as CSV, one row per retained
// decision. The daemon's /v1/jobs/{id}/decisions?format=csv response
// and the CLI's -decisions-csv export both call this, so the two
// outputs are byte-identical for the same recorded data.
func WriteDecisionsCSV(w io.Writer, runs []RunLog) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, len(csvHeader))
	for _, run := range runs {
		row[0] = strconv.Itoa(run.Index)
		row[1] = run.Label
		for _, d := range run.Decisions {
			row[2] = strconv.FormatUint(d.Seq, 10)
			row[3] = formatFloat(d.T)
			row[4] = strconv.Itoa(d.Agent)
			row[5] = d.Kind
			row[6] = strconv.Itoa(d.Action.Opnum)
			row[7] = strconv.Itoa(int(d.Action.Mode))
			row[8] = formatFloat(d.State.Load)
			row[9] = formatFloat(d.State.FreeSlots)
			row[10] = formatFloat(d.State.MeanPower)
			row[11] = formatFloat(d.State.SiteLoad)
			row[12] = formatFloat(d.Epsilon)
			row[13] = strconv.FormatBool(d.Fed)
			row[14] = formatFloat(d.Reward)
			row[15] = formatFloat(d.Error)
			row[16] = formatFloat(d.FeedbackAt)
			row[17] = formatCandidates(d.Candidates)
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadDecisionsCSV parses WriteDecisionsCSV output back into runs,
// preserving run and decision order. Only per-decision columns round-
// trip; aggregate fields (Total, Kinds, Curves) are not in the CSV and
// stay zero. It exists so exports round-trip in tests and downstream
// tooling.
func ReadDecisionsCSV(r io.Reader) ([]RunLog, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("audit: reading CSV header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("audit: CSV column %d = %q, want %q", i, header[i], want)
		}
	}
	var (
		runs []RunLog
		line = 1
	)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("audit: CSV line %d: %w", line, err)
		}
		index, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("audit: CSV line %d: bad run index %q", line, rec[0])
		}
		var d Decision
		if d.Seq, err = strconv.ParseUint(rec[2], 10, 64); err != nil {
			return nil, fmt.Errorf("audit: CSV line %d: bad seq %q", line, rec[2])
		}
		fields := []struct {
			dst *float64
			col int
		}{
			{&d.T, 3}, {&d.State.Load, 8}, {&d.State.FreeSlots, 9},
			{&d.State.MeanPower, 10}, {&d.State.SiteLoad, 11},
			{&d.Epsilon, 12}, {&d.Reward, 14}, {&d.Error, 15}, {&d.FeedbackAt, 16},
		}
		for _, f := range fields {
			if *f.dst, err = strconv.ParseFloat(rec[f.col], 64); err != nil {
				return nil, fmt.Errorf("audit: CSV line %d: bad %s %q", line, csvHeader[f.col], rec[f.col])
			}
		}
		if d.Agent, err = strconv.Atoi(rec[4]); err != nil {
			return nil, fmt.Errorf("audit: CSV line %d: bad agent %q", line, rec[4])
		}
		d.Kind = rec[5]
		if d.Action.Opnum, err = strconv.Atoi(rec[6]); err != nil {
			return nil, fmt.Errorf("audit: CSV line %d: bad opnum %q", line, rec[6])
		}
		mode, err := strconv.Atoi(rec[7])
		if err != nil {
			return nil, fmt.Errorf("audit: CSV line %d: bad mode %q", line, rec[7])
		}
		d.Action.Mode = grouping.Mode(mode)
		if d.Fed, err = strconv.ParseBool(rec[13]); err != nil {
			return nil, fmt.Errorf("audit: CSV line %d: bad fed %q", line, rec[13])
		}
		if d.Candidates, err = parseCandidates(rec[17]); err != nil {
			return nil, fmt.Errorf("audit: CSV line %d: %w", line, err)
		}
		if len(runs) == 0 || runs[len(runs)-1].Index != index || runs[len(runs)-1].Label != rec[1] {
			runs = append(runs, RunLog{Index: index, Label: rec[1]})
		}
		run := &runs[len(runs)-1]
		run.Decisions = append(run.Decisions, d)
		run.Retained = len(run.Decisions)
	}
	return runs, nil
}
