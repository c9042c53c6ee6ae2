package probe

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Point is one retained sample: simulated time and value. With a stride
// above 1 the value is the mean of the folded raw samples and T is the
// time of the last of them.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Series is one named time series snapshotted out of a Recorder.
type Series struct {
	// Name identifies the series within a run (e.g. "site2.queue_depth").
	Name string `json:"name"`
	// Family is the series family the name belongs to (e.g. "queue").
	Family string `json:"family"`
	// Unit is the human-readable unit of V (e.g. "W", "fraction").
	Unit string `json:"unit,omitempty"`
	// Points holds the retained samples in time order.
	Points []Point `json:"points"`
}

// RunSeries bundles one simulation point's recorded series with its
// identity inside a campaign: the point's index (see
// experiments.Profile.RecordersFor) and its canonical label
// (experiments.PointLabel).
type RunSeries struct {
	Index  int      `json:"index"`
	Label  string   `json:"label"`
	Series []Series `json:"series"`
}

// csvHeader is the fixed column set of the series CSV export.
var csvHeader = []string{"run", "label", "family", "series", "unit", "t", "value"}

// formatFloat renders a float the shortest way that parses back to the
// same bits, so CSV round-trips are exact.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteSeriesCSV renders recorded runs as CSV, one row per point. The
// daemon's /v1/jobs/{id}/series?format=csv response and the CLIs'
// -series-csv export both call this, so the two outputs are
// byte-identical for the same recorded data.
func WriteSeriesCSV(w io.Writer, runs []RunSeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, len(csvHeader))
	for _, run := range runs {
		row[0] = strconv.Itoa(run.Index)
		row[1] = run.Label
		for _, s := range run.Series {
			row[2] = s.Family
			row[3] = s.Name
			row[4] = s.Unit
			for _, p := range s.Points {
				row[5] = formatFloat(p.T)
				row[6] = formatFloat(p.V)
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSeriesCSV parses WriteSeriesCSV output back into runs, preserving
// run, series and point order. It exists so exports round-trip in tests
// and downstream tooling.
func ReadSeriesCSV(r io.Reader) ([]RunSeries, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("probe: reading CSV header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("probe: CSV column %d = %q, want %q", i, header[i], want)
		}
	}
	var (
		runs []RunSeries
		line = 1
	)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("probe: CSV line %d: %w", line, err)
		}
		index, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("probe: CSV line %d: bad run index %q", line, rec[0])
		}
		t, err := strconv.ParseFloat(rec[5], 64)
		if err != nil {
			return nil, fmt.Errorf("probe: CSV line %d: bad t %q", line, rec[5])
		}
		v, err := strconv.ParseFloat(rec[6], 64)
		if err != nil {
			return nil, fmt.Errorf("probe: CSV line %d: bad value %q", line, rec[6])
		}
		if len(runs) == 0 || runs[len(runs)-1].Index != index || runs[len(runs)-1].Label != rec[1] {
			runs = append(runs, RunSeries{Index: index, Label: rec[1]})
		}
		run := &runs[len(runs)-1]
		if len(run.Series) == 0 || run.Series[len(run.Series)-1].Name != rec[3] {
			run.Series = append(run.Series, Series{Name: rec[3], Family: rec[2], Unit: rec[4]})
		}
		s := &run.Series[len(run.Series)-1]
		s.Points = append(s.Points, Point{T: t, V: v})
	}
	return runs, nil
}
