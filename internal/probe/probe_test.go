package probe

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"rlsched/internal/des"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Cadence != DefaultCadence || c.MaxPoints != DefaultMaxPoints {
		t.Fatalf("zero config resolved to %+v", c)
	}
	c = Config{Cadence: -1, MaxPoints: 3}.withDefaults()
	if c.Cadence != DefaultCadence {
		t.Errorf("negative cadence not defaulted: %g", c.Cadence)
	}
	if c.MaxPoints != minPoints {
		t.Errorf("MaxPoints 3 clamped to %d, want %d", c.MaxPoints, minPoints)
	}
	if c = (Config{MaxPoints: 9}).withDefaults(); c.MaxPoints != 8 {
		t.Errorf("odd MaxPoints 9 clamped to %d, want even 8", c.MaxPoints)
	}
}

func TestValidFamily(t *testing.T) {
	for _, f := range Families {
		if !ValidFamily(f) {
			t.Errorf("ValidFamily(%q) = false", f)
		}
	}
	if ValidFamily("bogus") {
		t.Error("ValidFamily accepted unknown family")
	}
}

func TestEnabledSelectsFamilies(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Enabled(FamilyQueue) {
		t.Error("nil recorder claims a family is enabled")
	}
	all := NewRecorder(Config{})
	for _, f := range Families {
		if !all.Enabled(f) {
			t.Errorf("empty select should enable %q", f)
		}
	}
	some := NewRecorder(Config{Series: []string{FamilyPower}})
	if !some.Enabled(FamilyPower) || some.Enabled(FamilyQueue) {
		t.Error("select list not honoured")
	}
	some.Register(FamilyQueue, "q", "", func() float64 { return 1 })
	if s, _ := some.Snapshot(); len(s) != 0 {
		t.Error("Register should be a no-op for disabled families")
	}
}

// TestSampleAccumulation checks the raw path: stride 1, every sample
// becomes a point verbatim.
func TestSampleAccumulation(t *testing.T) {
	r := NewRecorder(Config{Cadence: 1})
	v := 0.0
	r.Register(FamilyQueue, "q", "", func() float64 { v += 1; return v })
	for i := 0; i < 4; i++ {
		r.SampleNow(float64(i) * 10)
	}
	s, epoch := r.Snapshot()
	if epoch != 0 {
		t.Fatalf("epoch = %d before any downsample", epoch)
	}
	want := []Point{{T: 0, V: 1}, {T: 10, V: 2}, {T: 20, V: 3}, {T: 30, V: 4}}
	if !reflect.DeepEqual(s[0].Points, want) {
		t.Fatalf("points = %v, want %v", s[0].Points, want)
	}
}

// TestDownsampleMergesAdjacent fills a minimum-size reservoir and checks
// the merge arithmetic by hand: pairs collapse to (later T, mean V), the
// stride doubles, the epoch bumps.
func TestDownsampleMergesAdjacent(t *testing.T) {
	r := NewRecorder(Config{MaxPoints: 8})
	v := 0.0
	r.Register(FamilyPower, "p", "W", func() float64 { v += 1; return v })
	// 8 samples with values 1..8 fill the reservoir and trigger one merge.
	for i := 1; i <= 8; i++ {
		r.SampleNow(float64(i))
	}
	s, epoch := r.Snapshot()
	if epoch != 1 {
		t.Fatalf("epoch = %d after one downsample, want 1", epoch)
	}
	want := []Point{{T: 2, V: 1.5}, {T: 4, V: 3.5}, {T: 6, V: 5.5}, {T: 8, V: 7.5}}
	if !reflect.DeepEqual(s[0].Points, want) {
		t.Fatalf("merged points = %v, want %v", s[0].Points, want)
	}
	// The next two samples (values 9 and 10) fold into ONE point at the
	// doubled stride: mean 9.5, timestamp of the later sample.
	r.SampleNow(9)
	s, _ = r.Snapshot()
	if got := s[0].Points; len(got) != 5 || got[4] != (Point{T: 9, V: 9}) {
		t.Fatalf("provisional point = %v, want trailing {9 9}", got)
	}
	r.SampleNow(10)
	s, epoch = r.Snapshot()
	if epoch != 1 {
		t.Fatalf("epoch moved to %d without a downsample", epoch)
	}
	if got := s[0].Points[4]; got != (Point{T: 10, V: 9.5}) {
		t.Fatalf("stride-2 point = %v, want {10 9.5}", got)
	}
}

// TestReservoirStaysBounded hammers a tiny reservoir and checks memory
// never exceeds MaxPoints while the full time range stays covered.
func TestReservoirStaysBounded(t *testing.T) {
	r := NewRecorder(Config{MaxPoints: 8})
	r.Register(FamilyEnergy, "e", "J", func() float64 { return 1 })
	for i := 0; i < 10000; i++ {
		r.SampleNow(float64(i))
		if s, _ := r.Snapshot(); len(s[0].Points) > 8+1 { // +1 provisional
			t.Fatalf("reservoir grew to %d points at sample %d", len(s[0].Points), i)
		}
	}
	s, epoch := r.Snapshot()
	if epoch == 0 {
		t.Error("10000 samples into an 8-point reservoir should downsample")
	}
	last := s[0].Points[len(s[0].Points)-1]
	if last.T != 9999 {
		t.Errorf("latest sample time %g not represented, want 9999", last.T)
	}
	// A constant-1 series must survive all that averaging exactly.
	for _, p := range s[0].Points {
		if p.V != 1 {
			t.Errorf("constant series distorted: %v", p)
		}
	}
}

// TestStartOnSimulator wires a recorder to a real DES loop and checks
// cadence-spaced samples appear and the recurring event dies with the
// simulator.
func TestStartOnSimulator(t *testing.T) {
	sim := des.New()
	r := NewRecorder(Config{Cadence: 10})
	r.Register(FamilyUtil, "u", "", func() float64 { return 0.5 })
	r.Start(sim)
	sim.AfterFunc(35, func(s *des.Simulator) { s.Stop() })
	sim.Run()
	s, _ := r.Snapshot()
	var ts []float64
	for _, p := range s[0].Points {
		ts = append(ts, p.T)
	}
	want := []float64{0, 10, 20, 30}
	if !reflect.DeepEqual(ts, want) {
		t.Fatalf("sample times = %v, want %v", ts, want)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	r := NewRecorder(Config{})
	r.Register(FamilyRL, "r", "", func() float64 { return 7 })
	r.SampleNow(1)
	s1, _ := r.Snapshot()
	s1[0].Points[0].V = -1
	s2, _ := r.Snapshot()
	if s2[0].Points[0].V != 7 {
		t.Fatal("mutating a snapshot leaked into recorder state")
	}
}

func sampleRuns() []RunSeries {
	return []RunSeries{
		{Index: 0, Label: "raa n=500 cv=0.5 seed=1", Series: []Series{
			{Name: "site0.queue_depth", Family: FamilyQueue, Points: []Point{{T: 0, V: 3}, {T: 25, V: 7.5}}},
			{Name: "power.draw", Family: FamilyPower, Unit: "W", Points: []Point{{T: 0, V: 412.125}}},
		}},
		{Index: 1, Label: "greedy n=500 cv=0.5 seed=1", Series: []Series{
			{Name: "rl.hit_rate", Family: FamilyRL, Points: []Point{{T: 0, V: 0}, {T: 25, V: 0.25}}},
		}},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	runs := sampleRuns()
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, runs); err != nil {
		t.Fatalf("WriteSeriesCSV: %v", err)
	}
	back, err := ReadSeriesCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSeriesCSV: %v", err)
	}
	if !reflect.DeepEqual(back, runs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, runs)
	}
}

func TestReadSeriesCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadSeriesCSV(bytes.NewReader([]byte("nope,nope\n"))); err == nil {
		t.Error("bad header accepted")
	}
	bad := "run,label,family,series,unit,t,value\nx,l,queue,s,,0,1\n"
	if _, err := ReadSeriesCSV(bytes.NewReader([]byte(bad))); err == nil {
		t.Error("non-numeric run index accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	runs := sampleRuns()
	data, err := json.Marshal(runs)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []RunSeries
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, runs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, runs)
	}
}

// Probe closures can in principle return non-finite values; the CSV
// formatter must not corrupt the file shape when they do.
func TestCSVNonFinite(t *testing.T) {
	runs := []RunSeries{{Label: "l", Series: []Series{
		{Name: "s", Family: FamilyRL, Points: []Point{{T: 0, V: math.Inf(1)}}},
	}}}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, runs); err != nil {
		t.Fatalf("WriteSeriesCSV: %v", err)
	}
	back, err := ReadSeriesCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSeriesCSV: %v", err)
	}
	if !math.IsInf(back[0].Series[0].Points[0].V, 1) {
		t.Fatalf("+Inf did not survive: %v", back[0].Series[0].Points[0])
	}
}
