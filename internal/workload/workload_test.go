package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"rlsched/internal/rng"
)

func genDefault(t *testing.T, n int) []*Task {
	t.Helper()
	cfg := DefaultGenConfig()
	cfg.NumTasks = n
	tasks, err := Generate(cfg, rng.NewStream(1, "wl"))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tasks
}

func TestGenerateCountAndOrder(t *testing.T) {
	tasks := genDefault(t, 500)
	if len(tasks) != 500 {
		t.Fatalf("generated %d tasks, want 500", len(tasks))
	}
	prev := -1.0
	for i, task := range tasks {
		if task.ID != i {
			t.Fatalf("task %d has ID %d", i, task.ID)
		}
		if task.ArrivalTime <= prev {
			t.Fatalf("arrivals not strictly increasing at %d: %g <= %g", i, task.ArrivalTime, prev)
		}
		prev = task.ArrivalTime
	}
}

func TestGeneratedTasksValidate(t *testing.T) {
	for _, task := range genDefault(t, 1000) {
		if err := task.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSizeDistributionBounds(t *testing.T) {
	for _, task := range genDefault(t, 2000) {
		if task.SizeMI < 600 || task.SizeMI >= 7200 {
			t.Fatalf("task size %g outside [600, 7200)", task.SizeMI)
		}
	}
}

func TestInterArrivalMean(t *testing.T) {
	tasks := genDefault(t, 3000)
	st := summarize(tasks)
	if math.Abs(st.MeanIAT-5) > 0.3 {
		t.Fatalf("mean inter-arrival %g, want ~5", st.MeanIAT)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	cfg := DefaultGenConfig()
	a := MustGenerate(cfg, rng.NewStream(99, "wl"))
	b := MustGenerate(cfg, rng.NewStream(99, "wl"))
	for i := range a {
		if a[i].SizeMI != b[i].SizeMI || a[i].ArrivalTime != b[i].ArrivalTime || a[i].Priority != b[i].Priority {
			t.Fatalf("task %d differs across identical seeds", i)
		}
	}
}

func TestPriorityFromSlackBoundaries(t *testing.T) {
	cases := []struct {
		slack float64
		want  Priority
	}{
		{0, PriorityHigh},
		{0.20, PriorityHigh},
		{0.2000001, PriorityMedium},
		{0.5, PriorityMedium},
		{0.7999999, PriorityMedium},
		{0.80, PriorityLow},
		{1.5, PriorityLow},
	}
	for _, c := range cases {
		if got := PriorityFromSlack(c.slack); got != c.want {
			t.Errorf("PriorityFromSlack(%g) = %v, want %v", c.slack, got, c.want)
		}
	}
}

func TestPriorityMixRespected(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumTasks = 5000
	cfg.Mix = PriorityMix{Low: 0.1, Medium: 0.2, High: 0.7}
	tasks := MustGenerate(cfg, rng.NewStream(3, "wl"))
	st := summarize(tasks)
	fracHigh := float64(st.CountByPrio[PriorityHigh]) / float64(st.Count)
	if math.Abs(fracHigh-0.7) > 0.03 {
		t.Fatalf("high-priority fraction %g, want ~0.7", fracHigh)
	}
	fracLow := float64(st.CountByPrio[PriorityLow]) / float64(st.Count)
	if math.Abs(fracLow-0.1) > 0.03 {
		t.Fatalf("low-priority fraction %g, want ~0.1", fracLow)
	}
}

func TestMixNormalize(t *testing.T) {
	m := PriorityMix{Low: 2, Medium: 2, High: 4}.Normalize()
	if math.Abs(m.Low-0.25) > 1e-12 || math.Abs(m.High-0.5) > 1e-12 {
		t.Fatalf("Normalize gave %+v", m)
	}
	z := PriorityMix{}.Normalize()
	if math.Abs(z.Low+z.Medium+z.High-1) > 1e-12 {
		t.Fatalf("zero mix normalised to %+v", z)
	}
}

func TestMixValidateRejectsNegative(t *testing.T) {
	if err := (PriorityMix{Low: -1, Medium: 1, High: 1}).Validate(); err == nil {
		t.Fatal("expected error for negative weight")
	}
}

func TestDeadlineWithinPriorityBand(t *testing.T) {
	for _, task := range genDefault(t, 2000) {
		slack := task.Deadline/task.ACT - 1
		if PriorityFromSlack(slack) != task.Priority {
			t.Fatalf("task %d: slack %g inconsistent with priority %v", task.ID, slack, task.Priority)
		}
	}
}

func TestDeadlineAccounting(t *testing.T) {
	task := &Task{ID: 1, ArrivalTime: 10, Deadline: 5, StartTime: -1, FinishTime: -1}
	if task.Finished() || task.MetDeadline() {
		t.Fatal("fresh task must not be finished")
	}
	if task.ResponseTime() != 0 {
		t.Fatal("unfinished response time must be 0")
	}
	task.FinishTime = 15
	if !task.MetDeadline() {
		t.Fatal("task finishing exactly at deadline must succeed")
	}
	if task.ResponseTime() != 5 {
		t.Fatalf("response time %g, want 5", task.ResponseTime())
	}
	task.FinishTime = 15.0001
	if task.MetDeadline() {
		t.Fatal("task finishing after deadline must fail")
	}
}

func TestSortEDF(t *testing.T) {
	tasks := []*Task{
		{ID: 0, ArrivalTime: 0, Deadline: 9},
		{ID: 1, ArrivalTime: 2, Deadline: 3},
		{ID: 2, ArrivalTime: 1, Deadline: 4},
		{ID: 3, ArrivalTime: 0, Deadline: 5},
	}
	SortEDF(tasks)
	want := []int{1, 2, 3, 0}
	for i, id := range want {
		if tasks[i].ID != id {
			t.Fatalf("EDF order %v at %d, want IDs %v", tasks[i].ID, i, want)
		}
	}
}

func TestSortEDFStableOnTies(t *testing.T) {
	tasks := []*Task{
		{ID: 5, ArrivalTime: 0, Deadline: 4},
		{ID: 2, ArrivalTime: 0, Deadline: 4},
		{ID: 9, ArrivalTime: 0, Deadline: 4},
	}
	SortEDF(tasks)
	if tasks[0].ID != 2 || tasks[1].ID != 5 || tasks[2].ID != 9 {
		t.Fatalf("tie-break by ID failed: %d %d %d", tasks[0].ID, tasks[1].ID, tasks[2].ID)
	}
}

func TestTotals(t *testing.T) {
	tasks := []*Task{{SizeMI: 100, Deadline: 2}, {SizeMI: 300, Deadline: 3}}
	if TotalSize(tasks) != 400 {
		t.Fatalf("TotalSize = %g", TotalSize(tasks))
	}
	if TotalDeadline(tasks) != 5 {
		t.Fatalf("TotalDeadline = %g", TotalDeadline(tasks))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := summarize(nil)
	if st.Count != 0 || st.MeanSizeMI != 0 {
		t.Fatalf("empty summary %+v", st)
	}
}

func TestGenConfigValidation(t *testing.T) {
	base := DefaultGenConfig()
	cases := []func(*GenConfig){
		func(c *GenConfig) { c.NumTasks = 0 },
		func(c *GenConfig) { c.MeanInterArrival = 0 },
		func(c *GenConfig) { c.MinSizeMI = 0 },
		func(c *GenConfig) { c.MaxSizeMI = c.MinSizeMI - 1 },
		func(c *GenConfig) { c.SlowestSpeedMIPS = -3 },
		func(c *GenConfig) { c.Mix.High = -1 },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := Generate(cfg, rng.NewStream(1, "wl")); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// Property: every generated task's deadline lies in [ACT, 2.5*ACT] and its
// priority matches its slack, for arbitrary seeds and sizes.
func TestQuickGeneratedInvariant(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		cfg := DefaultGenConfig()
		cfg.NumTasks = int(n)%50 + 1
		tasks, err := Generate(cfg, rng.NewStream(seed, "q"))
		if err != nil {
			return false
		}
		for _, task := range tasks {
			if task.Validate() != nil {
				return false
			}
			if task.Deadline < task.ACT || task.Deadline > task.ACT*2.5+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SortEDF output is non-decreasing in absolute deadline.
func TestQuickSortEDFOrdered(t *testing.T) {
	f := func(arrivals, deadlines []uint8) bool {
		n := len(arrivals)
		if len(deadlines) < n {
			n = len(deadlines)
		}
		tasks := make([]*Task, n)
		for i := 0; i < n; i++ {
			tasks[i] = &Task{ID: i, ArrivalTime: float64(arrivals[i]), Deadline: float64(deadlines[i])}
		}
		SortEDF(tasks)
		for i := 1; i < n; i++ {
			if tasks[i-1].AbsoluteDeadline() > tasks[i].AbsoluteDeadline() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: SortEDF yields exactly sort.SliceStable's permutation under
// the historical (deadline, ID) comparison, on inputs dense with ties:
// deadlines and IDs come from tiny ranges, so equal deadlines are the
// rule and fully equal keys (same deadline and ID) occur too, where only
// stability fixes the order. Lengths run past the sort's insertion-sort
// blocks.
func TestQuickSortEDFMatchesSliceStable(t *testing.T) {
	r := rng.NewStream(31, "edf")
	f := func(nRaw uint8) bool {
		n := int(nRaw) % 70
		tasks := make([]*Task, n)
		for i := range tasks {
			tasks[i] = &Task{ID: r.Intn(8), ArrivalTime: float64(r.Intn(3)), Deadline: float64(r.Intn(3))}
		}
		want := append([]*Task(nil), tasks...)
		sort.SliceStable(want, func(i, j int) bool {
			di, dj := want[i].AbsoluteDeadline(), want[j].AbsoluteDeadline()
			if di != dj {
				return di < dj
			}
			return want[i].ID < want[j].ID
		})
		SortEDF(tasks)
		for i := range tasks {
			if tasks[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate3000(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.NumTasks = 3000
	for i := 0; i < b.N; i++ {
		MustGenerate(cfg, rng.NewStream(uint64(i), "bench"))
	}
}

// workloadStats summarises a generated workload for the generator checks.
type workloadStats struct {
	Count        int
	MeanSizeMI   float64
	MeanIAT      float64
	Span         float64 // last arrival - first arrival
	CountByPrio  [numPriorities]int
	MeanDeadline float64
}

// summarize computes workload statistics.
func summarize(tasks []*Task) workloadStats {
	var st workloadStats
	st.Count = len(tasks)
	if st.Count == 0 {
		return st
	}
	var sizeSum, dlSum float64
	for _, t := range tasks {
		sizeSum += t.SizeMI
		dlSum += t.Deadline
		st.CountByPrio[t.Priority]++
	}
	st.MeanSizeMI = sizeSum / float64(st.Count)
	st.MeanDeadline = dlSum / float64(st.Count)
	st.Span = tasks[st.Count-1].ArrivalTime - tasks[0].ArrivalTime
	if st.Count > 1 {
		st.MeanIAT = st.Span / float64(st.Count-1)
	}
	return st
}
