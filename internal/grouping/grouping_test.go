package grouping

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rlsched/internal/rng"
	"rlsched/internal/workload"
)

func counter() func() int {
	n := 0
	return func() int { n++; return n - 1 }
}

func task(id int, prio workload.Priority, size, deadline, arrival float64) *workload.Task {
	return &workload.Task{
		ID: id, SizeMI: size, ACT: size / 500, Deadline: deadline,
		Priority: prio, ArrivalTime: arrival, StartTime: -1, FinishTime: -1,
	}
}

func TestPWEq10(t *testing.T) {
	tasks := []*workload.Task{
		{SizeMI: 1000, Deadline: 4},
		{SizeMI: 2000, Deadline: 6},
	}
	want := 3000.0 / 10.0
	if got := PW(tasks); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PW = %g, want %g", got, want)
	}
	if PW(nil) != 0 {
		t.Fatal("PW of empty slice must be 0")
	}
}

func TestProcFitnessAndErrTG(t *testing.T) {
	if got := ProcFitness(300, 300); got != 1 {
		t.Fatalf("fitness %g, want 1", got)
	}
	if got := ErrTG(1); got != 0 {
		t.Fatalf("perfect fit error %g, want 0", got)
	}
	// Undersized group: fitness 0.5 -> err |1-2| = 1.
	if got := ErrTG(0.5); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ErrTG(0.5) = %g, want 1", got)
	}
	// Oversized group: fitness 2 -> err 0.5.
	if got := ErrTG(2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ErrTG(2) = %g, want 0.5", got)
	}
	if !math.IsInf(ErrTG(0), 1) {
		t.Fatal("zero fitness must give +Inf error")
	}
}

func TestProcFitnessPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ProcFitness(10, 0)
}

func TestMixedMergeClosesAtOpnum(t *testing.T) {
	m := NewMerger(ModeMixed, counter())
	var g *Group
	for i := 0; i < 3; i++ {
		g = m.Add(task(i, workload.PriorityMedium, 1000, 5, float64(i)), 3, float64(i))
		if i < 2 && g != nil {
			t.Fatalf("group closed early at task %d", i)
		}
	}
	if g == nil {
		t.Fatal("group did not close at opnum")
	}
	if g.Len() != 3 {
		t.Fatalf("group size %d, want 3", g.Len())
	}
	if m.Pending() != 0 {
		t.Fatalf("%d tasks still pending", m.Pending())
	}
	if err := validateGroup(g); err != nil {
		t.Fatal(err)
	}
}

func TestMixedMergeMixesPriorities(t *testing.T) {
	m := NewMerger(ModeMixed, counter())
	m.Add(task(0, workload.PriorityLow, 1000, 20, 0), 2, 0)
	g := m.Add(task(1, workload.PriorityHigh, 1000, 2, 1), 2, 1)
	if g == nil {
		t.Fatal("expected closed group")
	}
	if g.Mode != ModeMixed {
		t.Fatalf("mode %v", g.Mode)
	}
	if g.Priority != workload.PriorityHigh {
		t.Fatalf("mixed group priority %v, want high (max member)", g.Priority)
	}
}

func TestIdenticalMergeSeparatesPriorities(t *testing.T) {
	m := NewMerger(ModeIdentical, counter())
	if g := m.Add(task(0, workload.PriorityLow, 1000, 20, 0), 2, 0); g != nil {
		t.Fatal("low buffer closed early")
	}
	if g := m.Add(task(1, workload.PriorityHigh, 1000, 2, 1), 2, 1); g != nil {
		t.Fatal("high buffer closed early")
	}
	g := m.Add(task(2, workload.PriorityHigh, 1000, 2.2, 2), 2, 2)
	if g == nil {
		t.Fatal("high buffer should close at 2 tasks")
	}
	for _, task := range g.Tasks {
		if task.Priority != workload.PriorityHigh {
			t.Fatalf("identical group contains %v task", task.Priority)
		}
	}
	if m.Pending() != 1 {
		t.Fatalf("pending %d, want 1 (the low task)", m.Pending())
	}
	if err := validateGroup(g); err != nil {
		t.Fatal(err)
	}
}

func TestGroupEDFOrder(t *testing.T) {
	m := NewMerger(ModeMixed, counter())
	m.Add(task(0, workload.PriorityMedium, 1000, 50, 0), 3, 0)
	m.Add(task(1, workload.PriorityMedium, 1000, 5, 1), 3, 1)
	g := m.Add(task(2, workload.PriorityMedium, 1000, 20, 2), 3, 2)
	if g == nil {
		t.Fatal("expected group")
	}
	for i := 1; i < g.Len(); i++ {
		if g.Tasks[i-1].AbsoluteDeadline() > g.Tasks[i].AbsoluteDeadline() {
			t.Fatal("group not EDF-sorted")
		}
	}
	if g.Tasks[0].ID != 1 {
		t.Fatalf("EDF head ID %d, want 1", g.Tasks[0].ID)
	}
}

func TestOpnumBelowOneClamped(t *testing.T) {
	m := NewMerger(ModeMixed, counter())
	g := m.Add(task(0, workload.PriorityMedium, 1000, 5, 0), 0, 0)
	if g == nil || g.Len() != 1 {
		t.Fatal("opnum<1 must behave as 1")
	}
}

func TestFlushAll(t *testing.T) {
	m := NewMerger(ModeIdentical, counter())
	m.Add(task(0, workload.PriorityLow, 1000, 20, 0), 10, 0)
	m.Add(task(1, workload.PriorityMedium, 1000, 10, 1), 10, 1)
	m.Add(task(2, workload.PriorityHigh, 1000, 2, 2), 10, 2)
	groups := m.FlushExpired(nil, 5, [4]float64{})
	if len(groups) != 3 {
		t.Fatalf("zero timeouts closed %d groups, want 3", len(groups))
	}
	if m.Pending() != 0 {
		t.Fatal("pending tasks after a zero-timeout flush")
	}
}

func TestGroupLifecycle(t *testing.T) {
	g := &Group{ID: 1, Tasks: []*workload.Task{
		task(0, workload.PriorityMedium, 1000, 5, 0),
		task(1, workload.PriorityMedium, 1000, 6, 0),
	}}
	if g.Dispatched() != 0 {
		t.Fatal("fresh group must not be dispatched")
	}
	first := g.NextUndispatched()
	if first == nil || first.ID != 0 {
		t.Fatal("EDF-first undispatched wrong")
	}
	g.NoteDispatched()
	g.NoteDispatched()
	if g.Dispatched() != len(g.Tasks) {
		t.Fatal("group should be fully dispatched")
	}
	if g.NextUndispatched() != nil {
		t.Fatal("no undispatched task should remain")
	}
	if g.NoteFinished(true) {
		t.Fatal("group complete after one of two finishes")
	}
	if !g.NoteFinished(false) {
		t.Fatal("group must report completion on last finish")
	}
	if g.Reward() != 1 {
		t.Fatalf("reward %d, want 1", g.Reward())
	}
}

func TestOverDispatchPanics(t *testing.T) {
	g := &Group{Tasks: []*workload.Task{task(0, workload.PriorityLow, 1, 1, 0)}}
	g.NoteDispatched()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-dispatch")
		}
	}()
	g.NoteDispatched()
}

func TestOverFinishPanics(t *testing.T) {
	g := &Group{Tasks: []*workload.Task{task(0, workload.PriorityLow, 1, 1, 0)}}
	g.NoteDispatched()
	g.NoteFinished(true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-finish")
		}
	}()
	g.NoteFinished(true)
}

func TestValidateDetectsDisorder(t *testing.T) {
	g := &Group{Tasks: []*workload.Task{
		task(0, workload.PriorityMedium, 1000, 50, 0),
		task(1, workload.PriorityMedium, 1000, 5, 0),
	}}
	if err := validateGroup(g); err == nil {
		t.Fatal("expected EDF-order validation error")
	}
}

func TestValidateIdenticalPriorityMembership(t *testing.T) {
	g := &Group{Mode: ModeIdentical, Priority: workload.PriorityHigh,
		Tasks: []*workload.Task{task(0, workload.PriorityLow, 1000, 1000, 0)}}
	if err := validateGroup(g); err == nil {
		t.Fatal("expected identical-priority membership error")
	}
}

func TestSetMode(t *testing.T) {
	m := NewMerger(ModeMixed, counter())
	m.SetMode(ModeIdentical)
	if m.mode != ModeIdentical {
		t.Fatal("SetMode did not switch")
	}
}

// Property: merging any sequence of tasks with any opnum never loses or
// duplicates a task: closed groups + pending = added.
func TestQuickMergeConservation(t *testing.T) {
	r := rng.NewStream(21, "q")
	f := func(n uint8, opnumRaw uint8, identical bool) bool {
		mode := ModeMixed
		if identical {
			mode = ModeIdentical
		}
		m := NewMerger(mode, counter())
		opnum := int(opnumRaw)%6 + 1
		total := int(n) % 60
		seen := map[int]int{}
		closed := 0
		for i := 0; i < total; i++ {
			prio := workload.Priorities[r.Intn(3)]
			g := m.Add(task(i, prio, 1000, r.Uniform(1, 50), float64(i)), opnum, float64(i))
			if g != nil {
				if validateGroup(g) != nil {
					return false
				}
				for _, tk := range g.Tasks {
					seen[tk.ID]++
				}
				closed += g.Len()
			}
		}
		for _, g := range m.FlushExpired(nil, float64(total), [4]float64{}) {
			for _, tk := range g.Tasks {
				seen[tk.ID]++
			}
			closed += g.Len()
		}
		if closed != total {
			return false
		}
		for id, c := range seen {
			if c != 1 || id < 0 || id >= total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ErrTG is zero iff fitness is 1 and non-negative everywhere.
func TestQuickErrTGProperties(t *testing.T) {
	f := func(raw uint16) bool {
		fitness := float64(raw)/1000 + 0.001
		e := ErrTG(fitness)
		if e < 0 {
			return false
		}
		if math.Abs(fitness-1) < 1e-12 && e > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMerge(b *testing.B) {
	r := rng.NewStream(1, "bench")
	m := NewMerger(ModeIdentical, counter())
	for i := 0; i < b.N; i++ {
		prio := workload.Priorities[r.Intn(3)]
		m.Add(task(i, prio, 1000, r.Uniform(1, 50), float64(i)), 5, float64(i))
	}
}

func TestFlushExpiredPerClassTimeouts(t *testing.T) {
	m := NewMerger(ModeIdentical, counter())
	// High-priority task waits since t=0, low-priority since t=2.
	m.Add(task(0, workload.PriorityHigh, 1000, 2, 0), 10, 0)
	m.Add(task(1, workload.PriorityLow, 1000, 50, 2), 10, 2)
	timeouts := [4]float64{40, 20, 5, 10} // low, medium, high, mixed
	// At t=6 only the high buffer (age 6 >= 5) expires.
	groups := m.FlushExpired(nil, 6, timeouts)
	if len(groups) != 1 || groups[0].Priority != workload.PriorityHigh {
		t.Fatalf("expected only the high buffer to expire, got %d groups", len(groups))
	}
	// At t=41 the low buffer (age 39 < 40) still holds...
	if got := m.FlushExpired(nil, 41, timeouts); len(got) != 0 {
		t.Fatalf("low buffer expired early: %d groups", len(got))
	}
	// ...and at t=42 it expires.
	groups = m.FlushExpired(nil, 42.1, timeouts)
	if len(groups) != 1 || groups[0].Priority != workload.PriorityLow {
		t.Fatalf("low buffer did not expire, got %d groups", len(groups))
	}
	if m.Pending() != 0 {
		t.Fatalf("%d tasks still pending", m.Pending())
	}
}

func TestFlushExpiredMixedBuffer(t *testing.T) {
	m := NewMerger(ModeMixed, counter())
	m.Add(task(0, workload.PriorityMedium, 1000, 5, 1), 10, 1)
	timeouts := [4]float64{40, 20, 5, 10}
	if got := m.FlushExpired(nil, 10, timeouts); len(got) != 0 {
		t.Fatal("mixed buffer expired before its timeout")
	}
	got := m.FlushExpired(nil, 11, timeouts)
	if len(got) != 1 || got[0].Mode != ModeMixed {
		t.Fatalf("mixed buffer flush: %v", got)
	}
}

func TestFlushExpiredEmpty(t *testing.T) {
	m := NewMerger(ModeMixed, counter())
	if got := m.FlushExpired(nil, 100, [4]float64{1, 1, 1, 1}); got != nil {
		t.Fatalf("empty merger flushed %d groups", len(got))
	}
}

func TestFlushExpiredAppendsToDst(t *testing.T) {
	m := NewMerger(ModeMixed, counter())
	m.Add(task(0, workload.PriorityMedium, 1000, 5, 1), 10, 1)
	prior := &Group{ID: -7}
	got := m.FlushExpired([]*Group{prior}, 20, [4]float64{1, 1, 1, 1})
	if len(got) != 2 || got[0] != prior || got[1].Mode != ModeMixed {
		t.Fatalf("FlushExpired must append after the existing entries, got %v", got)
	}
}

// Property: a closed group's cached PW is bit-identical to summing its
// tasks again, for groups closed by size, by flush and in either mode.
func TestClosedGroupPWMatchesRecomputed(t *testing.T) {
	r := rng.NewStream(23, "q")
	f := func(n, op uint8, identical bool) bool {
		mode := ModeMixed
		if identical {
			mode = ModeIdentical
		}
		m := NewMerger(mode, counter())
		var groups []*Group
		opnum := int(op)%6 + 1
		for i := 0; i < int(n)%40+1; i++ {
			tk := task(i, workload.Priorities[r.Intn(3)], r.Uniform(600, 7200), r.Uniform(1, 100), float64(i))
			if g := m.Add(tk, opnum, float64(i)); g != nil {
				groups = append(groups, g)
			}
		}
		groups = append(groups, m.FlushExpired(nil, 1e9, [4]float64{})...)
		for _, g := range groups {
			if math.Float64bits(g.PW()) != math.Float64bits(PW(g.Tasks)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// validateGroup checks the group invariants: finishes never exceed
// dispatches, deadline hits never exceed finishes, the undispatched tail
// stays EDF-ordered, and an identical-priority group holds one class.
func validateGroup(g *Group) error {
	if g.finished > g.dispatched {
		return fmt.Errorf("grouping: group %d finished %d > dispatched %d", g.ID, g.finished, g.dispatched)
	}
	if g.deadlineOK > g.finished {
		return fmt.Errorf("grouping: group %d deadlineOK %d > finished %d", g.ID, g.deadlineOK, g.finished)
	}
	for i := g.dispatched + 1; i < len(g.Tasks); i++ {
		if g.Tasks[i-1].AbsoluteDeadline() > g.Tasks[i].AbsoluteDeadline() {
			return fmt.Errorf("grouping: group %d undispatched tail not EDF-ordered at %d", g.ID, i)
		}
	}
	if g.Mode == ModeIdentical {
		for _, t := range g.Tasks {
			if t.Priority != g.Priority {
				return fmt.Errorf("grouping: identical-priority group %d holds %v task %d", g.ID, t.Priority, t.ID)
			}
		}
	}
	return nil
}
