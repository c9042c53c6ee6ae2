package des_test

import (
	"fmt"

	"rlsched/internal/des"
)

// Example shows the scheduling primitives: absolute and relative events,
// cancellation and the periodic helper.
func Example() {
	sim := des.New()

	sim.At(10, des.EventFunc(func(s *des.Simulator) {
		fmt.Printf("event at t=%g\n", s.Now())
	}))
	sim.AfterFunc(2, func(s *des.Simulator) {
		fmt.Printf("relative event at t=%g\n", s.Now())
	})
	cancelled := sim.At(5, des.EventFunc(func(*des.Simulator) {
		fmt.Println("never printed")
	}))
	sim.Cancel(cancelled)

	ticks := 0
	stop := func() {}
	stop = sim.Every(4, func(s *des.Simulator) {
		ticks++
		if ticks == 2 {
			stop()
		}
	})

	end := sim.Run()
	fmt.Printf("finished at t=%g after %d ticks\n", end, ticks)
	// Output:
	// relative event at t=2
	// event at t=10
	// finished at t=10 after 2 ticks
}
