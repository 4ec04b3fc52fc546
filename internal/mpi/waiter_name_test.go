package mpi

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// waitNames is a sim.Tracer that keeps the object name of every Wait span.
type waitNames struct{ objects []string }

func (w *waitNames) ProcStart(int, string, sim.Time) {}
func (w *waitNames) ProcEnd(int, string, sim.Time)   {}
func (w *waitNames) Wait(pid int, proc, kind, object string, from, to sim.Time, depth int) {
	w.objects = append(w.objects, object)
}
func (w *waitNames) ChanOp(string, string, int, sim.Time)               {}
func (w *waitNames) ResourceOp(string, string, int, int, int, sim.Time) {}

// TestWaiterNamesRenderedOnDemand drives one pooled waiter through three
// keys — (0,5), then recycled and re-keyed to (0,9), then to (0,11), which
// never arrives — and requires the traced Wait spans and the deadlock report
// to carry exactly the strings an eager Sprintf per wait would have set,
// with a tracer installed and (deadlock text only) without one.
func TestWaiterNamesRenderedOnDemand(t *testing.T) {
	eager := func(tag int) string { return fmt.Sprintf("mpi.rank%d.recv(src=%d,tag=%d)", 1, 0, tag) }
	for _, traced := range []bool{true, false} {
		k, w := world(2)
		tr := &waitNames{}
		if traced {
			k.SetTracer(tr)
		}
		w.Launch("t", func(r *Rank) {
			if r.ID() == 0 {
				for _, tag := range []int{5, 9} {
					r.Proc().Sleep(time.Millisecond)
					r.Send(1, tag, Empty())
				}
				return
			}
			for _, tag := range []int{5, 9, 11} {
				r.Recv(0, tag)
			}
		})
		err := k.Run()
		k.Shutdown()
		de, ok := err.(*sim.DeadlockError)
		if !ok {
			t.Fatalf("traced=%v: Run = %v, want a DeadlockError", traced, err)
		}
		if want := []string{"t.rank1(1): recv " + eager(11)}; !reflect.DeepEqual(de.Blocked, want) {
			t.Errorf("traced=%v: deadlock report %q, want %q", traced, de.Blocked, want)
		}
		if want := []string{eager(5), eager(9)}; traced && !reflect.DeepEqual(tr.objects, want) {
			t.Errorf("Wait spans on %q, want %q", tr.objects, want)
		}
	}
}
