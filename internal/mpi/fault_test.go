package mpi

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/platforms"
	"repro/internal/sim"
	"repro/internal/trace"
)

// faultWorld builds an n-node CSPI world with a fault plan installed.
func faultWorld(t *testing.T, n int, plan *fault.Plan) (*sim.Kernel, *World) {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	m := machine.New(k, platforms.CSPI(), n)
	m.SetFaults(plan.NewInjector())
	return k, NewWorld(m)
}

func dropEverything() *fault.Plan {
	return fault.DropAll(1, 1) // rate 1: every attempt dropped
}

// TestSendSurvivesTotalDrop is the termination guarantee end to end: even
// with a 100% drop rate the retry protocol exhausts its attempt budget and
// forces the message through the maintenance path — the payload arrives, the
// run terminates, no deadlock.
func TestSendSurvivesTotalDrop(t *testing.T) {
	k, w := faultWorld(t, 2, dropEverything())
	w.SetRetry(fault.RetryPolicy{MaxAttempts: 3})
	var got []complex128
	w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, ComplexPayload([]complex128{5 + 6i}))
		} else {
			got = r.Recv(0, 7).Complex()
		}
	})
	run(t, k)
	if len(got) != 1 || got[0] != 5+6i {
		t.Fatalf("payload lost under total drop: %v", got)
	}
	if drops := w.Mach.Faults().Counts()["drop"]; drops != 3 {
		t.Fatalf("expected exactly MaxAttempts=3 drops before the forced path, got %d", drops)
	}
}

// TestRetryRecoversAndIsSlower: a faulted send must still deliver, later
// than the fault-free send, and the trace must carry the retry span.
func TestRetryRecoversAndIsSlower(t *testing.T) {
	arrival := func(plan *fault.Plan, col *trace.Collector) sim.Time {
		var k *sim.Kernel
		var w *World
		if plan == nil {
			k, w = world(2)
		} else {
			k, w = faultWorld(t, 2, plan)
		}
		w.Mach.SetTrace(col)
		var done sim.Time
		w.Launch("t", func(r *Rank) {
			if r.ID() == 0 {
				r.Send(1, 1, Payload{Bytes: 10_000})
			} else {
				r.Recv(0, 1)
				done = r.Proc().Now()
			}
		})
		run(t, k)
		return done
	}
	clean := arrival(nil, nil)
	// A half-rate drop plan: with the default 24-attempt budget the send
	// always gets through on some attempt, strictly later than clean.
	col := trace.New("retry")
	faulted := arrival(fault.DropAll(3, 0.5), col)
	if faulted <= clean {
		t.Fatalf("faulted delivery (%v) not slower than clean (%v)", faulted, clean)
	}
	kinds := map[string]int{}
	for _, f := range col.Faults() {
		kinds[f.Kind] = f.Count
	}
	if kinds["drop"] == 0 || kinds["retry"] == 0 {
		t.Fatalf("trace missing drop/retry events: %v", kinds)
	}
}

// TestGiveupTracedOnForcedDelivery: exhausting the budget emits a giveup
// span.
func TestGiveupTracedOnForcedDelivery(t *testing.T) {
	k, w := faultWorld(t, 2, dropEverything())
	w.SetRetry(fault.RetryPolicy{MaxAttempts: 2})
	col := trace.New("giveup")
	w.Mach.SetTrace(col)
	w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, Empty())
		} else {
			r.Recv(0, 1)
		}
	})
	run(t, k)
	kinds := map[string]int{}
	for _, f := range col.Faults() {
		kinds[f.Kind] = f.Count
	}
	if kinds["giveup"] != 1 {
		t.Fatalf("want one giveup, got %v", kinds)
	}
}

// TestBackoffDelaysRetries: the retry loop must actually wait between
// attempts — the faulted delivery time includes the geometric backoff sleeps.
func TestBackoffDelaysRetries(t *testing.T) {
	k, w := faultWorld(t, 2, dropEverything())
	pol := fault.RetryPolicy{MaxAttempts: 4, Backoff: 100 * time.Microsecond, Multiplier: 2}.WithDefaults()
	w.SetRetry(pol)
	var done sim.Time
	w.Launch("t", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, Empty())
		} else {
			r.Recv(0, 1)
			done = r.Proc().Now()
		}
	})
	run(t, k)
	// Three backoffs happen before the forced fourth+1 path: 100+200+400us.
	minBackoff := sim.Time(700 * time.Microsecond)
	if done < minBackoff {
		t.Fatalf("delivery at %v, want at least %v of backoff", done, minBackoff)
	}
}

// TestRecvTimeoutExpires: with no sender, a timed receive returns ok=false
// after exactly the timeout, and the rank can keep working.
func TestRecvTimeoutExpires(t *testing.T) {
	k, w := world(2)
	var ok bool
	var at sim.Time
	w.Launch("t", func(r *Rank) {
		if r.ID() == 1 {
			_, ok = r.RecvTimeout(0, 7, 300*time.Microsecond)
			at = r.Proc().Now()
		}
	})
	run(t, k)
	if ok {
		t.Fatal("timed receive matched a message nobody sent")
	}
	if at != sim.Time(300*time.Microsecond) {
		t.Fatalf("timeout fired at %v, want 300us", at)
	}
}

// TestRecvTimeoutMatchesEarlyMessage: a message arriving before the deadline
// is returned with ok=true, and a pending message matches instantly.
func TestRecvTimeoutMatchesEarlyMessage(t *testing.T) {
	k, w := world(2)
	var ok, ok2 bool
	var got Payload
	w.Launch("t", func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 7, Payload{Bytes: 4, Data: []float64{42}})
		case 1:
			got, ok = r.RecvTimeout(0, 7, time.Second)
			// Nothing more is coming: a second timed receive must expire.
			_, ok2 = r.RecvTimeout(0, 7, 100*time.Microsecond)
		}
	})
	run(t, k)
	if !ok || got.Data.([]float64)[0] != 42 {
		t.Fatalf("timed receive missed the message: ok=%v got=%+v", ok, got)
	}
	if ok2 {
		t.Fatal("second timed receive matched a phantom message")
	}
}

// TestRecvTimeoutThenLateArrival: a message that arrives after the waiter
// timed out must not be lost — it lands in the pending set and satisfies the
// next receive.
func TestRecvTimeoutThenLateArrival(t *testing.T) {
	k, w := world(2)
	var firstOK bool
	var second Payload
	w.Launch("t", func(r *Rank) {
		switch r.ID() {
		case 0:
			// Sleep past the receiver's first deadline, then send.
			r.Proc().Sleep(500 * time.Microsecond)
			r.Send(1, 7, Payload{Bytes: 4, Data: []float64{7}})
		case 1:
			_, firstOK = r.RecvTimeout(0, 7, 100*time.Microsecond)
			second = r.Recv(0, 7)
		}
	})
	run(t, k)
	if firstOK {
		t.Fatal("first receive should have timed out")
	}
	if second.Data.([]float64)[0] != 7 {
		t.Fatalf("late message lost: %+v", second)
	}
}

// TestFaultFreeSendUnchanged: without an injector the resilient path is never
// taken — timing is identical to the pre-fault-subsystem behaviour.
func TestFaultFreeSendUnchanged(t *testing.T) {
	timing := func(setRetry bool) sim.Time {
		k, w := world(2)
		if setRetry {
			w.SetRetry(fault.DefaultRetry())
		}
		var done sim.Time
		w.Launch("t", func(r *Rank) {
			if r.ID() == 0 {
				r.Send(1, 1, Payload{Bytes: 64_000})
			} else {
				r.Recv(0, 1)
				done = r.Proc().Now()
			}
		})
		run(t, k)
		return done
	}
	if a, b := timing(false), timing(true); a != b {
		t.Fatalf("retry policy changed fault-free timing: %v vs %v", a, b)
	}
}
