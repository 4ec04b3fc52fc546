package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/isspl"
)

// output is what one op hands to its correctness check. An op fills the
// fields its class produces; the check compares them with references built in
// set-up from code the op does not run.
type output struct {
	sinks      map[string]*isspl.Matrix // DES classes: assembled sink matrices
	body       []byte                   // exec digest, emitted source, or HTTP response body
	want       []byte                   // hit: the primed fresh body the answer must equal
	status     int                      // HTTP status
	cache      string                   // X-Sage-Cache header
	virtualNS  int64                    // simulated elapsed time
	dispatches uint64                   // kernel events dispatched
	runNS      int64                    // host time inside sagert.Run
}

// class is one request shape of a workload.
type class struct {
	name string
	// run executes the op through the layers' public functions, wrapping
	// each call in a span of t. fresh is a value no earlier op of this run
	// received (serve_mix turns it into a cache-missing request seed).
	run func(t *opTrace, fresh int64) (*output, error)
	// check returns an error unless out is correct.
	check func(out *output) error
	// share is the class's part of a drawn mix (serve_mix), a whole number
	// of percent; rotation workloads run their classes in slice order and
	// ignore it.
	share float64
}

// instance is a workload after set-up: references built, caches primed,
// warm-up done.
type instance struct {
	name    string
	primary string
	clients int // closed-loop clients; 1 = fixed rotation, >1 = seeded draw
	classes []class
	// setupMetrics are end-to-end values computed once in set-up.
	setupMetrics map[string]float64
	// report derives the workload's per-layer metrics after a traced run.
	report func(m *measurement, put func(name string, v float64))
	// finish runs end-of-run checks (serve_mix: /v1/stats) and returns an
	// error if they fail.
	finish func() error
	close  func()
	// mutate, when set, corrupts every output before its check: the
	// self-test that the checks can fail.
	mutate func(class string, out *output)
}

// issued is one op as the load generator drew it.
type issued struct {
	class string
	fresh int64
}

// measurement is one closed-loop run of an instance.
type measurement struct {
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
	// lat holds per-class latencies (ms) of completed, correct ops;
	// latTraced/latPlain split the primary class by whether the op's spans
	// were recorded.
	lat                 map[string][]float64
	latTraced, latPlain []float64
	// Of the primary class's DES runs: host ns inside sagert.Run per
	// dispatched event, and the simulated elapsed time.
	nsPerEvent []float64
	virtualNS  int64
	sequence   []issued // what client 0 issued, in order
	mem0, mem1 runtime.MemStats
	rec        *recorder
}

func (m *measurement) completed() int {
	n := 0
	for _, l := range m.lat {
		n += len(l)
	}
	return n
}

// runLoop drives inst closed-loop for d. With rec == nil no span is recorded
// (the end-to-end run). With a recorder, every second rotation (or, in a
// drawn mix, every second op of a client) is recorded and the others are not,
// so one run yields both the spans and the cost of recording them.
//
// A rotation workload stops at the first rotation boundary after the
// deadline, so class shares are exact; a drawn mix stops at the deadline.
func runLoop(inst *instance, seed int64, d time.Duration, rec *recorder) *measurement {
	m := &measurement{lat: map[string][]float64{}, rec: rec}
	var mu sync.Mutex
	one := func(c *class, t *opTrace, fresh int64, client int) {
		start := time.Now()
		out, err := c.run(t, fresh)
		lat := time.Since(start)
		if err == nil {
			if inst.mutate != nil {
				inst.mutate(c.name, out)
			}
			t.start("bench.check")
			err = c.check(out)
			t.end()
		}
		t.finish()
		mu.Lock()
		defer mu.Unlock()
		m.attempted++
		if client == 0 {
			m.sequence = append(m.sequence, issued{c.name, fresh})
		}
		if err != nil {
			m.failed++
			if m.firstErr == nil {
				m.firstErr = fmt.Errorf("%s/%s: %w", inst.name, c.name, err)
			}
			return
		}
		ms := float64(lat.Nanoseconds()) / 1e6
		m.lat[c.name] = append(m.lat[c.name], ms)
		if c.name == inst.primary {
			if t != nil {
				m.latTraced = append(m.latTraced, ms)
			} else {
				m.latPlain = append(m.latPlain, ms)
			}
			if out.dispatches > 0 {
				m.nsPerEvent = append(m.nsPerEvent, float64(out.runNS)/float64(out.dispatches))
				m.virtualNS = out.virtualNS
			}
		}
	}

	runtime.ReadMemStats(&m.mem0)
	begin := time.Now()
	deadline := begin.Add(d)
	if inst.clients == 1 {
		// At least one rotation; a traced run needs a recorded and a plain one.
		minRot := 1
		if rec != nil {
			minRot = 2
		}
		for rot := 0; rot < minRot || time.Now().Before(deadline); rot++ {
			for i := range inst.classes {
				c := &inst.classes[i]
				var t *opTrace
				if rot%2 == 0 {
					t = rec.beginOp(c.name)
				}
				one(c, t, 0, 0)
			}
		}
	} else {
		var wg sync.WaitGroup
		for cl := 0; cl < inst.clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(clientSeed(seed, cl)))
				deck := newDeck(inst.classes)
				for n := 0; time.Now().Before(deadline); n++ {
					c := deck.draw(rng)
					fresh := freshSeed(rng)
					var t *opTrace
					if n%2 == 0 {
						t = rec.beginOp(c.name)
					}
					one(c, t, fresh, cl)
				}
			}(cl)
		}
		wg.Wait()
	}
	m.wall = time.Since(begin)
	runtime.ReadMemStats(&m.mem1)
	if inst.finish != nil {
		if err := inst.finish(); err != nil {
			m.attempted++
			m.failed++
			if m.firstErr == nil {
				m.firstErr = fmt.Errorf("%s: %w", inst.name, err)
			}
		}
	}
	return m
}

// warmUp runs one rotation, checking each result, so lazy initialisation and
// heap growth happen before timing.
func warmUp(inst *instance, seed int64) error {
	m := runLoop(inst, seed, 0, nil)
	if m.failed > 0 {
		inst.close()
		return fmt.Errorf("warm-up: %w", m.firstErr)
	}
	return nil
}

// clientSeed derives client cl's generator seed from the workload seed.
func clientSeed(seed int64, cl int) int64 { return seed*1_000_003 + int64(cl)*7919 + 1 }

// deck draws classes without replacement from 100 cards dealt by share and
// reshuffled when exhausted: the order is the seed's, the mix is exact over
// every 100 ops of a client, so two seeds load the system alike.
type deck struct {
	cards []*class
	next  int
}

func newDeck(classes []class) *deck {
	d := &deck{}
	for i := range classes {
		for n := int(classes[i].share*100 + 0.5); n > 0; n-- {
			d.cards = append(d.cards, &classes[i])
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw(rng *rand.Rand) *class {
	if d.next == len(d.cards) {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// freshSeed draws a request seed of fixed decimal width, so that response
// sizes do not depend on the draw.
func freshSeed(rng *rand.Rand) int64 { return 1_000_000_000 + rng.Int63n(9_000_000_000) }
