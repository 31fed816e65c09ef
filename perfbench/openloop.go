package main

import (
	"sync"
	"time"
)

// openLoop sends request i at start+due[i] regardless of how earlier
// requests fare: independent users, not callers waiting for replies. At most
// workers requests are in flight; a request due while every worker is busy
// waits, and that wait counts in its latency, which runs from the due time.
// late[i] is how long after its due time the generator got around to request
// i — the generator's own lag, not the system's queueing — so a run whose
// generator fell behind shows it. The generator's sleeps are recorded as
// bench.idle spans under parent.
func openLoop(rec *Recorder, parent int, start time.Time, due []time.Duration, workers int, do func(i int, dueAt time.Time)) (lat, late []time.Duration) {
	lat = make([]time.Duration, len(due))
	late = make([]time.Duration, len(due))
	// Buffered for every request, so the generator never waits for a
	// worker: a request due while all are busy queues here.
	work := make(chan int, len(due))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				at := start.Add(due[i])
				do(i, at)
				lat[i] = time.Since(at)
			}
		}()
	}
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			idle := rec.Begin("bench.idle", parent, 0)
			time.Sleep(wait)
			rec.End(idle)
		}
		late[i] = time.Since(at)
		work <- i
	}
	close(work)
	wg.Wait()
	return lat, late
}
