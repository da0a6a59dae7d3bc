package backend

import "sync"

// flowWindow is a replica's in-flight window: a counting semaphore of fixed
// capacity. acquire blocks while the window is full (the backpressure the
// LoadGen is meant to observe), release wakes one waiter, and load is the
// occupancy the router's least-in-flight choice reads.
type flowWindow struct {
	mu    sync.Mutex
	cond  *sync.Cond
	limit int
	used  int
}

func newFlowWindow(limit int) *flowWindow {
	w := &flowWindow{limit: limit}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire blocks until an in-flight slot is free, then takes it.
func (w *flowWindow) acquire() {
	w.mu.Lock()
	for w.used >= w.limit {
		w.cond.Wait()
	}
	w.used++
	w.mu.Unlock()
}

// release frees one slot and wakes one waiter.
func (w *flowWindow) release() {
	w.mu.Lock()
	w.used--
	w.cond.Signal()
	w.mu.Unlock()
}

// load returns the current in-flight count (the router's least-loaded key).
func (w *flowWindow) load() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.used
}
