package backend

import (
	"testing"
	"time"
)

// TestFlowWindowFixedLimit pins the semaphore semantics: acquire blocks at
// the limit, and each release admits exactly one blocked acquirer.
func TestFlowWindowFixedLimit(t *testing.T) {
	w := newFlowWindow(2)
	w.acquire()
	w.acquire()
	if w.load() != 2 {
		t.Fatalf("load = %d, want 2", w.load())
	}

	acquired := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			w.acquire()
			acquired <- struct{}{}
		}()
	}
	select {
	case <-acquired:
		t.Fatal("acquire succeeded past the limit")
	case <-time.After(20 * time.Millisecond):
	}

	w.release() // one slot frees: exactly one waiter gets it
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("acquire still blocked after a release")
	}
	select {
	case <-acquired:
		t.Fatal("one release admitted two waiters")
	case <-time.After(20 * time.Millisecond):
	}
	if w.load() != 2 {
		t.Fatalf("load = %d, want 2 (at the limit)", w.load())
	}

	w.release()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("second waiter never admitted")
	}
	w.release()
	w.release()
	if w.load() != 0 {
		t.Fatalf("load = %d after releasing everything, want 0", w.load())
	}
}
