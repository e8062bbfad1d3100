package device

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/overload"
	"bladerunner/internal/sim"
)

// heldSched is a goroutine-safe manual scheduler: callbacks wait until the
// test releases them, so repair triggers coalesce deterministically.
type heldSched struct {
	sim.RealClock

	mu      sync.Mutex
	pending []func()
}

func (h *heldSched) After(_ time.Duration, fn func()) func() {
	h.mu.Lock()
	h.pending = append(h.pending, fn)
	h.mu.Unlock()
	return func() {}
}

func (h *heldSched) held() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending)
}

// release runs every callback held so far.
func (h *heldSched) release() {
	h.mu.Lock()
	fns := h.pending
	h.pending = nil
	h.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// TestGapResumeFromContiguousSeq feeds payload seqs 1, 2, 4 and then a shed
// marker on a cursor stream whose server-side cursor has advanced to 4.
// The device applied 1 and 2 with no hole, so the repair resubscribes from
// 2, not from the highest seq it saw; resuming from 4 would strand seq 3
// forever.
func TestGapResumeFromContiguousSeq(t *testing.T) {
	sched := &heldSched{}
	env := newDevEnvOn(t, sched)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("messenger", "messenger", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pop stream", func() bool { return env.popA.stream(0) != nil })
	srv := env.popA.stream(0)

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// The BRASS writes the cursor at open and advances it after every
	// push, shed ones included (seq 3 was shed on the way).
	must(srv.RewriteHeaderField(burst.HdrCursor, "1.0"))
	for _, seq := range []uint64{1, 2, 4} {
		must(srv.SendBatch(burst.PayloadDelta(seq, []byte("m"))))
		must(srv.RewriteHeaderField(burst.HdrCursor, fmt.Sprintf("1.%d", seq)))
	}
	must(srv.SendBatch(burst.FlowStatusDelta(burst.FlowDegraded, overload.ShedMarkerPrefix+"stream-admission")))
	waitFor(t, "shed marker pumped", func() bool { return env.dev.FlowEvents.Value() == 1 })
	waitFor(t, "cursor rewritten to 4", func() bool { return st.Request().Header[burst.HdrCursor] == "1.4" })

	sched.release()
	waitFor(t, "resubscribe", func() bool { return env.popA.stream(1) != nil })
	if n := env.dev.CursorResumes.Value(); n != 1 {
		t.Errorf("CursorResumes = %d, want 1", n)
	}
	if got := env.popA.stream(1).Request().Header[burst.HdrCursor]; got != "1.2" {
		t.Fatalf("resubscribe cursor = %q, want 1.2 (the gap-free applied seq)", got)
	}

	// The serving BRASS catches up from the clamped cursor.
	must(env.popA.stream(1).SendBatch(burst.PayloadDelta(3, []byte("m")), burst.PayloadDelta(4, []byte("m"))))
	deadline := time.After(5 * time.Second)
	for {
		select {
		case d := <-st.Updates:
			if d.Seq == 3 {
				return
			}
		case <-deadline:
			t.Fatal("seq 3 never delivered")
		}
	}
}
