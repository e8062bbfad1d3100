package device

import (
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/overload"
)

// Regression for the slow-device control-delta bug: the apply path used to
// best-effort-drop WHOLE batches when a stream's buffer was full — control
// deltas included — so a device that stalled while degraded could lose the
// FlowRecovered notice and show "degraded" forever. Now only payload
// deltas shed (burst client evicts + salvages control; the device Flow
// channel coalesces stale codes). The app must always observe the latest
// flow state.
func TestSlowDeviceNeverLosesFlowRecovered(t *testing.T) {
	env := newDevEnv(t)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("app", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pop stream", func() bool { return env.popA.stream(0) != nil })
	srv := env.popA.stream(0)

	// The device never reads Updates or Flow while the server floods it:
	// stale FlowDegraded notices overfill the Flow buffer (cap 16) and
	// payload deltas overfill both the burst event buffer (256 batches)
	// and the Updates channel (256).
	const degraded, payloads = 40, 800
	for i := 0; i < degraded; i++ {
		if err := srv.SendBatch(burst.FlowStatusDelta(burst.FlowDegraded, "upstream pressure")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < payloads; i++ {
		if err := srv.SendBatch(burst.PayloadDelta(uint64(i+1), []byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.SendBatch(burst.FlowStatusDelta(burst.FlowRecovered, "pressure gone")); err != nil {
		t.Fatal(err)
	}
	// Every flow delta must reach the pump (none may die in the transport):
	waitFor(t, "all flow events pumped", func() bool {
		return env.dev.FlowEvents.Value() == degraded+1
	})

	// The slow app finally drains Flow: whatever was coalesced away, the
	// LAST code it observes must be FlowRecovered. (waitFor covers the
	// pump finishing its final pushFlow after the counter tick.)
	var last burst.FlowCode // 0 = none seen (codes start at FlowDegraded=1)
	waitFor(t, "FlowRecovered to surface", func() bool {
		for {
			select {
			case code := <-st.Flow:
				last = code
				continue
			default:
			}
			break
		}
		return last == burst.FlowRecovered
	})
	if env.dev.FlowCoalesced.Value() == 0 {
		t.Error("expected stale flow codes to be coalesced under pressure")
	}
	if env.dev.RenderDrops.Value() == 0 {
		t.Error("expected payload render drops while the app stalled")
	}
}

// A shed-marker FlowDegraded means deltas were dropped upstream and the
// gap cannot be trusted: a cursor stream cancels and resubscribes from its
// gap-free seq, and the serving BRASS catches it up. A plain degraded
// notice, or a shed marker on a stream without a cursor, repairs nothing.
func TestShedMarkerTriggersResync(t *testing.T) {
	sched := &heldSched{}
	env := newDevEnvOn(t, sched)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	plain, err := env.dev.Subscribe("app", "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := env.dev.Subscribe("messenger", "messenger", burst.Header{burst.HdrCursor: "1.9"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pop streams", func() bool { return env.popA.stream(1) != nil })
	plainSrv, srv := env.popA.stream(0), env.popA.stream(1)

	send := func(ss *burst.ServerStream, d burst.Delta) {
		t.Helper()
		if err := ss.SendBatch(d); err != nil {
			t.Fatal(err)
		}
	}
	// Neither a non-shed degraded notice (a connectivity blip) nor a shed
	// marker on a best-effort stream triggers a repair; a shed marker on
	// the cursor stream does.
	send(srv, burst.FlowStatusDelta(burst.FlowDegraded, "blip"))
	send(plainSrv, burst.FlowStatusDelta(burst.FlowDegraded, overload.ShedMarkerPrefix+"brass-loop"))
	send(srv, burst.FlowStatusDelta(burst.FlowDegraded, overload.ShedMarkerPrefix+"brass-loop"))
	// The pump decides on a repair before it hands the flow code to the
	// app, so once every code is out all three decisions are made.
	recvFlow := func(s *Stream, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-s.Flow:
			case <-time.After(5 * time.Second):
				t.Fatal("flow code never surfaced")
			}
		}
	}
	recvFlow(plain, 1)
	recvFlow(st, 2)
	if n := sched.held(); n != 1 {
		t.Fatalf("%d repairs scheduled, want 1 (the shed cursor stream only)", n)
	}

	sched.release()
	waitFor(t, "cursor resubscribe", func() bool { return env.popA.stream(2) != nil })
	if n := env.dev.CursorResumes.Value(); n != 1 {
		t.Errorf("CursorResumes = %d, want 1", n)
	}
	env.popA.mu.Lock()
	cancels := env.popA.cancels
	env.popA.mu.Unlock()
	if cancels != 1 {
		t.Errorf("cancels = %d, want 1 (the shed stream only)", cancels)
	}
	if got := env.popA.stream(2).Request().Header[burst.HdrCursor]; got != "1.9" {
		t.Errorf("resubscribed cursor = %q, want 1.9", got)
	}
}

// Repair triggers arriving while a resume is scheduled collapse into it:
// the resubscribe replays everything after the clamped cursor, so five
// shed markers cost one resubscribe. A fresh marker after it ran starts
// anew.
func TestResyncCoalescesInFlight(t *testing.T) {
	sched := &heldSched{}
	env := newDevEnvOn(t, sched)
	if err := env.dev.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := env.dev.Subscribe("messenger", "messenger", burst.Header{burst.HdrCursor: "1.0"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pop stream", func() bool { return env.popA.stream(0) != nil })
	srv := env.popA.stream(0)

	for i := 0; i < 5; i++ {
		if err := srv.SendBatch(burst.FlowStatusDelta(
			burst.FlowDegraded, overload.ShedMarkerPrefix+"storm")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "flow events", func() bool { return env.dev.FlowEvents.Value() == 5 })
	if n := env.dev.ResumeCoalesced.Value(); n != 4 {
		t.Fatalf("ResumeCoalesced = %d, want 4", n)
	}
	sched.release()
	waitFor(t, "one resubscribe", func() bool { return env.popA.stream(1) != nil })
	if n := env.dev.CursorResumes.Value(); n != 1 {
		t.Fatalf("CursorResumes = %d, want 1", n)
	}

	if err := env.popA.stream(1).SendBatch(burst.FlowStatusDelta(
		burst.FlowDegraded, overload.ShedMarkerPrefix+"again")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fresh trigger", func() bool { return sched.held() == 1 })
	sched.release()
	waitFor(t, "fresh resume after settle", func() bool { return env.popA.stream(2) != nil })
	if n := env.dev.CursorResumes.Value(); n != 2 {
		t.Fatalf("CursorResumes = %d, want 2", n)
	}
}
