package device

import (
	"net"
	"sync"
	"testing"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/sim"
)

// These are white-box tests of the device's one repair path for cursor
// streams: the clamp to the gap-free applied seq on resubscribe, and the
// coalescing of repair triggers under repeated shed markers.

// newIdleDevice builds a device on a manual engine whose timers never fire:
// After(0, fn) stays pending, which makes pending-state assertions
// deterministic.
func newIdleDevice(t *testing.T) (*Device, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine(time.Unix(0, 0))
	d := New(Config{User: 7, POPs: []string{"pop-0"}}, nil, nil, eng)
	t.Cleanup(d.Close)
	return d, eng
}

func newIdleStream(d *Device) *Stream {
	return &Stream{
		dev:     d,
		Updates: make(chan burst.Delta, 4),
		Flow:    make(chan burst.FlowCode, 4),
		req:     burst.Subscribe{Header: burst.Header{burst.HdrApp: "messenger"}},
		bo:      d.backoff.Child(1),
	}
}

func TestCursorResumeCoalesces(t *testing.T) {
	d, _ := newIdleDevice(t)
	st := newIdleStream(d)
	st.req.Header[burst.HdrCursor] = "1.4"

	// First marker schedules the resume; the engine never runs, so it
	// stays pending and the next two markers coalesce into it.
	st.triggerCursorResume()
	st.triggerCursorResume()
	st.triggerCursorResume()
	if got := d.ResumeCoalesced.Value(); got != 2 {
		t.Fatalf("ResumeCoalesced = %d, want 2", got)
	}
	if got := d.CursorResumes.Value(); got != 0 {
		t.Fatalf("CursorResumes = %d before the timer fired", got)
	}
}

// TestResubscribeClampsCursor proves the client half of never-fabricate:
// a resubscribe lowers a server-advanced cursor to the device's gap-free
// applied seq, and leaves an honest (lower) cursor untouched.
func TestResubscribeClampsCursor(t *testing.T) {
	cases := []struct {
		name   string
		cursor string
		seq    uint64
		want   string
	}{
		{"over-claim lowered", "2.9", 4, "2.4"},
		{"honest claim untouched", "2.3", 4, "2.3"},
		{"sentinel passes through", "earliest", 4, "earliest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := newIdleDevice(t)
			st := newIdleStream(d)
			st.req.Header[burst.HdrCursor] = tc.cursor
			st.applied = tc.seq

			a, b := net.Pipe()
			var (
				mu   sync.Mutex
				subs []burst.Subscribe
			)
			srv := burst.NewServerSession("brass", b, burst.ServerHandlerFuncs{
				Subscribe: func(_ *burst.ServerStream, sub burst.Subscribe) {
					mu.Lock()
					subs = append(subs, sub)
					mu.Unlock()
				},
			})
			cli := burst.NewClient("dev", a, nil)
			t.Cleanup(func() { cli.Close(); srv.Close() })

			st.resubscribe(cli)
			deadline := time.Now().Add(5 * time.Second)
			for {
				mu.Lock()
				n := len(subs)
				mu.Unlock()
				if n > 0 || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(subs) != 1 {
				t.Fatalf("server saw %d subscribes", len(subs))
			}
			if got := subs[0].Header[burst.HdrCursor]; got != tc.want {
				t.Fatalf("resubscribed cursor = %q, want %q", got, tc.want)
			}
		})
	}
}
