package ctrl

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// A peer that reads everything and never answers — not even the
// heartbeat's pings — must not strand a Call: the heartbeat declares the
// session dead and the pending Call fails with ErrConnClosed.
func TestCallFailsOnSilentPeer(t *testing.T) {
	t.Parallel()
	a, b := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, b) }()
	ca := NewConn("a", a, nil).Start()
	t.Cleanup(func() {
		_ = ca.Close()
		_ = b.Close()
	})
	done := make(chan error, 1)
	go func() { done <- ca.Call("never", nil, nil) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) {
			t.Errorf("call on silent peer: err = %v, want ErrConnClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call on a silent peer still pending after 10s")
	}
}

// Pings are answered by the session read loop, not the dispatcher, so a
// handler slower than a whole heartbeat cycle does not kill the conn.
func TestSlowHandlerKeepsConnAlive(t *testing.T) {
	t.Parallel()
	ca, cb := pair(t)
	cb.Handle("slow", func(json.RawMessage) (any, error) {
		time.Sleep(keepaliveInterval + keepaliveTimeout + 500*time.Millisecond)
		return struct{ OK bool }{true}, nil
	})
	var out struct{ OK bool }
	if err := ca.Call("slow", nil, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Error("slow call lost its result")
	}
}
