package main

import (
	"net"
	"testing"
	"time"

	"bladerunner/internal/ctrl"
)

// A ctrl conn whose peer hangs up leaves the server's conn set, so
// restarted peers do not pile up dead conns.
func TestCtrlServerForgetsClosedConns(t *testing.T) {
	s, err := newCtrlServer("127.0.0.1:0", "test", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns)
	}
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli := ctrl.NewConn("test->ctrl", c, nil).Start()
	// A served ping proves the server accepted and registered the conn.
	if _, err := ctrl.Ping(cli); err != nil {
		t.Fatal(err)
	}
	if n := live(); n != 1 {
		t.Fatalf("live conns after accept = %d, want 1", n)
	}
	_ = cli.Close()
	waitFor(t, "server to forget the closed conn", 5*time.Second, func() bool { return live() == 0 })
}
