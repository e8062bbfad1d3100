// Package ctrl is the control protocol between Bladerunner tier processes:
// a small request/response layer over one burst.Session, carried over any
// io.ReadWriteCloser (in production a TCP connection). It exists so the
// multi-process deployment (cmd/brnode) can cut the in-process cluster at
// its interface seams — brass.PubSub, brass.Backend, device.Backend — and
// replace a function call with a socket without the tiers noticing.
//
// Every message is one BURST frame whose SID is the request id:
//
//	FrameRequest  uvarint len(method), method, params JSON
//	FrameReply    result JSON (empty for a nil result)
//	FrameError    uvarint len(code), code, message
//
// A notification is a request with SID 0: no reply, even on error.
//
// Both ends may call and serve on the same Conn; each side numbers its own
// requests from 1. The session's read loop resolves replies directly and
// queues requests; one dispatcher goroutine serves them in arrival order,
// so a handler that Calls back over the same Conn cannot deadlock against
// the loop that reads its reply, and event delivery (pylon.deliver) stays
// ordered per connection, matching Pylon's per-topic ordering contract.
//
// Only the Session is used, never burst.Client/Server streams, so nothing
// on the control path is shed. Start heartbeats the session: a peer that
// stops answering pings is declared dead and every pending Call fails with
// ErrConnClosed.
package ctrl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"bladerunner/internal/burst"
	"bladerunner/internal/sim"
)

// ErrConnClosed is wrapped by calls that fail because the connection is
// (or just became) closed.
var ErrConnClosed = errors.New("ctrl: connection closed")

// Heartbeat: a ping every keepaliveInterval; a peer whose pong has not
// arrived keepaliveTimeout after the ping is dead. The peer's session, not
// its dispatcher, answers pings, so a slow handler cannot trip it.
const (
	keepaliveInterval = time.Second
	keepaliveTimeout  = 3 * time.Second
)

// Handler serves one method. The returned value is marshaled as the
// result; a returned error is mapped to a wire error (sentinel identities
// surviving via wire/unwire).
type Handler func(params json.RawMessage) (any, error)

// handle registers fn for method, decoding the params JSON into a P.
func handle[P any](conn *Conn, method string, fn func(P) (any, error)) {
	conn.Handle(method, func(params json.RawMessage) (any, error) {
		var p P
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, err
		}
		return fn(p)
	})
}

// Conn is one control connection. Safe for concurrent use.
type Conn struct {
	name    string
	rwc     io.ReadWriteCloser
	onClose func(error)

	mu       sync.Mutex
	sess     *burst.Session // set by Start
	ka       *burst.Keepalive
	handlers map[string]Handler
	pending  map[uint64]chan burst.Frame
	nextID   uint64
	closed   bool
	err      error

	// Incoming requests queue here (unbounded, so the session read loop
	// never blocks behind a slow handler) and drain in order on the
	// dispatcher goroutine.
	qmu   sync.Mutex
	qcond *sync.Cond
	queue []burst.Frame
	qdone bool

	wg sync.WaitGroup // the dispatcher
}

// NewConn wraps rwc in a control connection. name labels errors. onClose,
// when non-nil, fires once when the connection dies (nil error for a local
// Close). Nothing is read until Start — register every handler first, so a
// fast peer's first request cannot race registration.
func NewConn(name string, rwc io.ReadWriteCloser, onClose func(error)) *Conn {
	c := &Conn{
		name:     name,
		rwc:      rwc,
		onClose:  onClose,
		handlers: make(map[string]Handler),
		pending:  make(map[uint64]chan burst.Frame),
	}
	c.qcond = sync.NewCond(&c.qmu)
	return c
}

// Start opens the session, its heartbeat and the dispatcher. Call exactly
// once, after handler registration and before any Call or Notify.
func (c *Conn) Start() *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c
	}
	c.sess = burst.NewSession(c.name, c.rwc, burst.HandlerFuncs{OnFrame: c.receive, OnClose: c.closeWith})
	c.ka = burst.StartKeepalive(c.sess, sim.RealClock{}, keepaliveInterval, keepaliveTimeout)
	c.wg.Add(1)
	go c.dispatchLoop()
	return c
}

// Handle registers fn for method. Registration after traffic has started
// is racy by design choice: register every handler before the peer can
// send (i.e. immediately after NewConn on the accepting side).
func (c *Conn) Handle(method string, fn Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handlers[method] = fn
}

// Call sends a request and blocks for the matching response. result, when
// non-nil, receives the unmarshaled result payload. Wire errors come back
// with sentinel identity restored where the code maps to one.
func (c *Conn) Call(method string, params, result any) error {
	payload, err := request(method, params)
	if err != nil {
		return fmt.Errorf("ctrl %s: marshal %s params: %w", c.name, method, err)
	}
	ch := make(chan burst.Frame, 1)
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return c.closedErr(method, err)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	sess := c.sess
	c.mu.Unlock()

	// A failed Send closes the session, whose close handler closes ch.
	_ = sess.Send(burst.Frame{Type: burst.FrameRequest, SID: burst.StreamID(id), Payload: payload})
	f, ok := <-ch
	switch {
	case !ok:
		return c.closedErr(method, c.Err())
	case f.Type == burst.FrameError:
		return unwire(f.Payload, c.name, method)
	case result != nil && len(f.Payload) > 0:
		if err := json.Unmarshal(f.Payload, result); err != nil {
			return fmt.Errorf("ctrl %s: unmarshal %s result: %w", c.name, method, err)
		}
	}
	return nil
}

// Notify sends a fire-and-forget notification (no id, no response).
func (c *Conn) Notify(method string, params any) error {
	payload, err := request(method, params)
	if err != nil {
		return fmt.Errorf("ctrl %s: marshal %s params: %w", c.name, method, err)
	}
	c.mu.Lock()
	sess := c.sess
	c.mu.Unlock()
	if err := sess.Send(burst.Frame{Type: burst.FrameRequest, Payload: payload}); err != nil {
		return fmt.Errorf("ctrl %s: notify %s: %w (%w)", c.name, method, ErrConnClosed, err)
	}
	return nil
}

// Close tears the connection down and fails every in-flight Call.
func (c *Conn) Close() error {
	c.closeWith(nil)
	c.wg.Wait()
	return nil
}

// Err returns the error that closed the connection (nil before close or
// after a local Close).
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *Conn) closedErr(method string, cause error) error {
	if cause != nil {
		return fmt.Errorf("ctrl %s: call %s: %w (%w)", c.name, method, ErrConnClosed, cause)
	}
	return fmt.Errorf("ctrl %s: call %s: %w", c.name, method, ErrConnClosed)
}

// request builds a request payload: the length-prefixed method, then the
// params JSON (nothing for nil params).
func request(method string, params any) ([]byte, error) {
	if params == nil {
		return prefixed(method, 0), nil
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	return append(prefixed(method, len(raw)), raw...), nil
}

// prefixed returns head behind its uvarint length, with room for tail more
// bytes.
func prefixed(head string, tail int) []byte {
	b := make([]byte, 0, binary.MaxVarintLen64+len(head)+tail)
	b = binary.AppendUvarint(b, uint64(len(head)))
	return append(b, head...)
}

// cut splits a payload built by prefixed into its head and the rest. A
// malformed prefix yields an empty head and no rest.
func cut(p []byte) (string, []byte) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)-k) {
		return "", nil
	}
	end := k + int(n)
	return string(p[k:end]), p[end:]
}

// closeWith performs the one-time teardown: marks closed, fails pending
// calls, wakes the dispatcher, closes the session, fires onClose. It is
// also the session's close handler, so a dead peer lands here with the
// session's error (io.EOF for a clean peer close).
func (c *Conn) closeWith(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pend := c.pending
	c.pending = nil
	sess, ka := c.sess, c.ka
	c.mu.Unlock()

	for _, ch := range pend {
		close(ch)
	}
	c.qmu.Lock()
	c.qdone = true
	c.qcond.Broadcast()
	c.qmu.Unlock()
	if sess != nil {
		ka.Stop()
		_ = sess.Close()
	} else {
		_ = c.rwc.Close()
	}
	if c.onClose != nil {
		c.onClose(err)
	}
}

// receive runs on the session read loop: replies resolve pending calls
// directly; requests and notifications enqueue for the dispatcher.
func (c *Conn) receive(f burst.Frame) {
	switch f.Type {
	case burst.FrameRequest:
		c.qmu.Lock()
		if !c.qdone {
			c.queue = append(c.queue, f)
			c.qcond.Signal()
		}
		c.qmu.Unlock()
	case burst.FrameReply, burst.FrameError:
		c.mu.Lock()
		ch := c.pending[uint64(f.SID)]
		delete(c.pending, uint64(f.SID))
		c.mu.Unlock()
		if ch != nil {
			ch <- f
		}
	}
}

// dispatchLoop drains the incoming queue in order, invoking handlers and
// writing responses for requests. It exits when the connection closes and
// the queue has drained.
func (c *Conn) dispatchLoop() {
	defer c.wg.Done()
	for {
		c.qmu.Lock()
		for len(c.queue) == 0 && !c.qdone {
			//brlint:allow(no-lock-across-block) the canonical Cond pattern: Wait atomically releases qmu while parked, so the read loop can still append; the queue must stay unbounded so the read loop never blocks behind a slow handler
			c.qcond.Wait()
		}
		if len(c.queue) == 0 && c.qdone {
			c.qmu.Unlock()
			return
		}
		f := c.queue[0]
		c.queue = c.queue[1:]
		c.qmu.Unlock()
		c.serve(f)
	}
}

// serve runs one request or notification through its handler.
func (c *Conn) serve(req burst.Frame) {
	method, params := cut(req.Payload)
	c.mu.Lock()
	fn := c.handlers[method]
	c.mu.Unlock()
	var out any
	var err error
	if fn == nil {
		err = fmt.Errorf("ctrl: unknown method %q", method)
	} else {
		out, err = fn(params)
	}
	if req.SID == 0 { // notification: no reply even on error
		return
	}
	reply := burst.Frame{Type: burst.FrameReply, SID: req.SID}
	if err == nil && out != nil {
		reply.Payload, err = json.Marshal(out)
	}
	if err != nil {
		reply = burst.Frame{Type: burst.FrameError, SID: req.SID, Payload: wire(err)}
	}
	// The dispatcher starts after sess is set. A failed send closed the
	// session, which fails the caller's pending call on its side.
	_ = c.sess.Send(reply)
}
