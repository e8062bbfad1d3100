package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"bladerunner/internal/apps"
	"bladerunner/internal/core"
	"bladerunner/internal/ctrl"
	"bladerunner/internal/edge"
)

// node is one running tier: a drain trigger (remote node.drain) plus the
// graceful teardown the trigger or a signal runs.
type node struct {
	drained   chan struct{}
	reqOnce   sync.Once
	drainOnce sync.Once
	closers   []func() // run in order on drain
}

func newNode() *node { return &node{drained: make(chan struct{})} }

// requestDrain is the node.drain handler: it unblocks main, which runs
// drain. Safe to call from any goroutine, any number of times.
func (n *node) requestDrain() {
	n.reqOnce.Do(func() { close(n.drained) })
}

func (n *node) drain() {
	n.drainOnce.Do(func() {
		for _, fn := range n.closers {
			fn()
		}
	})
}

func (n *node) onDrain(fn func()) { n.closers = append(n.closers, fn) }

// ready prints the machine-readable readiness line the launcher (and the
// e2e harness) parses. burst is "-" for roles with no BURST listener.
func ready(role, ctrlAddr, burst string) {
	if burst == "" {
		burst = "-"
	}
	fmt.Printf("READY role=%s ctrl=%s burst=%s\n", role, ctrlAddr, burst)
}

// clusterConfig maps the bootstrap onto the shared cluster Config the
// tier constructors consume. BlockProb is zeroed so independently booted
// processes agree on the graph without coordination.
func clusterConfig(b bootstrap) core.Config {
	cfg := core.DefaultConfig()
	cfg.Regions = []string{b.Region}
	cfg.BRASSHostsPerRegion = b.Hosts
	cfg.Graph.Users = b.Users
	cfg.Graph.Seed = b.Seed
	cfg.Graph.BlockProb = 0
	if cfg.Graph.MeanFriends >= b.Users {
		cfg.Graph.MeanFriends = b.Users / 2
	}
	if b.Durlog {
		cfg.Durlog = &core.DurlogConfig{}
	}
	return cfg
}

// ctrlServer accepts control connections and wires each one's services.
// A conn leaves conns when it dies, so a restarted peer leaves nothing
// behind.
type ctrlServer struct {
	ln net.Listener

	mu     sync.Mutex
	conns  map[*ctrl.Conn]bool
	closed bool
}

// newCtrlServer listens on addr; every accepted conn serves the node
// admin methods plus whatever setup registers, then starts.
func newCtrlServer(addr, role string, onDrain func(), setup func(*ctrl.Conn)) (*ctrlServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctrl listen %s: %w", addr, err)
	}
	s := &ctrlServer{ln: ln, conns: make(map[*ctrl.Conn]bool)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			var conn *ctrl.Conn
			conn = ctrl.NewConn(role+"-ctrl", c, func(error) {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			})
			ctrl.ServeNode(conn, role, onDrain)
			if setup != nil {
				setup(conn)
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				_ = conn.Close()
				return
			}
			s.conns[conn] = true
			s.mu.Unlock()
			conn.Start()
		}
	}()
	return s, nil
}

func (s *ctrlServer) Addr() string { return s.ln.Addr().String() }

func (s *ctrlServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*ctrl.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
}

// dialCtrl opens a control connection to a peer tier and starts it after
// setup has registered any handlers (e.g. the pylon client's deliver
// dispatcher).
func dialCtrl(name, addr string, setup func(*ctrl.Conn)) (*ctrl.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s at %s: %w", name, addr, err)
	}
	conn := ctrl.NewConn(name, c, nil)
	if setup != nil {
		setup(conn)
	}
	conn.Start()
	return conn, nil
}

// runPylon boots the pub/sub tier: subscription KV + Pylon, served over
// the control protocol.
func runPylon(b bootstrap) (*node, error) {
	pt, err := core.NewPylonTier(clusterConfig(b))
	if err != nil {
		return nil, err
	}
	n := newNode()
	cs, err := newCtrlServer(b.Ctrl, "pylon", n.requestDrain, func(c *ctrl.Conn) {
		ctrl.ServePylon(c, pt.Pylon, nil)
	})
	if err != nil {
		return nil, err
	}
	n.onDrain(cs.Close)
	log.Printf("pylon up: ctrl=%s", cs.Addr())
	ready("pylon", cs.Addr(), "")
	return n, nil
}

// runWAS boots the backend tier: graph + TAO + WAS with every app's
// resolvers, publishing into the remote Pylon over ctrl.
func runWAS(b bootstrap) (*node, error) {
	if b.PylonAddr == "" {
		return nil, fmt.Errorf("role was: -pylon address required")
	}
	var pc *ctrl.PylonClient
	pconn, err := dialCtrl("was->pylon", b.PylonAddr, func(c *ctrl.Conn) {
		pc = ctrl.NewPylonClient(c)
	})
	if err != nil {
		return nil, err
	}
	wt, err := core.NewWASTier(clusterConfig(b), nil, pc, nil)
	if err != nil {
		return nil, err
	}
	n := newNode()
	cs, err := newCtrlServer(b.Ctrl, "was", n.requestDrain, func(c *ctrl.Conn) {
		ctrl.ServeWAS(c, wt.WAS)
	})
	if err != nil {
		_ = pconn.Close()
		return nil, err
	}
	n.onDrain(cs.Close)
	n.onDrain(func() { _ = pconn.Close() })
	log.Printf("was up: ctrl=%s pylon=%s users=%d", cs.Addr(), b.PylonAddr, b.Users)
	ready("was", cs.Addr(), "")
	return n, nil
}

// runBrass boots BRASS hosts consuming Pylon and the WAS over ctrl, and
// accepts device/POP BURST sessions over TCP.
func runBrass(b bootstrap) (*node, error) {
	if b.PylonAddr == "" || b.WASAddr == "" {
		return nil, fmt.Errorf("role brass: -pylon and -was addresses required")
	}
	var pc *ctrl.PylonClient
	pconn, err := dialCtrl("brass->pylon", b.PylonAddr, func(c *ctrl.Conn) {
		pc = ctrl.NewPylonClient(c)
	})
	if err != nil {
		return nil, err
	}
	var wc *ctrl.WASClient
	wconn, err := dialCtrl("brass->was", b.WASAddr, func(c *ctrl.Conn) {
		wc = ctrl.NewWASClient(c)
	})
	if err != nil {
		_ = pconn.Close()
		return nil, err
	}

	// The WAS halves live in the WAS process; this suite only carries the
	// BRASS halves, so it registers against the no-op registrar.
	suite := apps.NewSuite(apps.NopRegistrar{})
	tier := core.NewBrassTier(clusterConfig(b), b.Region, "", suite, pc, wc, nil)

	tnet := edge.NewTCPNetwork()
	var next uint32
	var sess uint64
	bound, err := tnet.Listen(tier.Hosts[0].ID(), b.Listen, func(rwc io.ReadWriteCloser) {
		h := tier.Hosts[int(atomic.AddUint32(&next, 1))%len(tier.Hosts)]
		h.AcceptSession(fmt.Sprintf("%s-in-%d", h.ID(), atomic.AddUint64(&sess, 1)), rwc)
	})
	if err != nil {
		_ = pconn.Close()
		_ = wconn.Close()
		return nil, err
	}

	n := newNode()
	cs, err := newCtrlServer(b.Ctrl, "brass", n.requestDrain, nil)
	if err != nil {
		_ = pconn.Close()
		_ = wconn.Close()
		tnet.Close()
		return nil, err
	}
	// Drain order: stop accepting, close live sessions cleanly (clients
	// observe a peer close and fail over), then drop the tier links.
	n.onDrain(tnet.Close)
	n.onDrain(func() {
		for _, h := range tier.Hosts {
			h.Close()
		}
	})
	n.onDrain(cs.Close)
	n.onDrain(func() { _ = pconn.Close() })
	n.onDrain(func() { _ = wconn.Close() })
	log.Printf("brass up: burst=%s ctrl=%s hosts=%d", bound, cs.Addr(), len(tier.Hosts))
	ready("brass", cs.Addr(), bound)
	return n, nil
}

// runPOP boots one edge POP: a proxy routing BURST streams round-robin
// (sticky-first) to the configured brass targets over TCP.
func runPOP(b bootstrap) (*node, error) {
	if len(b.BrassAddrs) == 0 {
		return nil, fmt.Errorf("role pop: -brass name=addr list required")
	}
	tnet := edge.NewTCPNetwork()
	targets := make([]string, 0, len(b.BrassAddrs))
	for name, addr := range b.BrassAddrs {
		tnet.SetAddr(name, addr)
		targets = append(targets, name)
	}
	sort.Strings(targets)
	pop := core.NewPOPTier("pop-0", tnet, targets)
	bound, err := tnet.Listen("pop-0", b.Listen, pop.Accept)
	if err != nil {
		return nil, err
	}
	n := newNode()
	cs, err := newCtrlServer(b.Ctrl, "pop", n.requestDrain, nil)
	if err != nil {
		tnet.Close()
		return nil, err
	}
	n.onDrain(tnet.Close)
	n.onDrain(pop.Close)
	n.onDrain(cs.Close)
	log.Printf("pop up: burst=%s ctrl=%s brass=%v", bound, cs.Addr(), targets)
	ready("pop", cs.Addr(), bound)
	return n, nil
}
