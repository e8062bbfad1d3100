package main

import (
	"fmt"
	"io"
	"net"
	"sync"

	"bladerunner/internal/apps"
	"bladerunner/internal/brass"
	"bladerunner/internal/core"
	"bladerunner/internal/ctrl"
	"bladerunner/internal/edge"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

const (
	region = "us-east"
	hosts  = 2
)

// topo is a running brnode-shaped deployment: a Pylon tier, a WAS tier,
// one BRASS tier of two hosts and POPs routing straight to BRASS, joined
// either in-process or over loopback TCP the way cmd/brnode joins them.
type topo struct {
	graph *socialgraph.Graph
	tao   *tao.Store
	was   *was.Server
	pylon *pylon.Service
	hosts []*brass.Host
	pops  []*edge.Proxy

	// mutate is the generator's write path: WAS Mutate in-process, a
	// ctrl MutateIn round trip over the wire.
	mutate func(viewer socialgraph.UserID, expr string) ([]byte, error)
	// dial opens a client connection to POP i.
	dial func(i int) (io.ReadWriteCloser, error)

	closers []func() // run in reverse order by close
}

func (t *topo) onClose(fn func()) { t.closers = append(t.closers, fn) }

func (t *topo) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}

// clusterConfig is the shared tier configuration: one region, one host
// per BRASS tier (the topology builds one tier per host), the workload's
// graph, and the durable log when the workload uses it.
func clusterConfig(s spec, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Regions = []string{region}
	cfg.BRASSHostsPerRegion = 1
	cfg.POPs = s.sessions
	cfg.Graph.Users = s.graphUsers()
	cfg.Graph.Seed = seed
	cfg.Graph.BlockProb = blockProb
	if s.durlog {
		cfg.Durlog = &core.DurlogConfig{}
	}
	return cfg
}

func popID(i int) string { return fmt.Sprintf("pop-%d", i) }

// hostPrefix names host i. Each host is its own one-host BRASS tier so the
// traced run can give each host its own PubSub and Backend decorators.
func hostPrefix(i int) string { return fmt.Sprintf("h%d-", i) }

// buildTopo composes the workload's deployment. tr, when non-nil, wraps
// every seam interface with its timing decorators.
func buildTopo(s spec, seed int64, tr *tracer) (*topo, error) {
	cfg := clusterConfig(s, seed)
	if s.wire {
		return buildWire(s, cfg, tr)
	}
	return buildInproc(s, cfg, tr)
}

func buildInproc(s spec, cfg core.Config, tr *tracer) (*topo, error) {
	pt, err := core.NewPylonTier(cfg)
	if err != nil {
		return nil, err
	}
	var fanout was.Publisher
	if tr != nil {
		fanout = tr.publisher(pt.Pylon)
	}
	wt, err := core.NewWASTier(cfg, pt.Pylon, fanout, nil)
	if err != nil {
		return nil, err
	}
	t := &topo{graph: wt.Graph, tao: wt.TAO, was: wt.WAS, pylon: pt.Pylon, mutate: wt.WAS.Mutate}
	pn := edge.NewPipeNetwork()
	var targets []string
	for i := 0; i < hosts; i++ {
		var ps brass.PubSub = pt.Pylon
		var be brass.Backend = wt.WAS
		if tr != nil {
			ps, be = tr.pubsub(ps, i), tr.backend(be, i)
		}
		h := core.NewBrassTier(cfg, region, hostPrefix(i), wt.Apps, ps, be, nil).Hosts[0]
		t.hosts = append(t.hosts, h)
		targets = append(targets, h.ID())
		pn.Register(h.ID(), func(rwc io.ReadWriteCloser) { h.AcceptSession(h.ID()+"-in", rwc) })
	}
	var popDialer edge.Dialer = pn
	if tr != nil {
		popDialer = tr.dialer(pn)
	}
	for i := 0; i < s.sessions; i++ {
		pop := core.NewPOPTier(popID(i), popDialer, targets)
		t.pops = append(t.pops, pop)
		pn.Register(popID(i), pop.Accept)
	}
	t.dial = func(i int) (io.ReadWriteCloser, error) { return pn.Dial(popID(i)) }
	t.closeTiers()
	return t, nil
}

// closeTiers registers the tier teardown: POPs first, then hosts.
func (t *topo) closeTiers() {
	t.onClose(func() {
		for _, h := range t.hosts {
			h.Close()
		}
	})
	t.onClose(func() {
		for _, p := range t.pops {
			p.Close()
		}
	})
}

func buildWire(s spec, cfg core.Config, tr *tracer) (t *topo, err error) {
	t = &topo{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	pt, err := core.NewPylonTier(cfg)
	if err != nil {
		return nil, err
	}
	t.pylon = pt.Pylon
	pylonAddr, err := t.serveCtrl("pylon", func(c *ctrl.Conn) { ctrl.ServePylon(c, pt.Pylon, nil) })
	if err != nil {
		return nil, err
	}

	// WAS tier, publishing into Pylon over its own ctrl connection.
	var wasPylon *ctrl.PylonClient
	if err := t.dialCtrl("was->pylon", pylonAddr, tr, func(c *ctrl.Conn) { wasPylon = ctrl.NewPylonClient(c) }); err != nil {
		return nil, err
	}
	var fanout was.Publisher = wasPylon
	if tr != nil {
		fanout = tr.publisher(wasPylon)
	}
	wt, err := core.NewWASTier(cfg, nil, fanout, nil)
	if err != nil {
		return nil, err
	}
	t.graph, t.tao, t.was = wt.Graph, wt.TAO, wt.WAS
	wasAddr, err := t.serveCtrl("was", func(c *ctrl.Conn) { ctrl.ServeWAS(c, wt.WAS) })
	if err != nil {
		return nil, err
	}

	// BRASS tier: both hosts share one Pylon and one WAS connection, as
	// the hosts of one brnode process do.
	var brassPylon *ctrl.PylonClient
	if err := t.dialCtrl("brass->pylon", pylonAddr, tr, func(c *ctrl.Conn) { brassPylon = ctrl.NewPylonClient(c) }); err != nil {
		return nil, err
	}
	var brassWAS *ctrl.WASClient
	if err := t.dialCtrl("brass->was", wasAddr, tr, func(c *ctrl.Conn) { brassWAS = ctrl.NewWASClient(c) }); err != nil {
		return nil, err
	}
	suite := apps.NewSuite(apps.NopRegistrar{})
	brassNet := edge.NewTCPNetwork()
	t.onClose(brassNet.Close)
	popNet := edge.NewTCPNetwork()
	t.onClose(popNet.Close)
	var targets []string
	for i := 0; i < hosts; i++ {
		var ps brass.PubSub = brassPylon
		var be brass.Backend = brassWAS
		if tr != nil {
			ps, be = tr.pubsub(ps, i), tr.backend(be, i)
		}
		h := core.NewBrassTier(cfg, region, hostPrefix(i), suite, ps, be, nil).Hosts[0]
		t.hosts = append(t.hosts, h)
		addr, err := brassNet.Listen(h.ID(), "127.0.0.1:0", func(rwc io.ReadWriteCloser) { h.AcceptSession(h.ID()+"-in", rwc) })
		if err != nil {
			return nil, err
		}
		popNet.SetAddr(h.ID(), addr)
		targets = append(targets, h.ID())
	}
	var popDialer edge.Dialer = popNet
	if tr != nil {
		popDialer = tr.dialer(popNet)
	}
	pop := core.NewPOPTier(popID(0), popDialer, targets)
	t.pops = append(t.pops, pop)
	popAddr, err := popNet.Listen(popID(0), "127.0.0.1:0", pop.Accept)
	if err != nil {
		return nil, err
	}
	t.closeTiers()

	// The generator: one ctrl connection to the WAS, one BURST session to
	// the POP.
	var gen *ctrl.WASClient
	if err := t.dialCtrl("gen->was", wasAddr, tr, func(c *ctrl.Conn) { gen = ctrl.NewWASClient(c) }); err != nil {
		return nil, err
	}
	t.mutate = func(viewer socialgraph.UserID, expr string) ([]byte, error) {
		return gen.MutateIn(region, viewer, expr)
	}
	clientNet := edge.NewTCPNetwork()
	t.onClose(clientNet.Close)
	clientNet.SetAddr(popID(0), popAddr)
	t.dial = func(int) (io.ReadWriteCloser, error) { return clientNet.Dial(popID(0)) }
	return t, nil
}

// serveCtrl listens on a loopback port and serves every accepted control
// connection with setup's handlers. The listener and its connections
// close with the topology.
func (t *topo) serveCtrl(role string, setup func(*ctrl.Conn)) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("%s ctrl listen: %w", role, err)
	}
	var (
		mu    sync.Mutex
		conns []*ctrl.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			conn := ctrl.NewConn(role+"-ctrl", c, nil)
			setup(conn)
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			conn.Start()
		}
	}()
	t.onClose(func() {
		_ = ln.Close()
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return ln.Addr().String(), nil
}

// dialCtrl opens a control connection, lets setup register handlers, and
// starts it. The traced run counts the connection's bytes.
func (t *topo) dialCtrl(name, addr string, tr *tracer, setup func(*ctrl.Conn)) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", name, err)
	}
	var rwc io.ReadWriteCloser = c
	if tr != nil {
		rwc = tr.countConn(rwc, &tr.ctrlBytes)
	}
	conn := ctrl.NewConn(name, rwc, nil)
	setup(conn)
	conn.Start()
	t.onClose(func() { _ = conn.Close() })
	return nil
}
