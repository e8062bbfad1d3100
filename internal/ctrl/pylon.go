package ctrl

import (
	"sync"
	"time"

	"bladerunner/internal/pylon"
	"bladerunner/internal/sim"
)

// Pylon method names.
const (
	MethodRegisterHost   = "pylon.register-host"
	MethodSubscribe      = "pylon.subscribe"
	MethodUnsubscribe    = "pylon.unsubscribe"
	MethodRemoveHost     = "pylon.remove-host"
	MethodPublish        = "pylon.publish"
	MethodWaitSubscriber = "pylon.wait-subscriber"
	MethodDeliver        = "pylon.deliver" // notification, pylon -> host
)

type topicHostParams struct {
	Topic string `json:"topic"`
	Host  string `json:"host"`
}

type hostParams struct {
	Host string `json:"host"`
}

type publishResult struct {
	N int `json:"n"`
}

type waitSubscriberParams struct {
	Topic     string `json:"topic"`
	TimeoutMS int64  `json:"timeout_ms"`
}

type waitSubscriberResult struct {
	OK bool `json:"ok"`
}

// deliverParams carries one fanned-out event to a remote host. Host names
// the subscriber because several BRASS hosts may share one node process
// (and thus one control connection).
type deliverParams struct {
	Host  string      `json:"host"`
	Event pylon.Event `json:"event"`
}

// remoteSubscriber adapts one registered host on the serving side: Deliver
// pushes a notification down the control connection. Notify's write is a
// socket write, not a round trip, honoring Pylon's "Deliver must not
// block" contract to the extent a socket can (a wedged peer's TCP buffer
// eventually backpressures the writer; the conn's heartbeat, armed with a
// read deadline, closes a conn whose peer stops answering, which fails the
// blocked write).
type remoteSubscriber struct {
	id   string
	conn *Conn
}

func (r *remoteSubscriber) ID() string { return r.id }

func (r *remoteSubscriber) Deliver(ev pylon.Event) {
	_ = r.conn.Notify(MethodDeliver, deliverParams{Host: r.id, Event: ev})
}

// ServePylon registers the pylon tier's handlers on conn, exposing svc to
// the remote peer. Each control connection re-registers its own hosts, so
// a reconnecting brass process starts from a clean slate.
func ServePylon(conn *Conn, svc *pylon.Service, sched sim.Scheduler) {
	handle(conn, MethodRegisterHost, func(p hostParams) (any, error) {
		svc.RegisterHost(&remoteSubscriber{id: p.Host, conn: conn})
		return nil, nil
	})
	handle(conn, MethodSubscribe, func(p topicHostParams) (any, error) {
		return nil, svc.Subscribe(pylon.Topic(p.Topic), p.Host)
	})
	handle(conn, MethodUnsubscribe, func(p topicHostParams) (any, error) {
		return nil, svc.Unsubscribe(pylon.Topic(p.Topic), p.Host)
	})
	handle(conn, MethodRemoveHost, func(p hostParams) (any, error) {
		svc.RemoveHost(p.Host)
		return nil, nil
	})
	handle(conn, MethodPublish, func(ev pylon.Event) (any, error) {
		n, err := svc.Publish(ev)
		if err != nil {
			return nil, err
		}
		return publishResult{N: n}, nil
	})
	handle(conn, MethodWaitSubscriber, func(p waitSubscriberParams) (any, error) {
		ok := svc.WaitForSubscriber(sched, pylon.Topic(p.Topic), time.Duration(p.TimeoutMS)*time.Millisecond)
		return waitSubscriberResult{OK: ok}, nil
	})
}

// PylonClient implements brass.PubSub (and was.Publisher via Publish) over
// a control connection to the pylon tier's node.
type PylonClient struct {
	conn     *Conn
	register func(pylon.Subscriber)
}

// NewPylonClient wraps conn and installs the deliver dispatcher. Hosts
// registered through RegisterHost receive pushed events in arrival order.
func NewPylonClient(conn *Conn) *PylonClient {
	c := &PylonClient{conn: conn}
	subs := struct {
		mu sync.Mutex
		m  map[string]pylon.Subscriber
	}{m: make(map[string]pylon.Subscriber)}
	handle(conn, MethodDeliver, func(p deliverParams) (any, error) {
		subs.mu.Lock()
		sub := subs.m[p.Host]
		subs.mu.Unlock()
		if sub != nil {
			sub.Deliver(p.Event)
		}
		return nil, nil
	})
	c.register = func(sub pylon.Subscriber) {
		subs.mu.Lock()
		subs.m[sub.ID()] = sub
		subs.mu.Unlock()
	}
	return c
}

// RegisterHost implements brass.PubSub: announce the host remotely and
// route its deliveries.
func (c *PylonClient) RegisterHost(sub pylon.Subscriber) {
	c.register(sub)
	_ = c.conn.Call(MethodRegisterHost, hostParams{Host: sub.ID()}, nil)
}

// Subscribe implements brass.PubSub.
func (c *PylonClient) Subscribe(topic pylon.Topic, hostID string) error {
	return c.conn.Call(MethodSubscribe, topicHostParams{Topic: string(topic), Host: hostID}, nil)
}

// Unsubscribe implements brass.PubSub.
func (c *PylonClient) Unsubscribe(topic pylon.Topic, hostID string) error {
	return c.conn.Call(MethodUnsubscribe, topicHostParams{Topic: string(topic), Host: hostID}, nil)
}

// RemoveHost implements brass.PubSub.
func (c *PylonClient) RemoveHost(hostID string) {
	_ = c.conn.Call(MethodRemoveHost, hostParams{Host: hostID}, nil)
}

// Publish implements was.Publisher: publish into the remote Pylon.
func (c *PylonClient) Publish(ev pylon.Event) (int, error) {
	var res publishResult
	if err := c.conn.Call(MethodPublish, ev, &res); err != nil {
		return 0, err
	}
	return res.N, nil
}

// WaitForSubscriber blocks (remotely) until topic has a subscriber or
// timeout elapses, mirroring pylon.Service.WaitForSubscriber for the
// quickstart flow.
func (c *PylonClient) WaitForSubscriber(topic pylon.Topic, timeout time.Duration) bool {
	var res waitSubscriberResult
	if err := c.conn.Call(MethodWaitSubscriber, waitSubscriberParams{Topic: string(topic), TimeoutMS: timeout.Milliseconds()}, &res); err != nil {
		return false
	}
	return res.OK
}
