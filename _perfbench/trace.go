package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bladerunner/internal/brass"
	"bladerunner/internal/edge"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/was"
)

// spanKind names the seam call a span times.
type spanKind uint8

const (
	kMutate      spanKind = iota // generator -> WAS mutate (in-process or ctrl MutateIn)
	kPublish                     // was.Publisher.Publish (WAS -> Pylon)
	kDeliver                     // pylon.Subscriber.Deliver (Pylon -> BRASS host)
	kSubscribe                   // brass.PubSub.Subscribe
	kUnsubscribe                 // brass.PubSub.Unsubscribe
	kResolveSub                  // brass.Backend.ResolveSubscription
	kQuery                       // brass.Backend.QueryIn
	kVisibility                  // brass.Backend.CheckEventVisibility
	kResolve                     // brass.Backend.ResolvePayloadIn
	kFetch                       // brass.Backend.FetchPayloadIn
	kDecode                      // client BURST batch decode
	numKinds
)

var kindNames = [numKinds]string{
	"was.mutate", "was.publish", "brass.deliver", "pylon.subscribe", "pylon.unsubscribe",
	"was.resolve_subscription", "was.query", "was.visibility", "was.resolve", "was.fetch",
	"burst.decode",
}

// crossesCtrl reports whether a span's call is a ctrl round trip when the
// tiers are joined over the wire.
func (k spanKind) crossesCtrl() bool {
	return k != kDeliver && k != kDecode
}

// span is one timed seam call. ref is the request id: the TAO ref of the
// mutation the call served (0 when none). user is the viewer of a backend
// call or the mailbox owner of a messenger event (0 when none).
type span struct {
	kind       spanKind
	host       int8
	start, end int64
	ref        uint64
	user       uint32
}

// tracer records spans and byte counts from decorators around the public
// seam interfaces. It records only while on; the traced run switches it on
// and off in alternating windows so the same run measures its own
// overhead.
type tracer struct {
	now func() int64
	on  atomic.Bool

	mu    sync.Mutex
	spans []span

	ctrlBytes, edgeBytes, clientBytes atomic.Int64
	edgeDials                         atomic.Int64
	frames, rewrites, payloads        atomic.Int64
	fanout, publishes                 atomic.Int64
}

func newTracer(now func() int64) *tracer {
	return &tracer{now: now, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) record(k spanKind, start, end int64, ref uint64, user uint32, host int8) {
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: k, host: host, start: start, end: end, ref: ref, user: user})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// mailboxOwner returns the user a messenger mailbox topic belongs to (0
// for other topics).
func mailboxOwner(topic pylon.Topic) uint32 {
	s, ok := strings.CutPrefix(string(topic), "/MB/")
	if !ok {
		return 0
	}
	n, _ := strconv.ParseUint(s, 10, 32)
	return uint32(n)
}

// publisher decorates the WAS's publish sink.
func (t *tracer) publisher(next was.Publisher) was.Publisher { return &tracedPublisher{t, next} }

type tracedPublisher struct {
	t    *tracer
	next was.Publisher
}

func (p *tracedPublisher) Publish(ev pylon.Event) (int, error) {
	if !p.t.on.Load() {
		return p.next.Publish(ev)
	}
	s := p.t.now()
	n, err := p.next.Publish(ev)
	p.t.record(kPublish, s, p.t.now(), ev.Ref, mailboxOwner(ev.Topic), -1)
	p.t.fanout.Add(int64(n))
	p.t.publishes.Add(1)
	return n, err
}

// pubsub decorates host's Pylon surface, including the subscriber the
// host registers for deliveries.
func (t *tracer) pubsub(next brass.PubSub, host int) brass.PubSub {
	return &tracedPubSub{t: t, next: next, host: int8(host)}
}

type tracedPubSub struct {
	t    *tracer
	next brass.PubSub
	host int8
}

func (p *tracedPubSub) RegisterHost(sub pylon.Subscriber) {
	p.next.RegisterHost(&tracedSubscriber{t: p.t, next: sub, host: p.host})
}

func (p *tracedPubSub) Subscribe(topic pylon.Topic, hostID string) error {
	return p.timed(kSubscribe, topic, func() error { return p.next.Subscribe(topic, hostID) })
}

func (p *tracedPubSub) Unsubscribe(topic pylon.Topic, hostID string) error {
	return p.timed(kUnsubscribe, topic, func() error { return p.next.Unsubscribe(topic, hostID) })
}

func (p *tracedPubSub) RemoveHost(hostID string) { p.next.RemoveHost(hostID) }

func (p *tracedPubSub) timed(k spanKind, topic pylon.Topic, call func() error) error {
	if !p.t.on.Load() {
		return call()
	}
	s := p.t.now()
	err := call()
	p.t.record(k, s, p.t.now(), 0, mailboxOwner(topic), p.host)
	return err
}

type tracedSubscriber struct {
	t    *tracer
	next pylon.Subscriber
	host int8
}

func (s *tracedSubscriber) ID() string { return s.next.ID() }

func (s *tracedSubscriber) Deliver(ev pylon.Event) {
	if !s.t.on.Load() {
		s.next.Deliver(ev)
		return
	}
	st := s.t.now()
	s.next.Deliver(ev)
	s.t.record(kDeliver, st, s.t.now(), ev.Ref, mailboxOwner(ev.Topic), s.host)
}

// backend decorates host's WAS surface.
func (t *tracer) backend(next brass.Backend, host int) brass.Backend {
	return &tracedBackend{t: t, next: next, host: int8(host)}
}

type tracedBackend struct {
	t    *tracer
	next brass.Backend
	host int8
}

func (b *tracedBackend) span(k spanKind, ref uint64, viewer socialgraph.UserID) func() {
	if !b.t.on.Load() {
		return func() {}
	}
	s := b.t.now()
	return func() { b.t.record(k, s, b.t.now(), ref, uint32(viewer), b.host) }
}

func (b *tracedBackend) ResolveSubscription(viewer socialgraph.UserID, expr string) ([]pylon.Topic, error) {
	defer b.span(kResolveSub, 0, viewer)()
	return b.next.ResolveSubscription(viewer, expr)
}

func (b *tracedBackend) QueryIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error) {
	defer b.span(kQuery, 0, viewer)()
	return b.next.QueryIn(region, viewer, expr)
}

func (b *tracedBackend) CheckEventVisibility(viewer socialgraph.UserID, ev pylon.Event) error {
	defer b.span(kVisibility, ev.Ref, viewer)()
	return b.next.CheckEventVisibility(viewer, ev)
}

func (b *tracedBackend) ResolvePayloadIn(region, app string, ev pylon.Event) ([]byte, error) {
	defer b.span(kResolve, ev.Ref, 0)()
	return b.next.ResolvePayloadIn(region, app, ev)
}

func (b *tracedBackend) FetchPayloadIn(region, app string, viewer socialgraph.UserID, ev pylon.Event) ([]byte, error) {
	defer b.span(kFetch, ev.Ref, viewer)()
	return b.next.FetchPayloadIn(region, app, viewer, ev)
}

// dialer decorates the POP's dialer toward BRASS: it counts dials and the
// bytes crossing every POP<->BRASS connection.
func (t *tracer) dialer(next edge.Dialer) edge.Dialer { return &tracedDialer{t, next} }

type tracedDialer struct {
	t    *tracer
	next edge.Dialer
}

func (d *tracedDialer) Dial(target string) (io.ReadWriteCloser, error) {
	d.t.edgeDials.Add(1)
	rwc, err := d.next.Dial(target)
	if err != nil {
		return nil, err
	}
	return d.t.countConn(rwc, &d.t.edgeBytes), nil
}

// countConn counts the bytes read and written on rwc into n while the
// tracer is on.
func (t *tracer) countConn(rwc io.ReadWriteCloser, n *atomic.Int64) io.ReadWriteCloser {
	return &countingConn{ReadWriteCloser: rwc, t: t, n: n}
}

type countingConn struct {
	io.ReadWriteCloser
	t *tracer
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.ReadWriteCloser.Read(p)
	if c.t.on.Load() {
		c.n.Add(int64(k))
	}
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.ReadWriteCloser.Write(p)
	if c.t.on.Load() {
		c.n.Add(int64(k))
	}
	return k, err
}

// segmentNames are the consecutive pieces a traced delivery's latency
// splits into, from the generator's due time to client receipt.
var segmentNames = [...]string{
	"gen.late",             // due -> mutate call start
	"was.pre_publish",      // mutate start -> publish start (TAO writes, resolver)
	"pylon.fanout",         // publish start -> Deliver start on the serving host
	"brass.deliver",        // the Deliver call
	"brass.dispatch_wait",  // Deliver return -> first Backend call for the event on that host
	"brass.backend",        // first Backend call -> last Backend return for this viewer
	"brass.push_to_client", // last Backend return -> client receipt
}

const numSegments = len(segmentNames)

type refHost struct {
	ref  uint64
	host int8
}

type refUser struct {
	ref  uint64
	user uint32
}

// spanIndex indexes spans by request id for self times, parents and
// delivery segments.
type spanIndex struct {
	spans    []span
	mutate   map[uint64]int
	publish  map[uint64][]int
	deliver  map[refHost][]int
	visible  map[refUser]int
	resolve  map[refHost][]int
	firstBck map[refHost]int64
}

func indexSpans(spans []span) *spanIndex {
	x := &spanIndex{
		spans:    spans,
		mutate:   make(map[uint64]int),
		publish:  make(map[uint64][]int),
		deliver:  make(map[refHost][]int),
		visible:  make(map[refUser]int),
		resolve:  make(map[refHost][]int),
		firstBck: make(map[refHost]int64),
	}
	for i, s := range spans {
		switch s.kind {
		case kMutate:
			x.mutate[s.ref] = i
		case kPublish:
			x.publish[s.ref] = append(x.publish[s.ref], i)
		case kDeliver:
			k := refHost{s.ref, s.host}
			x.deliver[k] = append(x.deliver[k], i)
		case kVisibility, kResolve, kFetch:
			k := refHost{s.ref, s.host}
			if f, ok := x.firstBck[k]; !ok || s.start < f {
				x.firstBck[k] = s.start
			}
			if s.kind == kResolve {
				x.resolve[k] = append(x.resolve[k], i)
			} else {
				x.visible[refUser{s.ref, s.user}] = i
			}
		}
	}
	return x
}

// pick returns the span among idx whose user matches (any span when user
// is 0 or none matches exactly), or -1.
func (x *spanIndex) pick(idx []int, user uint32) int {
	for _, i := range idx {
		if x.spans[i].user == user {
			return i
		}
	}
	if len(idx) > 0 && x.spans[idx[0]].user == 0 {
		return idx[0]
	}
	return -1
}

// parent returns the index of the span that caused span i, or -1.
func (x *spanIndex) parent(i int) int {
	s := x.spans[i]
	switch s.kind {
	case kPublish:
		if p, ok := x.mutate[s.ref]; ok {
			return p
		}
	case kDeliver:
		return x.pick(x.publish[s.ref], s.user)
	case kVisibility, kResolve, kFetch:
		return x.pick(x.deliver[refHost{s.ref, s.host}], s.user)
	}
	return -1
}

// selfTime is span i's duration minus the part of it its children cover.
func (x *spanIndex) selfTime(i int) int64 {
	s := x.spans[i]
	var kids []int
	switch s.kind {
	case kMutate:
		kids = x.publish[s.ref]
	case kPublish:
		for h := int8(0); h < hosts; h++ {
			for _, d := range x.deliver[refHost{s.ref, h}] {
				if x.spans[d].user == s.user {
					kids = append(kids, d)
				}
			}
		}
	}
	self := s.end - s.start
	for _, k := range kids {
		c := x.spans[k]
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			self -= hi - lo
		}
	}
	return self
}

// delivery is one received expected delivery, the input of segmenting.
type delivery struct {
	m    *mutation
	st   *stream
	host int
	recv int64
}

// segments splits a delivery's latency into consecutive segments. Each
// boundary is clamped between its predecessor and the receipt, so the
// segments tile [due, receipt]; when a boundary's span is missing the
// chain stops there and the rest is returned as unattributed.
func (x *spanIndex) segments(d delivery) (seg [numSegments]int64, unattributed int64, parent int) {
	parent = -1
	user := uint32(d.st.user)
	h := int8(d.host)
	ref := d.m.ref
	owner := uint32(0)
	if d.m.seq > 0 {
		owner = user // messenger events name the recipient's mailbox
	}
	bounds := [numSegments + 1]int64{d.m.dueAt}
	n := 1
	add := func(b int64, ok bool) bool {
		if !ok {
			return false
		}
		b = min(max(b, bounds[n-1]), d.recv)
		bounds[n] = b
		n++
		return true
	}
	ok := add(d.m.start, d.m.start != 0)
	pi := x.pick(x.publish[ref], owner)
	ok = ok && add(spanStart(x, pi), pi >= 0)
	di := x.pick(x.deliver[refHost{ref, h}], owner)
	ok = ok && add(spanStart(x, di), di >= 0) && add(x.spans[di].end, true)
	first, hasFirst := x.firstBck[refHost{ref, h}]
	ok = ok && add(first, hasFirst)
	if ok {
		last := int64(0)
		if vi, has := x.visible[refUser{ref, user}]; has && x.spans[vi].host == h {
			last = x.spans[vi].end
			parent = vi
		}
		for _, ri := range x.resolve[refHost{ref, h}] {
			if e := x.spans[ri].end; e <= d.recv && e > last {
				last = e
			}
		}
		ok = add(last, last != 0)
	}
	if ok {
		add(d.recv, true)
	}
	for i := 0; i+1 < n; i++ {
		seg[i] = bounds[i+1] - bounds[i]
	}
	unattributed = d.recv - bounds[n-1]
	return seg, unattributed, parent
}

func spanStart(x *spanIndex, i int) int64 {
	if i < 0 {
		return 0
	}
	return x.spans[i].start
}

// spanSample keeps one request in spanSample in the span file (by TAO
// ref), and one batch decode in spanSample; the metrics use every span.
const spanSample = 8

// writeSpans writes the sampled requests' spans, then one record per
// sampled segmented delivery, as JSON lines. Times are microseconds from
// the run's start; ids are indexes into the run's full span list.
func writeSpans(path string, x *spanIndex, hostIDs []string, dels []delivery) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	host := func(h int8) string {
		if h < 0 || int(h) >= len(hostIDs) {
			return ""
		}
		return hostIDs[h]
	}
	for i, s := range x.spans {
		if s.ref%spanSample != 0 || s.kind == kDecode && i%spanSample != 0 {
			continue
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_us":%.1f,"end_us":%.1f,"parent":%d,"ref":%d,"user":%d,"host":%q}`+"\n",
			i, kindNames[s.kind], usAt(s.start), usAt(s.end), x.parent(i), s.ref, s.user, host(s.host))
	}
	for _, d := range dels {
		if d.m.ref%spanSample != 0 {
			continue
		}
		seg, un, parent := x.segments(d)
		fmt.Fprintf(w, `{"name":"client.recv","start_us":%.1f,"end_us":%.1f,"parent":%d,"ref":%d,"user":%d,"host":%q,"segments_us":{`,
			usAt(d.recv), usAt(d.recv), parent, d.m.ref, d.st.user, host(int8(d.host)))
		for i, name := range segmentNames {
			if i > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%q:%.1f", name, us(time.Duration(seg[i])))
		}
		fmt.Fprintf(w, `},"unattributed_us":%.1f}`+"\n", us(time.Duration(un)))
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func usAt(ns int64) float64 { return float64(ns) / 1e3 }
