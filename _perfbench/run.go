package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
)

// options are the run's command-line settings.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	out     string
	// drain is how long a due delivery or a resume is awaited; an outcome
	// not seen by then is missing and enters latency at this value.
	drain time.Duration
	// setups is how many times the deployment is built; setup_s is their
	// median and the last one runs the load.
	setups int
	// window is the traced run's on/off tracing window.
	window time.Duration
}

// run is one built deployment with its clients, schedule and receipts.
type run struct {
	s       spec
	o       options
	base    time.Time
	t       *topo
	tr      *tracer
	p       *plan
	workers int
	hostIdx map[string]int
	hostIDs []string
	streams []*stream
	sess    []*clientSess
	tids    []uint64 // messenger thread ids by group
	setup   time.Duration

	phaseStart [numPhases]int64
	threadDone []uint64 // messenger: completed sends per thread, owned by its worker
	resumesMu  sync.Mutex
	resumes    []*resume // steady phase only: peak bursts carry no churn

	payloads, flowsSeen, terminations atomic.Int64
	duplicates, reordered             atomic.Int64
	sessionLosses                     atomic.Int64
	mutations                         atomic.Int64
	reorderMu                         sync.Mutex
	reorderCand                       [][2]int32

	fatalMu sync.Mutex
	fatal   []string
	fatalN  int
}

func (r *run) now() int64 { return int64(time.Since(r.base)) + 1 }

// fail records an oracle violation; the run then reports incorrect and
// exits non-zero.
func (r *run) fail(format string, args ...any) {
	r.fatalMu.Lock()
	defer r.fatalMu.Unlock()
	r.fatalN++
	if len(r.fatal) < 10 {
		r.fatal = append(r.fatal, fmt.Sprintf(format, args...))
	}
}

// newRun builds the deployment, connects the clients, opens every stream
// and waits until every topic has its host subscription. Its duration is
// one setup_s sample.
func newRun(s spec, o options, base time.Time) (*run, error) {
	start := time.Now()
	r := &run{s: s, o: o, base: base, workers: min(2, runtime.NumCPU()), hostIdx: make(map[string]int)}
	if o.traced {
		r.tr = newTracer(r.now)
	}
	t, err := buildTopo(s, o.seed, r.tr)
	if err != nil {
		return nil, err
	}
	r.t = t
	for i, h := range t.hosts {
		r.hostIdx[h.ID()] = i
		r.hostIDs = append(r.hostIDs, h.ID())
	}
	g := t.graph
	r.p = newPlan(s, o.seed, o.seconds, r.workers, func(a, b socialgraph.UserID) bool {
		return g.Blocks(a, b) || g.Blocks(b, a)
	})
	r.threadDone = make([]uint64, len(r.p.groups))
	if err := r.connect(); err != nil {
		r.close()
		return nil, err
	}
	if err := r.awaitReady(30 * time.Second); err != nil {
		r.close()
		return nil, err
	}
	r.setup = time.Since(start)
	return r, nil
}

func (r *run) connect() error {
	for i := 0; i < r.s.sessions; i++ {
		rwc, err := r.t.dial(i)
		if err != nil {
			return fmt.Errorf("dial %s: %w", popID(i), err)
		}
		if r.tr != nil {
			rwc = r.tr.countConn(rwc, &r.tr.clientBytes)
		}
		r.sess = append(r.sess, newClientSess(r, i, rwc))
	}
	if r.s.app == messengerApp {
		for _, mem := range r.p.members {
			out, err := r.t.mutate(mem[0], fmt.Sprintf(`createThread(members: "%d,%d")`, mem[0], mem[1]))
			if err != nil {
				return fmt.Errorf("create thread: %w", err)
			}
			tid, err := parseUint(out)
			if err != nil {
				return fmt.Errorf("create thread: result %q: %w", out, err)
			}
			r.tids = append(r.tids, tid)
		}
	}
	for i, u := range r.p.users {
		st := &stream{idx: int32(i), user: u, group: r.p.group[i], pos: r.p.pos[i], host: -1, lastIdx: -1}
		st.sess = r.sess[i%len(r.sess)]
		st.header = burst.Header{burst.HdrUser: fmt.Sprint(u)}
		if r.s.app == feedApp {
			st.header[burst.HdrApp] = apps.AppFeedComments
			st.header[burst.HdrSubscription] = fmt.Sprintf("feedPostComments(postID: %d)", r.p.postID(st.group))
		} else {
			st.header[burst.HdrApp] = apps.AppMessenger
			st.header[burst.HdrSubscription] = "messenger"
		}
		r.streams = append(r.streams, st)
		if err := st.sess.subscribe(st, st.header.Clone()); err != nil {
			return fmt.Errorf("subscribe user %d: %w", u, err)
		}
	}
	return nil
}

// topic is the Pylon topic stream st's events publish on.
func (r *run) topic(st *stream) pylon.Topic {
	if r.s.app == feedApp {
		return apps.PostTopic(r.p.postID(st.group))
	}
	return apps.MailboxTopic(st.user)
}

// awaitReady waits until every stream has landed on a host and every
// (topic, host) pair the streams need is subscribed in Pylon.
func (r *run) awaitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	type need struct {
		topic pylon.Topic
		host  string
	}
	pending := make(map[need]bool)
	for _, st := range r.streams {
		for {
			st.mu.Lock()
			h := st.host
			st.mu.Unlock()
			if h >= 0 {
				pending[need{r.topic(st), r.hostIDs[h]}] = true
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("stream of user %d never landed on a host", st.user)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for len(pending) > 0 {
		for n := range pending {
			for _, h := range r.t.pylon.Subscribers(n.topic) {
				if h == n.host {
					delete(pending, n)
					break
				}
			}
		}
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d topic subscriptions never reached Pylon", len(pending))
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func (r *run) close() {
	for _, c := range r.sess {
		c.close()
	}
	r.t.close()
}

// runPhase starts the phase's clock, lets the workers issue its schedule
// open-loop, and then drains: it waits until every planned delivery and
// resume has arrived, or until the drain timeout after the last due time.
func (r *run) runPhase(ph int) {
	start := r.now()
	r.phaseStart[ph] = start
	var last time.Duration
	for _, m := range r.p.muts {
		if m.phase == ph {
			m.dueAt = start + int64(m.due)
		}
	}
	for _, evs := range r.p.events[ph] {
		if n := len(evs); n > 0 && evs[n-1].due > last {
			last = evs[n-1].due
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.work(ph, r.p.events[ph][w])
		}(w)
	}
	wg.Wait()
	deadline := start + int64(last) + int64(r.o.drain)
	for r.now() < deadline && r.outstanding(ph) > 0 {
		time.Sleep(10 * time.Millisecond)
	}
}

// outstanding counts planned deliveries and resumes of phase ph not yet
// seen.
func (r *run) outstanding(ph int) int {
	n := 0
	for _, m := range r.p.muts {
		if m.phase == ph {
			n += int(m.remaining.Load())
		}
	}
	if ph != steadyPhase {
		return n
	}
	r.resumesMu.Lock()
	defer r.resumesMu.Unlock()
	for _, rs := range r.resumes {
		rs.st.mu.Lock()
		if rs.done == 0 {
			n++
		}
		rs.st.mu.Unlock()
	}
	return n
}

// work issues one worker's share of the phase schedule. Each action waits
// for its due time and for nothing else but this worker's previous call;
// one due while that call is still running goes out as soon as it returns.
// Latency is timed from the due time either way, and the lateness is
// recorded (gen.late_ms_p99).
func (r *run) work(ph int, evs []event) {
	base := r.phaseStart[ph]
	for _, ev := range evs {
		if d := base + int64(ev.due) - r.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		switch ev.kind {
		case evMutate:
			r.issue(ev.m)
		case evCancel:
			r.goOffline(r.streams[ev.st])
		case evResub:
			r.resubscribe(r.streams[ev.st], ev.due)
		}
	}
}

func (r *run) issue(m *mutation) {
	var expr string
	if r.s.app == feedApp {
		expr = fmt.Sprintf(`postFeedComment(postID: %d, text: "%s")`, r.p.postID(m.group), m.text)
	} else {
		expr = fmt.Sprintf(`sendMessage(threadID: %d, text: "%s")`, r.tids[m.group], m.text)
	}
	m.start = r.now()
	out, err := r.t.mutate(m.author, expr)
	m.end = r.now()
	r.mutations.Add(1)
	if err == nil {
		m.ref, err = parseUint(out)
	}
	if err != nil {
		m.err = err
		fmt.Fprintf(os.Stderr, "perfbench: mutation m%d: %v\n", m.idx, err)
		return
	}
	if r.s.app == messengerApp {
		r.threadDone[m.group]++
	}
	if r.tr != nil && r.tr.on.Load() {
		r.tr.record(kMutate, m.start, m.end, m.ref, 0, -1)
	}
}

func (r *run) goOffline(st *stream) {
	if err := st.sess.cancel(st); err != nil {
		r.fail("cancel stream of user %d: %v", st.user, err)
	}
}

// resubscribe reopens st with its stored header and starts timing the
// resume: every message sequenced to the mailbox before now must arrive.
// The thread's sends are issued by this same worker, so threadDone is
// exact here. due is the planned end of the offline episode.
func (r *run) resubscribe(st *stream, due time.Duration) {
	rs := &resume{st: st, target: r.threadDone[st.group]}
	for _, iv := range r.p.offline[st.idx] {
		if iv[1] == due {
			rs.offline = iv
		}
	}
	st.mu.Lock()
	rs.sent = r.now()
	h := st.resumeHeader()
	st.pending = rs
	st.mu.Unlock()
	r.resumesMu.Lock()
	r.resumes = append(r.resumes, rs)
	r.resumesMu.Unlock()
	if err := st.sess.subscribe(st, h); err != nil {
		r.fail("resubscribe user %d: %v", st.user, err)
	}
}

// expected reports whether stream st is an expected recipient of m: the
// feed skips the author and blocked pairs; the messenger counts only
// streams planned live at m's due time.
func (r *run) expected(m *mutation, st *stream) bool {
	return m.err == nil && r.p.plannedExpected(m, st.idx)
}

// flagged reports whether st saw a flow_status while a delivery due at
// due was awaited.
func (r *run) flagged(st *stream, due int64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, f := range st.flows {
		if f >= due && f <= due+int64(r.o.drain) {
			return true
		}
	}
	return false
}

// inWindow reports whether a delivery due at due was processed wholly
// inside one traced window.
func inWindow(wins []window, due int64, guard time.Duration) bool {
	for _, w := range wins {
		if w.on && due >= w.start && due+int64(guard) <= w.end {
			return true
		}
	}
	return false
}

// steadyBlocks is how many equal blocks the steady phase splits into. The
// latency and CPU metrics are computed per block and reported as the
// median block, so one collector pause or scheduling stall moves one
// block, not the run's figure.
const steadyBlocks = 20

// cpuSample is the process CPU time and the payloads received so far at a
// block boundary.
type cpuSample struct {
	at       int64
	cpu      time.Duration
	payloads int64
}

// sampleBlocks records a cpuSample at each steady-phase block boundary,
// starting now.
func (r *run) sampleBlocks() []cpuSample {
	start := r.now()
	block := time.Duration(r.o.seconds * float64(time.Second) / steadyBlocks)
	out := []cpuSample{{at: start, cpu: cpuNow(), payloads: r.payloads.Load()}}
	for b := 1; b <= steadyBlocks; b++ {
		if d := start + int64(b)*int64(block) - r.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		out = append(out, cpuSample{at: r.now(), cpu: cpuNow(), payloads: r.payloads.Load()})
	}
	return out
}

// window is one traced-run interval with tracing on or off and the
// counters read at its boundaries.
type window struct {
	on         bool
	start, end int64
	from, to   counters
}

// toggle alternates tracing on and off every o.window until stop closes,
// reading the public counters at each boundary.
func (r *run) toggle(stop <-chan struct{}) []window {
	var wins []window
	for on := true; ; on = !on {
		w := window{on: on, start: r.now(), from: r.counters()}
		r.tr.on.Store(on)
		tick := time.NewTimer(r.o.window)
		select {
		case <-stop:
			tick.Stop()
			r.tr.on.Store(false)
			w.end, w.to = r.now(), r.counters()
			return append(wins, w)
		case <-tick.C:
		}
		w.end, w.to = r.now(), r.counters()
		wins = append(wins, w)
	}
}
