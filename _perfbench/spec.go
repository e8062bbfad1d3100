package main

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bladerunner/internal/socialgraph"
)

// app selects the Bladerunner application a workload drives.
type app int

const (
	feedApp      app = iota // FeedComments: comments on a post, fan-out to its viewers
	messengerApp            // Messenger: 1:1 threads, one mailbox stream per user
)

// spec is one workload: the traffic shape the seeded schedule is drawn
// from and the transport the tiers are joined with.
type spec struct {
	name    string
	app     app
	wire    bool    // join the tiers over loopback TCP (ctrl + BURST)
	streams int     // viewer streams (feed) or users with one stream each (messenger)
	posts   int     // feed: posts the viewers are spread over
	authors int     // feed: distinct comment authors
	rate    float64 // steady-phase mutations per second
	churn   float64 // messenger: streams per second going offline
	offline time.Duration
	// guard keeps every message of a thread at least this far from its
	// members' cancels and resubscribes, so which side of one a message
	// falls on is fixed by the seed and not by scheduling jitter.
	guard time.Duration
	// sessions is the number of client BURST sessions, one per POP.
	sessions int
	durlog   bool
	// peakFactor times rate is the offered rate of each peak burst; a
	// burst is a fixed batch of that rate held for peakSeconds.
	peakFactor  float64
	peakSeconds float64
}

// The feed workloads offer 20 comments/s, which keeps each about a third
// busy on its one P: hot_post peaks near 35k deliveries/s on 500 viewers a
// post, wire_fanout, with a ctrl round trip per privacy check, near 13k on
// 250. At 40/s they ran 55% and 70% busy, and a few percent less CPU from
// a shared machine moved hot_post's median delivery by a third and grew a
// backlog in wire_fanout.
var specs = []spec{
	{
		name: "hot_post", app: feedApp,
		streams: 2000, posts: 4, authors: 50, rate: 20,
		sessions: 2, peakFactor: 5, peakSeconds: 1,
	},
	{
		name: "mailbox_churn", app: messengerApp,
		streams: 2000, rate: 500, churn: 20, offline: 2 * time.Second, guard: 100 * time.Millisecond,
		sessions: 2, durlog: true, peakFactor: 5, peakSeconds: 1,
	},
	{
		name: "wire_fanout", app: feedApp, wire: true,
		streams: 1000, posts: 4, authors: 50, rate: 20,
		sessions: 1, peakFactor: 5, peakSeconds: 1,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// graphUsers sizes the social graph: every stream owner plus, for the
// feed, room for authors who are not viewers.
func (s spec) graphUsers() int {
	if s.app == feedApp {
		return s.streams + s.authors
	}
	return s.streams
}

// postBase offsets post ids away from the TAO object ids the store hands
// out, so a post id never names a comment object.
const postBase = 1_000_000

// blockProb makes privacy denials a visible share of fan-out work.
const blockProb = 0.1

// Phases of a run: the steady phase, then peakBursts peak bursts, each
// drained before the next starts.
const (
	steadyPhase = 0
	peakBursts  = 5
	numPhases   = 1 + peakBursts
)

// mutation is one generated write. Everything but the fields marked
// "runtime" is fixed by the seed before the system sees any input.
type mutation struct {
	idx    int32
	phase  int
	group  int32 // post index (feed) or thread index (messenger)
	author socialgraph.UserID
	text   string
	due    time.Duration // offset from its phase's start
	seq    uint64        // messenger: sequence number in both members' mailboxes
	worker int

	// runtime: written by the issuing worker, read after it finished.
	dueAt, start, end int64
	ref               uint64
	err               error

	// runtime: written by client read loops.
	recv      []int64       // per group position: first receipt time, 0 = none
	remaining atomic.Int32  // planned-expected deliveries not yet received
	seenRef   atomic.Uint64 // TAO ref the payloads named
}

// evKind is a generator action.
type evKind uint8

const (
	evMutate evKind = iota
	evCancel        // stream goes offline
	evResub         // stream resubscribes with its stored header
)

// event is one scheduled generator action.
type event struct {
	kind evKind
	due  time.Duration
	m    *mutation
	st   int32 // stream index for churn events
}

// plan is the seeded input of a run: who views what, who writes what and
// when, and which streams go offline when.
type plan struct {
	spec    spec
	users   []socialgraph.UserID // stream index -> owning user
	group   []int32              // stream index -> group
	pos     []int32              // stream index -> position within its group
	groups  [][]int32            // group -> stream indexes
	authors []socialgraph.UserID // feed
	members [][]socialgraph.UserID
	// offline holds each stream's planned offline intervals in the steady
	// phase (messenger), as offsets from the phase start.
	offline [][][2]time.Duration
	blocked func(a, b socialgraph.UserID) bool
	muts    []*mutation
	events  [numPhases][][]event // phase -> worker -> time-ordered actions
}

// textFor renders the comment/message body of mutation idx: a
// machine-readable prefix the client uses to find the mutation, then
// seeded words.
func textFor(idx int32, rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("m")
	b.WriteString(strconv.Itoa(int(idx)))
	for w := 0; w < 4; w++ {
		b.WriteByte(' ')
		n := 3 + rng.Intn(6)
		for i := 0; i < n; i++ {
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
	}
	return b.String()
}

// mutationIndex parses the index textFor embedded in a payload text.
func mutationIndex(text string) (int, bool) {
	if !strings.HasPrefix(text, "m") {
		return 0, false
	}
	end := strings.IndexByte(text, ' ')
	if end < 0 {
		end = len(text)
	}
	n, err := strconv.Atoi(text[1:end])
	return n, err == nil && n >= 0
}

// newPlan draws a run's inputs from seed. blocked reports whether either
// of two users blocks the other; the messenger pairs only users who may
// talk to each other, as a 1:1 thread between them could not exist.
func newPlan(s spec, seed int64, seconds float64, workers int, blocked func(a, b socialgraph.UserID) bool) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{spec: s, blocked: blocked}
	n := s.graphUsers()
	perm := rng.Perm(n)
	switch s.app {
	case feedApp:
		p.groups = make([][]int32, s.posts)
		for i := 0; i < s.streams; i++ {
			g := int32(rng.Intn(s.posts))
			p.users = append(p.users, socialgraph.UserID(perm[i]+1))
			p.group = append(p.group, g)
			p.pos = append(p.pos, int32(len(p.groups[g])))
			p.groups[g] = append(p.groups[g], int32(i))
		}
		for _, u := range rng.Perm(n)[:s.authors] {
			p.authors = append(p.authors, socialgraph.UserID(u+1))
		}
	case messengerApp:
		order := make([]socialgraph.UserID, n)
		for i, u := range perm {
			order[i] = socialgraph.UserID(u + 1)
		}
		for i := 0; i+1 < n; i += 2 {
			for try := 0; try < 64 && blocked(order[i], order[i+1]) && i+2 < n; try++ {
				j := i + 2 + rng.Intn(n-i-2)
				order[i+1], order[j] = order[j], order[i+1]
			}
			p.members = append(p.members, []socialgraph.UserID{order[i], order[i+1]})
		}
		p.groups = make([][]int32, len(p.members))
		for g, mem := range p.members {
			for k, u := range mem {
				st := int32(len(p.users))
				p.users = append(p.users, u)
				p.group = append(p.group, int32(g))
				p.pos = append(p.pos, int32(k))
				p.groups[g] = append(p.groups[g], st)
			}
		}
		p.offline = make([][][2]time.Duration, len(p.users))
	}

	threadSeq := make([]uint64, len(p.groups))
	for ph := 0; ph < numPhases; ph++ {
		rate, dur := s.rate, seconds
		if ph != steadyPhase {
			rate, dur = s.rate*s.peakFactor, s.peakSeconds
		}
		p.events[ph] = make([][]event, workers)
		if s.churn > 0 && ph == steadyPhase {
			p.planChurn(rng, int(s.churn*dur), dur, workers)
		}
		count := int(rate * dur)
		gap := time.Duration(float64(time.Second) / rate)
		for i := 0; i < count; i++ {
			m := &mutation{idx: int32(len(p.muts)), phase: ph, due: time.Duration(i) * gap}
			switch s.app {
			case feedApp:
				m.group = int32(rng.Intn(s.posts))
				m.author = p.authors[rng.Intn(len(p.authors))]
				m.worker = i % workers
			case messengerApp:
				m.group = p.drawThread(rng, ph, m.due)
				mem := p.members[m.group]
				m.author = mem[rng.Intn(len(mem))]
				threadSeq[m.group]++
				m.seq = threadSeq[m.group]
				// One worker per thread keeps each mailbox's sequence
				// numbers in schedule order.
				m.worker = int(m.group) % workers
			}
			m.text = textFor(m.idx, rng)
			m.recv = make([]int64, len(p.groups[m.group]))
			p.muts = append(p.muts, m)
			p.events[ph][m.worker] = append(p.events[ph][m.worker], event{kind: evMutate, due: m.due, m: m})
		}
		for w := range p.events[ph] {
			evs := p.events[ph][w]
			sort.SliceStable(evs, func(a, b int) bool { return evs[a].due < evs[b].due })
		}
	}
	for _, m := range p.muts {
		for _, st := range p.groups[m.group] {
			if p.plannedExpected(m, st) {
				m.remaining.Add(1)
			}
		}
	}
	return p
}

// planChurn draws count offline episodes with uniform start times over the
// steady phase, each on a stream that is online for the whole episode.
// Peak bursts carry mutations only.
func (p *plan) planChurn(rng *rand.Rand, count int, dur float64, workers int) {
	span := time.Duration(dur * float64(time.Second))
	starts := make([]time.Duration, count)
	for i := range starts {
		starts[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	busyUntil := make([]time.Duration, len(p.users))
	for i := range busyUntil {
		busyUntil[i] = -1
	}
	for _, at := range starts {
		var st int
		for try := 0; ; try++ {
			st = rng.Intn(len(p.users))
			if busyUntil[st] < at || try > 1000 {
				break
			}
		}
		back := at + p.spec.offline
		busyUntil[st] = back
		p.offline[st] = append(p.offline[st], [2]time.Duration{at, back})
		w := int(p.group[st]) % workers
		p.events[steadyPhase][w] = append(p.events[steadyPhase][w],
			event{kind: evCancel, due: at, st: int32(st)},
			event{kind: evResub, due: back, st: int32(st)})
	}
}

// drawThread picks the thread of a message due at due in phase ph. In the
// steady phase it redraws a thread with a member whose cancel or
// resubscribe lies within the guard of due.
func (p *plan) drawThread(rng *rand.Rand, ph int, due time.Duration) int32 {
	for try := 0; ; try++ {
		g := int32(rng.Intn(len(p.members)))
		if ph != steadyPhase || try >= 1000 || !p.nearChurn(g, due) {
			return g
		}
	}
}

func (p *plan) nearChurn(g int32, due time.Duration) bool {
	for _, st := range p.groups[g] {
		for _, iv := range p.offline[st] {
			for _, at := range iv {
				if d := due - at; d > -p.spec.guard && d < p.spec.guard {
					return true
				}
			}
		}
	}
	return false
}

// plannedExpected reports whether stream st should receive m by plan: the
// author's own feed stream and blocked pairs are skipped, and so are
// messenger streams planned offline at m's due time. It drives both the
// drain's early exit and the accounting: the guard keeps messages clear of
// the churn events, so the plan is what the system sees.
func (p *plan) plannedExpected(m *mutation, st int32) bool {
	u := p.users[st]
	if u == m.author && p.spec.app == feedApp || p.blocked(u, m.author) {
		return false
	}
	if p.offline == nil || m.phase != steadyPhase {
		return true
	}
	for _, iv := range p.offline[st] {
		if m.due >= iv[0] && m.due <= iv[1] {
			return false
		}
	}
	return true
}

func (p *plan) postID(g int32) uint64 { return postBase + uint64(g) }
