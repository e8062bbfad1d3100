package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bladerunner/internal/apps"
	"bladerunner/internal/burst"
	"bladerunner/internal/durlog"
	"bladerunner/internal/socialgraph"
)

// stream is one viewer's request-stream, as the client keeps it: the
// stored request header (patched by rewrites) it resubscribes with, and
// what it has received.
type stream struct {
	idx   int32
	user  socialgraph.UserID
	group int32
	pos   int32
	sess  *clientSess

	mu      sync.Mutex
	sid     burst.StreamID
	header  burst.Header
	host    int // serving host index from the sticky rewrite, -1 unknown
	flows   []int64
	pending *resume
	// Messenger sequence tracking.
	got    []bool // by seq
	prefix uint64 // highest seq with no gap below it
	maxSeq uint64

	lastIdx int32 // feed: highest mutation index received (read loop only)
}

// resume is one resubscribe after an offline episode.
type resume struct {
	st      *stream
	offline [2]time.Duration // the planned episode, offsets from the phase start
	sent    int64
	target  uint64 // seqs 1..target were sequenced before the resubscribe
	done    int64
}

// clientSess is one client BURST session carrying many viewers' streams,
// demultiplexed by a frame handler the way megadevice trunks do — but
// every viewer keeps its own request-stream.
type clientSess struct {
	r       *run
	sess    *burst.Session
	closing atomic.Bool

	mu      sync.Mutex
	bySID   map[burst.StreamID]*stream
	nextSID burst.StreamID
}

func newClientSess(r *run, i int, rwc io.ReadWriteCloser) *clientSess {
	c := &clientSess{r: r, bySID: make(map[burst.StreamID]*stream)}
	c.sess = burst.NewSession(fmt.Sprintf("client-%d", i), rwc, c)
	return c
}

func (c *clientSess) close() {
	c.closing.Store(true)
	_ = c.sess.Close()
}

// subscribe opens st under a fresh stream id with header h.
func (c *clientSess) subscribe(st *stream, h burst.Header) error {
	c.mu.Lock()
	c.nextSID++
	sid := c.nextSID
	c.bySID[sid] = st
	c.mu.Unlock()
	st.mu.Lock()
	st.sid = sid
	st.mu.Unlock()
	return c.sess.SendMsg(burst.FrameSubscribe, sid, burst.Subscribe{Header: h})
}

// cancel closes st's current stream id; frames still in flight for it are
// dropped, as a client that went offline would never see them.
func (c *clientSess) cancel(st *stream) error {
	st.mu.Lock()
	sid := st.sid
	st.mu.Unlock()
	c.mu.Lock()
	delete(c.bySID, sid)
	c.mu.Unlock()
	return c.sess.SendMsg(burst.FrameCancel, sid, burst.Cancel{Reason: "offline"})
}

func (st *stream) hostIndex() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.host
}

// resumeHeader is the stored header with its durable-log cursor clamped to
// the highest sequence number received with no gap below it.
func (st *stream) resumeHeader() burst.Header {
	h := st.header.Clone()
	if c := h[burst.HdrCursor]; c != "" {
		h[burst.HdrCursor] = durlog.Clamp(c, st.prefix)
	}
	return h
}

// HandleFrame implements burst.FrameHandler. It runs on the session's read
// goroutine; each stream belongs to exactly one session.
func (c *clientSess) HandleFrame(f burst.Frame) {
	if f.Type != burst.FrameBatch {
		return
	}
	r := c.r
	at := r.now()
	tr := r.tr
	traced := tr != nil && tr.on.Load()
	if traced {
		tr.frames.Add(1)
	}
	c.mu.Lock()
	st := c.bySID[f.SID]
	c.mu.Unlock()
	if st == nil {
		return
	}
	b, err := burst.DecodeBatch(f.Payload)
	if traced {
		tr.record(kDecode, at, r.now(), 0, uint32(st.user), -1)
	}
	if err != nil {
		r.fail("stream of user %d: %v", st.user, err)
		return
	}
	for i := range b.Deltas {
		d := &b.Deltas[i]
		switch d.Type {
		case burst.DeltaPayload:
			r.payloads.Add(1)
			if traced {
				tr.payloads.Add(1)
			}
			r.onPayload(st, d.Payload, at)
		case burst.DeltaFlowStatus:
			r.flowsSeen.Add(1)
			st.mu.Lock()
			st.flows = append(st.flows, at)
			st.mu.Unlock()
		case burst.DeltaRewriteRequest:
			if traced {
				tr.rewrites.Add(1)
			}
			if d.Header != nil {
				st.mu.Lock()
				st.header = d.Header.Clone()
				if h, ok := r.hostIdx[d.Header[burst.HdrStickyBRASS]]; ok {
					st.host = h
				}
				st.mu.Unlock()
			}
		case burst.DeltaTermination:
			r.terminations.Add(1)
		}
	}
	st.mu.Lock()
	if p := st.pending; p != nil && st.prefix >= p.target {
		p.done = at
		st.pending = nil
	}
	st.mu.Unlock()
}

// HandleClose implements burst.FrameHandler.
func (c *clientSess) HandleClose(err error) {
	if !c.closing.Load() {
		fmt.Fprintf(os.Stderr, "perfbench: client session lost: %v\n", err)
		c.r.sessionLosses.Add(1)
	}
}

// onPayload checks one payload delta against what the generator wrote and
// records its receipt.
func (r *run) onPayload(st *stream, raw []byte, at int64) {
	var (
		text   string
		author uint64
		m      *mutation
	)
	switch r.s.app {
	case feedApp:
		var p apps.CommentPayload
		if err := json.Unmarshal(raw, &p); err != nil {
			r.fail("user %d: undecodable comment payload: %v", st.user, err)
			return
		}
		if m = r.mutationFor(p.Text); m == nil {
			r.fail("user %d: comment %q was never written", st.user, p.Text)
			return
		}
		text, author = p.Text, p.Author
		if p.VideoID != r.p.postID(m.group) {
			r.fail("comment m%d: payload names post %d, written to %d", m.idx, p.VideoID, r.p.postID(m.group))
		}
		if prev := m.seenRef.Swap(p.CommentID); prev != 0 && prev != p.CommentID {
			r.fail("comment m%d: payloads name comment ids %d and %d", m.idx, prev, p.CommentID)
		}
	case messengerApp:
		var p apps.MessagePayload
		if err := json.Unmarshal(raw, &p); err != nil {
			r.fail("user %d: undecodable message payload: %v", st.user, err)
			return
		}
		if m = r.mutationFor(p.Text); m == nil {
			r.fail("user %d: message %q was never written", st.user, p.Text)
			return
		}
		text, author = p.Text, p.Author
		if p.Thread != r.tids[m.group] || p.Seq != m.seq {
			r.fail("message m%d: payload says thread %d seq %d, want thread %d seq %d",
				m.idx, p.Thread, p.Seq, r.tids[m.group], m.seq)
		}
	}
	if text != m.text || author != uint64(m.author) {
		r.fail("m%d: payload (author %d, %q) differs from the write (author %d, %q)",
			m.idx, author, text, m.author, m.text)
	}
	if m.group != st.group {
		r.fail("m%d delivered to user %d, whose stream is not a recipient", m.idx, st.user)
		return
	}
	if r.p.blocked(st.user, m.author) {
		r.fail("m%d by user %d delivered to user %d across a block", m.idx, m.author, st.user)
		return
	}
	if r.s.app == feedApp && st.user == m.author {
		r.fail("m%d echoed to its author's own stream", m.idx)
		return
	}
	if r.s.app == messengerApp {
		st.mu.Lock()
		seq := m.seq
		for uint64(len(st.got)) <= seq {
			st.got = append(st.got, false)
		}
		dup := st.got[seq]
		if !dup {
			st.got[seq] = true
			if seq < st.maxSeq {
				r.reordered.Add(1)
			}
			if seq > st.maxSeq {
				st.maxSeq = seq
			}
			for st.prefix+1 < uint64(len(st.got)) && st.got[st.prefix+1] {
				st.prefix++
			}
		}
		st.mu.Unlock()
		if dup {
			r.duplicates.Add(1)
			return
		}
	} else {
		if m.idx < st.lastIdx {
			r.reorderMu.Lock()
			r.reorderCand = append(r.reorderCand, [2]int32{m.idx, st.lastIdx})
			r.reorderMu.Unlock()
		} else {
			st.lastIdx = m.idx
		}
	}
	if !atomic.CompareAndSwapInt64(&m.recv[st.pos], 0, at) {
		r.duplicates.Add(1)
		return
	}
	if r.p.plannedExpected(m, st.idx) {
		m.remaining.Add(-1)
	}
}

// mutationFor finds the generated mutation a payload text names.
func (r *run) mutationFor(text string) *mutation {
	i, ok := mutationIndex(text)
	if !ok || i >= len(r.p.muts) {
		return nil
	}
	return r.p.muts[i]
}

// parseUint decodes the JSON number a mutation returns.
func parseUint(b []byte) (uint64, error) {
	return strconv.ParseUint(string(b), 10, 64)
}
