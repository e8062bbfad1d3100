package apps

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/durlog"
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/tao"
	"bladerunner/internal/was"
)

// Messenger is the application that needs reliable, in-order delivery on
// top of Bladerunner's best-effort substrate (paper §4). Each user has a
// mailbox; every message to a thread is appended to each member's mailbox
// with the mailbox's next consecutive sequence number. Gaps are therefore
// detectable at both the BRASS and the device, and the BRASS repairs them
// (paper axiom 3: stream-state recovery belongs to the BRASS).
//
// The one resume token is burst.HdrCursor, "epoch.seq" naming the last
// sequence number pushed, persisted in the stream header via rewrites.
// Every device repair — reconnect, shed marker, sequence gap — is a
// resubscribe carrying that cursor clamped to what the device applied
// gap-free; the (possibly different) serving BRASS then runs catchUp:
// the host log's retained suffix first, then the WAS mailbox above it.
type Messenger struct {
	w Registrar

	mu      sync.Mutex
	threads map[uint64][]socialgraph.UserID // thread → members
	mailbox map[socialgraph.UserID]*mailboxState
	nextTID uint64
}

type mailboxState struct {
	ref     tao.ObjID // TAO object anchoring the mailbox assoc list
	nextSeq uint64
}

// MessagePayload is the device-facing message JSON.
type MessagePayload struct {
	Seq    uint64 `json:"seq"`
	Thread uint64 `json:"thread"`
	Author uint64 `json:"author"`
	Text   string `json:"text"`
}

// MailboxTopic returns the Pylon topic for a user's mailbox.
func MailboxTopic(uid socialgraph.UserID) pylon.Topic {
	return pylon.Topic(fmt.Sprintf("/MB/%d", uid))
}

// NewMessenger registers the WAS half and returns the application.
func NewMessenger(w Registrar) *Messenger {
	a := &Messenger{
		w:       w,
		threads: make(map[uint64][]socialgraph.UserID),
		mailbox: make(map[socialgraph.UserID]*mailboxState),
	}

	// createThread(members: "1,2,3") → thread id.
	w.RegisterMutation("createThread", func(ctx *was.Ctx, call was.FieldCall) (any, error) {
		raw, err := call.StringArg("members")
		if err != nil {
			return nil, err
		}
		var members []socialgraph.UserID
		for _, part := range strings.Split(raw, ",") {
			uid, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("messenger: bad member %q", part)
			}
			members = append(members, socialgraph.UserID(uid))
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("messenger: thread needs members")
		}
		a.mu.Lock()
		a.nextTID++
		tid := a.nextTID
		a.threads[tid] = members
		a.mu.Unlock()
		return tid, nil
	})

	// sendMessage(threadID: T, text: "..."): append to every member's
	// mailbox with that mailbox's next sequence number, then publish one
	// event per member mailbox.
	w.RegisterMutation("sendMessage", func(ctx *was.Ctx, call was.FieldCall) (any, error) {
		tid, err := call.Uint64Arg("threadID")
		if err != nil {
			return nil, err
		}
		text, err := call.StringArg("text")
		if err != nil {
			return nil, err
		}
		a.mu.Lock()
		members := a.threads[tid]
		a.mu.Unlock()
		if members == nil {
			return nil, fmt.Errorf("messenger: unknown thread %d", tid)
		}
		ref := ctx.Srv.TAO.ObjectAdd("message", map[string]string{
			"text":   text,
			"author": strconv.FormatUint(uint64(ctx.Viewer), 10),
			"thread": strconv.FormatUint(tid, 10),
		})
		for _, member := range members {
			seq := a.appendToMailbox(ctx, member, ref)
			ctx.Publish(pylon.Event{
				Topic: MailboxTopic(member),
				Ref:   uint64(ref),
				Seq:   seq,
				Meta: map[string]string{
					"author": strconv.FormatUint(uint64(ctx.Viewer), 10),
					"thread": strconv.FormatUint(tid, 10),
					"seq":    strconv.FormatUint(seq, 10),
				},
			}, false)
		}
		return uint64(ref), nil
	})

	// mailboxSince(seq: S) → messages with sequence > S, oldest first.
	// The BRASS uses this for gap repair and resume catch-up.
	w.RegisterQuery("mailboxSince", func(ctx *was.Ctx, call was.FieldCall) (any, error) {
		since, err := call.Uint64Arg("seq")
		if err != nil {
			return nil, err
		}
		return a.mailboxSince(ctx, ctx.Viewer, since), nil
	})

	w.RegisterSubscription("messenger", func(ctx *was.Ctx, call was.FieldCall) ([]pylon.Topic, error) {
		return []pylon.Topic{MailboxTopic(ctx.Viewer)}, nil
	})

	w.RegisterPayload(AppMessenger, func(ctx *was.Ctx, ref tao.ObjID, ev pylon.Event) (any, error) {
		obj, err := ctx.Reader().ObjectGet(ref)
		if err != nil {
			return nil, err
		}
		return a.payloadFromObj(obj, ev.Seq), nil
	})
	return a
}

func (a *Messenger) payloadFromObj(obj tao.Object, seq uint64) MessagePayload {
	author, _ := strconv.ParseUint(obj.Data["author"], 10, 64)
	thread, _ := strconv.ParseUint(obj.Data["thread"], 10, 64)
	return MessagePayload{Seq: seq, Thread: thread, Author: author, Text: obj.Data["text"]}
}

// appendToMailbox assigns the next sequence number and stores the mailbox
// association in TAO (assoc data = seq).
func (a *Messenger) appendToMailbox(ctx *was.Ctx, member socialgraph.UserID, ref tao.ObjID) uint64 {
	a.mu.Lock()
	mb := a.mailbox[member]
	if mb == nil {
		anchor := ctx.Srv.TAO.ObjectAdd("mailbox", map[string]string{
			"owner": strconv.FormatUint(uint64(member), 10),
		})
		mb = &mailboxState{ref: anchor}
		a.mailbox[member] = mb
	}
	mb.nextSeq++
	seq := mb.nextSeq
	anchor := mb.ref
	a.mu.Unlock()
	ctx.Srv.TAO.AssocAdd(anchor, "mailbox_msg", ref, ctx.Now, strconv.FormatUint(seq, 10))
	return seq
}

// mailboxSince reads messages with seq > since, oldest first.
//
// This read deliberately stays on the TAO LEADER, not the region-local
// follower (ctx.Reader()): it is the reliable catch-up path that closes
// delivery gaps after failover, and a follower stale by one replication
// lag could silently drop the most recent messages — turning the gap-free
// resume guarantee into a best-effort one. Payload resolution of
// individual (immutable, created-once) message objects is safe on
// followers; the authoritative mailbox index is not.
func (a *Messenger) mailboxSince(ctx *was.Ctx, owner socialgraph.UserID, since uint64) []MessagePayload {
	a.mu.Lock()
	mb := a.mailbox[owner]
	a.mu.Unlock()
	if mb == nil {
		return nil
	}
	assocs := ctx.Srv.TAO.AssocRange(mb.ref, "mailbox_msg", 0, 0) // newest first
	out := make([]MessagePayload, 0, len(assocs))
	for i := len(assocs) - 1; i >= 0; i-- { // reverse to oldest-first
		seq, _ := strconv.ParseUint(assocs[i].Data, 10, 64)
		if seq <= since {
			continue
		}
		obj, err := ctx.Srv.TAO.ObjectGet(assocs[i].ID2)
		if err != nil {
			continue
		}
		out = append(out, a.payloadFromObj(obj, seq))
	}
	return out
}

// Name implements brass.Application.
func (a *Messenger) Name() string { return AppMessenger }

type messengerStream struct {
	lastSeq uint64
	// topic is the stream's resolved mailbox topic — the key it logs
	// deliveries and serves cursor catch-ups under when the host's
	// durable log is enabled for Messenger.
	topic pylon.Topic
}

type messengerInstance struct {
	app *Messenger
	rt  *brass.Runtime
}

// NewInstance implements brass.Application.
func (a *Messenger) NewInstance(rt *brass.Runtime) brass.AppInstance {
	return &messengerInstance{app: a, rt: rt}
}

func (in *messengerInstance) OnStreamOpen(st *brass.Stream) error {
	topics, err := in.rt.ResolveSubscription(st.Viewer, st.Header(burst.HdrSubscription))
	if err != nil {
		return err
	}
	state := &messengerStream{}
	st.State = state
	for _, t := range topics {
		if err := st.AddTopic(t); err != nil {
			return err
		}
	}
	if len(topics) > 0 {
		state.topic = topics[0]
		in.rt.LogOpen(state.topic)
	}
	// Resume from the stored cursor: a fresh stream has none and catches
	// up from the start of its mailbox. "earliest" names the log's
	// retained floor; a malformed cursor counts as none.
	var c durlog.Cursor
	switch raw := st.Header(burst.HdrCursor); raw {
	case "":
	case durlog.SentinelEarliest:
		c, _ = in.rt.LogEarliest(state.topic)
	default:
		c, _ = durlog.Parse(raw)
	}
	state.lastSeq = c.Seq
	in.catchUp(st, state, c, true)
	return nil
}

// catchUp is Messenger's one repair path, run on stream open and on an
// OnEvent gap. It serves the host log's retained suffix above c, then
// reads the mailbox from the WAS above the last seq served, and pushes
// both as one gap-free batch. The WAS read is never skipped: the log
// holds only what this host delivered, and a host that was unsubscribed
// from Pylon logged nothing meanwhile, so the log's tail is not the
// mailbox's. An expired cursor (durlog.ErrCursorExpired) serves nothing
// from the log and the WAS read covers the whole gap; c.Epoch 0, which no
// log issues, skips the log. A resume (stream open) bypasses per-stream
// admission (Stream.PushCatchUp); a gap repair is live delivery and stays
// under it, so a shed there reaches the device as a marker.
func (in *messengerInstance) catchUp(st *brass.Stream, state *messengerStream, c durlog.Cursor, resume bool) {
	last := state.lastSeq
	var logged, read []burst.Delta
	if c.Epoch != 0 {
		if entries, _, err := in.rt.LogRead(state.topic, c); err == nil {
			for _, e := range entries {
				if e.Seq == last+1 {
					logged = append(logged, burst.PayloadDelta(e.Seq, e.Payload))
					last = e.Seq
				}
			}
		}
	}
	if raw, err := in.rt.Query(st.Viewer, fmt.Sprintf("mailboxSince(seq: %d)", last)); err == nil {
		var msgs []MessagePayload
		_ = json.Unmarshal(raw, &msgs)
		for _, m := range msgs {
			if m.Seq != last+1 {
				continue
			}
			b, _ := json.Marshal(m)
			// The log records every delivery decision, including the ones
			// made from a WAS read: the next resume on this topic replays
			// them from the edge instead.
			in.rt.LogAppend(state.topic, m.Seq, b)
			read = append(read, burst.PayloadDelta(m.Seq, b))
			last = m.Seq
		}
	}
	// lastSeq advances even if the push fails: the stream is then dead,
	// and the device's cursor, clamped to what it applied, is what the
	// next resume trusts.
	state.lastSeq = last
	var err error
	switch {
	case len(logged)+len(read) == 0:
	case resume:
		err = st.PushCatchUp(logged, read)
	default:
		err = st.Push(append(logged, read...)...)
	}
	if err == nil {
		in.rewriteCursor(st, state)
	}
}

// rewriteCursor persists the stream's resume token, "epoch.seq" naming the
// last seq pushed. The epoch is the host log's for the topic, or 0 when
// the log is off, so such a stream always catches up from the WAS.
func (in *messengerInstance) rewriteCursor(st *brass.Stream, state *messengerStream) {
	c, _ := in.rt.LogTail(state.topic)
	c.Seq = state.lastSeq
	_ = st.RewriteHeaderField(burst.HdrCursor, c.String())
}

func (in *messengerInstance) OnStreamClose(st *brass.Stream, reason string) { st.State = nil }

func (in *messengerInstance) OnEvent(ev pylon.Event) {
	for _, st := range in.rt.Instance().StreamsForTopic(ev.Topic) {
		state, ok := st.State.(*messengerStream)
		if !ok {
			continue
		}
		switch {
		case ev.Seq <= state.lastSeq:
			// Duplicate (e.g. Pylon patch-forwarding): drop.
			st.Filtered()
		case ev.Seq == state.lastSeq+1:
			// In order: fetch and push. The log append happens BEFORE the
			// push and regardless of its admission outcome: Push reports
			// success even when the per-stream bucket sheds the payload, so
			// the log is what makes a shed delta recoverable by the
			// device's later cursor resume.
			payload, err := st.FetchPayload(ev)
			if err != nil {
				st.Filtered()
				continue
			}
			in.rt.LogAppend(ev.Topic, ev.Seq, payload)
			if st.PushPayloadFor(ev, ev.Seq, payload) == nil {
				state.lastSeq = ev.Seq
				in.rewriteCursor(st, state)
			}
		default:
			// Gap: a prior event was dropped somewhere. The BRASS
			// repairs it from the mailbox so the device never sees
			// the hole (paper §4: "BRASS will recover the dropped
			// message so the device does not have to"). The host log
			// never saw the dropped event either, so the repair reads
			// the WAS directly.
			in.catchUp(st, state, durlog.Cursor{Seq: state.lastSeq}, false)
		}
	}
}

func (in *messengerInstance) OnAck(st *brass.Stream, seq uint64) {
	// Device-acknowledged delivery; state is already tracked via lastSeq.
	// Acks exist so BRASSes can implement retransmission policies; the
	// mailbox makes retransmission a catch-up query here.
}

var _ brass.Application = (*Messenger)(nil)
