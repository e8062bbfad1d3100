// Package burst implements BURST (Bladerunner Unified Request Stream
// Transport), the application-level request-stream protocol of paper §3.5.
//
// BURST connects client devices to BRASS instances across multiple hops
// (device → POP → reverse proxy → BRASS). Each request-stream is a
// first-class entity: it is routed independently, fails independently, and
// is multiplexed with other streams over whatever underlying byte transport
// a hop uses (here: any net.Conn, including net.Pipe and TCP).
//
// The transport guarantee mirrors TCP's: deltas sent on a stream arrive in
// order, and failures are signalled to the participating nodes. Because a
// stream spans several participants, failure signalling is richer than a
// socket error: flow_status deltas carry failure and recovery notifications
// to every node on the path (paper §4, axiom 1). rewrite_request deltas let
// the serving BRASS replace the stored subscription request used for
// reconnection, enabling sticky routing, resumption, and redirects.
package burst

import (
	"encoding/json"
	"fmt"

	"bladerunner/internal/trace"
)

// StreamID identifies a request-stream within one session. IDs are chosen
// by the stream initiator (the device, or a proxy acting for one).
type StreamID uint64

// Header carries the properties of a subscription request: the application
// name, the GraphQL subscription / topic, client version, sticky-routing
// hints, resume tokens, and anything a BRASS patches in via rewrites. The
// paper standardizes on JSON for headers; so do we.
type Header map[string]string

// Well-known header keys used across the system.
const (
	// HdrApp names the Bladerunner application (e.g. "livecomments").
	HdrApp = "app"
	// HdrSubscription is the client's subscription expression, resolved
	// by the WAS into a concrete topic.
	HdrSubscription = "subscription"
	// HdrTopic is the concrete Pylon topic (filled by BRASS/WAS).
	HdrTopic = "topic"
	// HdrUser identifies the subscribing user.
	HdrUser = "user"
	// HdrStickyBRASS pins the stream to a BRASS instance on reconnect
	// (sticky routing; written by a rewrite as soon as a stream lands).
	HdrStickyBRASS = "sticky-brass"
	// HdrClientVersion expresses client capabilities to the BRASS.
	HdrClientVersion = "client-version"
	// HdrCursor is a reliable stream's one resume token, "epoch.seq" (or
	// the "earliest" sentinel internal/durlog accepts as input). The
	// server rewrites it forward as deltas are delivered; the client
	// clamps it down to the highest seq it applied with no gap below
	// before every resubscribe, whether a reconnect, a shed marker or a
	// seq gap caused it. The serving BRASS catches up from it: the host
	// log's retained suffix when the epoch matches (the log expires a
	// cursor rather than fabricate one), then a WAS read for the rest.
	// Epoch 0, which no log issues, marks a stream served without a log.
	// Like HdrAdmissionState it lives in the stored request, so failover
	// rewrites and resubscriptions carry it across hosts.
	HdrCursor = "cursor"
	// HdrTraceStream is a stable stream identity stamped by the device at
	// subscribe time. Rewrites and resubscriptions preserve it (rewrites
	// patch individual keys; resubscribe replays the stored request), so
	// spans recorded before and after a recovery join on the same value —
	// the trace plane's view of "the same stream".
	HdrTraceStream = "trace-stream"
)

// Clone returns a deep copy of the header.
func (h Header) Clone() Header {
	if h == nil {
		return nil
	}
	out := make(Header, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// FrameType discriminates the frames exchanged on a BURST session.
type FrameType uint8

// Frame types. Subscribe/Cancel/Ack flow upstream (toward the BRASS);
// Batch flows downstream; Ping/Pong flow both ways for liveness.
// Request/Reply/Error carry the tier-to-tier RPC of internal/ctrl on a
// session with no streams: the SID is the request id (0 for a
// notification), never a stream.
const (
	FrameSubscribe FrameType = iota + 1
	FrameCancel
	FrameAck
	FrameBatch
	FramePing
	FramePong
	FrameRequest
	FrameReply
	FrameError
)

func (t FrameType) String() string {
	switch t {
	case FrameSubscribe:
		return "subscribe"
	case FrameCancel:
		return "cancel"
	case FrameAck:
		return "ack"
	case FrameBatch:
		return "batch"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameRequest:
		return "request"
	case FrameReply:
		return "reply"
	case FrameError:
		return "error"
	default:
		return fmt.Sprintf("frametype(%d)", uint8(t))
	}
}

// Subscribe is the payload of a FrameSubscribe: it instantiates a stream.
type Subscribe struct {
	// Header indicates the properties of the request, visible to and
	// interpreted by proxies for routing.
	Header Header `json:"header"`
	// Body is an opaque blob only the target BRASS understands.
	Body []byte `json:"body,omitempty"`
}

// Cancel is the payload of a FrameCancel: it terminates a stream from the
// client side.
type Cancel struct {
	Reason string `json:"reason,omitempty"`
}

// Ack is the payload of a FrameAck: the client acknowledges deltas up to
// and including Seq (used by applications implementing reliable delivery).
type Ack struct {
	Seq uint64 `json:"seq"`
}

// DeltaType discriminates the deltas inside a batch (paper §3.5).
type DeltaType uint8

// Delta types.
const (
	// DeltaPayload carries a social-graph update (GraphQL payload).
	DeltaPayload DeltaType = iota + 1
	// DeltaFlowStatus signals failure or recovery of the stream path.
	DeltaFlowStatus
	// DeltaRewriteRequest replaces the stored subscription request used
	// for reconnection.
	DeltaRewriteRequest
	// DeltaTermination ends the stream from the server side.
	DeltaTermination
)

func (t DeltaType) String() string {
	switch t {
	case DeltaPayload:
		return "payload"
	case DeltaFlowStatus:
		return "flow_status"
	case DeltaRewriteRequest:
		return "rewrite_request"
	case DeltaTermination:
		return "termination"
	default:
		return fmt.Sprintf("deltatype(%d)", uint8(t))
	}
}

// FlowCode enumerates flow_status conditions.
type FlowCode uint8

// Flow status codes.
const (
	// FlowDegraded: a path component failed; delivery may be lossy while
	// recovery is in progress.
	FlowDegraded FlowCode = iota + 1
	// FlowRecovered: the path healed; the stream remains intact but
	// deltas may have been dropped in between.
	FlowRecovered
	// FlowRerouted: the stream was re-established, possibly to a
	// different BRASS; the application decides how to resynchronize.
	FlowRerouted
)

func (c FlowCode) String() string {
	switch c {
	case FlowDegraded:
		return "degraded"
	case FlowRecovered:
		return "recovered"
	case FlowRerouted:
		return "rerouted"
	default:
		return fmt.Sprintf("flowcode(%d)", uint8(c))
	}
}

// Delta is one element of a server-to-client batch.
type Delta struct {
	Type DeltaType `json:"type"`
	// Seq is the application-assigned sequence number of a payload delta
	// (0 when unused).
	Seq uint64 `json:"seq,omitempty"`
	// Payload is the update body for DeltaPayload.
	Payload []byte `json:"payload,omitempty"`
	// Flow describes a DeltaFlowStatus.
	Flow FlowCode `json:"flow,omitempty"`
	// FlowDetail is a human-readable description of the flow event.
	FlowDetail string `json:"flow_detail,omitempty"`
	// Header is the replacement subscription header for
	// DeltaRewriteRequest.
	Header Header `json:"header,omitempty"`
	// Body is the replacement subscription body for DeltaRewriteRequest
	// (nil leaves the body unchanged).
	Body []byte `json:"body,omitempty"`
	// Reason describes a DeltaTermination.
	Reason string `json:"reason,omitempty"`
	// Trace is the trace context of the mutation that produced a payload
	// delta (zero when unsampled). It rides the wire so proxies and the
	// device can close their hop spans against the originating trace.
	Trace trace.ID `json:"trace,omitempty"`
}

// PayloadDelta builds a payload delta.
func PayloadDelta(seq uint64, payload []byte) Delta {
	return Delta{Type: DeltaPayload, Seq: seq, Payload: payload}
}

// FlowStatusDelta builds a flow_status delta.
func FlowStatusDelta(code FlowCode, detail string) Delta {
	return Delta{Type: DeltaFlowStatus, Flow: code, FlowDetail: detail}
}

// RewriteDelta builds a rewrite_request delta.
func RewriteDelta(h Header, body []byte) Delta {
	return Delta{Type: DeltaRewriteRequest, Header: h, Body: body}
}

// TerminationDelta builds a termination delta.
func TerminationDelta(reason string) Delta {
	return Delta{Type: DeltaTermination, Reason: reason}
}

// Batch is the payload of a FrameBatch: a group of deltas transmitted and
// applied atomically (paper §3.5: "processed client side atomically, in an
// all or nothing fashion").
type Batch struct {
	Deltas []Delta `json:"deltas"`
}

// Frame is one unit on the wire: a type, the stream it belongs to, and a
// JSON-encoded payload appropriate to the type. Ping/Pong frames have
// SID 0 and empty payloads.
type Frame struct {
	Type FrameType
	SID  StreamID
	// Payload is the JSON encoding of Subscribe/Cancel/Ack/Batch.
	Payload []byte
}

// EncodePayload marshals v into a frame payload.
func EncodePayload(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("burst: encode payload: %w", err)
	}
	return b, nil
}

// DecodeSubscribe parses a Subscribe payload.
func DecodeSubscribe(b []byte) (Subscribe, error) {
	var s Subscribe
	if err := json.Unmarshal(b, &s); err != nil {
		return Subscribe{}, fmt.Errorf("burst: decode subscribe: %w", err)
	}
	return s, nil
}

// DecodeCancel parses a Cancel payload.
func DecodeCancel(b []byte) (Cancel, error) {
	var c Cancel
	if err := json.Unmarshal(b, &c); err != nil {
		return Cancel{}, fmt.Errorf("burst: decode cancel: %w", err)
	}
	return c, nil
}

// DecodeAck parses an Ack payload.
func DecodeAck(b []byte) (Ack, error) {
	var a Ack
	if err := json.Unmarshal(b, &a); err != nil {
		return Ack{}, fmt.Errorf("burst: decode ack: %w", err)
	}
	return a, nil
}

// DecodeBatch parses a Batch payload.
func DecodeBatch(b []byte) (Batch, error) {
	var ba Batch
	if err := json.Unmarshal(b, &ba); err != nil {
		return Batch{}, fmt.Errorf("burst: decode batch: %w", err)
	}
	return ba, nil
}
