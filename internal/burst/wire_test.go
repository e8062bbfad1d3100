package burst

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameSubscribe, SID: 1, Payload: []byte(`{"header":{"app":"lvc"}}`)},
		{Type: FrameCancel, SID: 42, Payload: []byte(`{}`)},
		{Type: FrameAck, SID: 7, Payload: []byte(`{"seq":9}`)},
		{Type: FrameBatch, SID: 1 << 40, Payload: []byte(`{"deltas":[]}`)},
		{Type: FramePing},
		{Type: FramePong},
		{Type: FrameRequest, SID: 3, Payload: []byte("\x0fpylon.subscribe{\"topic\":\"/t/1\"}")},
		{Type: FrameRequest, Payload: []byte("\x0dpylon.deliver{}")}, // notification
		{Type: FrameReply, SID: 3},
		{Type: FrameError, SID: 4, Payload: []byte("\x0fpylon-no-quorum2 of 3 down")},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.SID != want.SID || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("expected EOF at end, got %v", err)
	}
}

func TestReadFrameRejectsUnknownType(t *testing.T) {
	for _, typ := range []byte{0, byte(FrameError) + 1, 0xEE} {
		var buf bytes.Buffer
		buf.WriteByte(typ)
		buf.Write(make([]byte, 12))
		if _, err := ReadFrame(&buf); err == nil {
			t.Errorf("unknown frame type %d accepted", typ)
		}
	}
}

func TestReadFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(byte(FrameBatch))
	buf.Write(make([]byte, 8))
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB length
	if _, err := ReadFrame(&buf); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized payload: %v", err)
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	err := WriteFrame(io.Discard, Frame{Type: FrameBatch, Payload: make([]byte, MaxPayload+1)})
	if err == nil {
		t.Error("oversized write accepted")
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameBatch, SID: 1, Payload: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestSubscribeEncodeDecode(t *testing.T) {
	sub := Subscribe{
		Header: Header{HdrApp: "lvc", HdrTopic: "/LVC/9", HdrUser: "77"},
		Body:   []byte{0x01, 0x02, 0xFF},
	}
	b, err := EncodePayload(sub)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSubscribe(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sub) {
		t.Errorf("roundtrip: got %+v want %+v", got, sub)
	}
}

func TestBatchEncodeDecode(t *testing.T) {
	batch := Batch{Deltas: []Delta{
		PayloadDelta(3, []byte("comment")),
		FlowStatusDelta(FlowRecovered, "proxy back"),
		RewriteDelta(Header{HdrStickyBRASS: "brass-7"}, nil),
		TerminationDelta("load shed"),
	}}
	b, err := EncodePayload(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Deltas) != 4 {
		t.Fatalf("deltas = %d", len(got.Deltas))
	}
	if got.Deltas[0].Type != DeltaPayload || got.Deltas[0].Seq != 3 || string(got.Deltas[0].Payload) != "comment" {
		t.Errorf("payload delta: %+v", got.Deltas[0])
	}
	if got.Deltas[1].Flow != FlowRecovered || got.Deltas[1].FlowDetail != "proxy back" {
		t.Errorf("flow delta: %+v", got.Deltas[1])
	}
	if got.Deltas[2].Header[HdrStickyBRASS] != "brass-7" {
		t.Errorf("rewrite delta: %+v", got.Deltas[2])
	}
	if got.Deltas[3].Reason != "load shed" {
		t.Errorf("termination delta: %+v", got.Deltas[3])
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []byte("{not json")
	if _, err := DecodeSubscribe(bad); err == nil {
		t.Error("bad subscribe accepted")
	}
	if _, err := DecodeCancel(bad); err == nil {
		t.Error("bad cancel accepted")
	}
	if _, err := DecodeAck(bad); err == nil {
		t.Error("bad ack accepted")
	}
	if _, err := DecodeBatch(bad); err == nil {
		t.Error("bad batch accepted")
	}
}

func TestHeaderClone(t *testing.T) {
	h := Header{HdrApp: "x"}
	c := h.Clone()
	c[HdrApp] = "y"
	if h[HdrApp] != "x" {
		t.Error("clone aliased original")
	}
	if Header(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

func TestTypeStrings(t *testing.T) {
	if FrameSubscribe.String() != "subscribe" || FrameRequest.String() != "request" || FrameType(99).String() == "" {
		t.Error("FrameType.String broken")
	}
	if DeltaFlowStatus.String() != "flow_status" || DeltaType(99).String() == "" {
		t.Error("DeltaType.String broken")
	}
	if FlowDegraded.String() != "degraded" || FlowCode(99).String() == "" {
		t.Error("FlowCode.String broken")
	}
}

// Property: any frame with a valid type and bounded payload round-trips.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(typ uint8, sid uint64, payload []byte) bool {
		ft := FrameType(typ%uint8(FrameError)) + 1
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		in := Frame{Type: ft, SID: StreamID(sid), Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		if len(in.Payload) == 0 {
			return out.Type == in.Type && out.SID == in.SID && len(out.Payload) == 0
		}
		return out.Type == in.Type && out.SID == in.SID && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
