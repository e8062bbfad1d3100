package burst

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Wire format of a frame:
//
//	1 byte  frame type
//	8 bytes stream id (big endian)
//	4 bytes payload length (big endian)
//	N bytes payload (JSON for stream frames; see internal/ctrl for RPC frames)
//
// MaxPayload bounds a single frame's payload; batches larger than this must
// be split by the sender. The bound protects intermediaries from unbounded
// allocation on malformed input.
const MaxPayload = 4 << 20

const frameHeaderSize = 1 + 8 + 4

// WriteFrame encodes f to w. It is not safe for concurrent use; Session
// serializes writers.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("burst: frame payload %d exceeds max %d", len(f.Payload), MaxPayload)
	}
	var hdr [frameHeaderSize]byte
	hdr[0] = byte(f.Type)
	binary.BigEndian.PutUint64(hdr[1:9], uint64(f.SID))
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("burst: write frame header: %w", err)
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return fmt.Errorf("burst: write frame payload: %w", err)
		}
	}
	return nil
}

// ReadFrame decodes one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err // io.EOF passes through for clean shutdown
	}
	f := Frame{
		Type: FrameType(hdr[0]),
		SID:  StreamID(binary.BigEndian.Uint64(hdr[1:9])),
	}
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("burst: frame payload %d exceeds max %d", n, MaxPayload)
	}
	if f.Type < FrameSubscribe || f.Type > FrameError {
		return Frame{}, fmt.Errorf("burst: unknown frame type %d", hdr[0])
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("burst: read frame payload: %w", err)
		}
	}
	return f, nil
}

// frameReader wraps a connection with buffering for ReadFrame.
func frameReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 32<<10) }
