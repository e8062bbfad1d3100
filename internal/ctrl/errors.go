package ctrl

import (
	"errors"
	"fmt"

	"bladerunner/internal/pylon"
	"bladerunner/internal/was"
)

// Wire error codes. Sentinel errors that callers classify with errors.Is
// (the brass subscription manager retries transient Pylon failures; the
// device layer distinguishes shed from failure) must survive the RPC
// boundary, so each gets a stable code that unwire maps back to the
// sentinel on the calling side.
const (
	codeNoQuorum          = "pylon-no-quorum"
	codeUnavailable       = "pylon-unavailable"
	codeShed              = "pylon-shed"
	codeUnknownSubscriber = "pylon-unknown-subscriber"
	codeDenied            = "was-denied"
	codeUnknownField      = "was-unknown-field"
)

// wire encodes err as an error-reply payload: its sentinel code (empty if
// none applies), length-prefixed, then the rendered message. errors.Is
// runs on the server side, so wrapped sentinels map correctly even though
// only the rendered message crosses the wire.
func wire(err error) []byte {
	var code string
	switch {
	case errors.Is(err, pylon.ErrNoQuorum):
		code = codeNoQuorum
	case errors.Is(err, pylon.ErrUnavailable):
		code = codeUnavailable
	case errors.Is(err, pylon.ErrShed):
		code = codeShed
	case errors.Is(err, pylon.ErrUnknownSubscriber):
		code = codeUnknownSubscriber
	case errors.Is(err, was.ErrDenied):
		code = codeDenied
	case errors.Is(err, was.ErrUnknownField):
		code = codeUnknownField
	}
	msg := err.Error()
	return append(prefixed(code, len(msg)), msg...)
}

// unwire reconstructs a caller-side error from an error-reply payload,
// restoring sentinel identity from the code. The remote message is
// preserved in the rendering.
func unwire(payload []byte, name, method string) error {
	code, msg := cut(payload)
	var sentinel error
	switch code {
	case codeNoQuorum:
		sentinel = pylon.ErrNoQuorum
	case codeUnavailable:
		sentinel = pylon.ErrUnavailable
	case codeShed:
		sentinel = pylon.ErrShed
	case codeUnknownSubscriber:
		sentinel = pylon.ErrUnknownSubscriber
	case codeDenied:
		sentinel = was.ErrDenied
	case codeUnknownField:
		sentinel = was.ErrUnknownField
	}
	if sentinel != nil {
		return fmt.Errorf("ctrl %s: %s: %w (remote: %s)", name, method, sentinel, msg)
	}
	return fmt.Errorf("ctrl %s: %s: remote: %s", name, method, msg)
}
