package ctrl

import (
	"bladerunner/internal/pylon"
	"bladerunner/internal/socialgraph"
	"bladerunner/internal/was"
)

// WAS method names.
const (
	MethodQuery               = "was.query"
	MethodMutate              = "was.mutate"
	MethodResolveSubscription = "was.resolve-subscription"
	MethodCheckVisibility     = "was.check-visibility"
	MethodResolvePayload      = "was.resolve-payload"
	MethodFetchPayload        = "was.fetch-payload"
)

type exprParams struct {
	Region string `json:"region,omitempty"`
	Viewer uint64 `json:"viewer"`
	Expr   string `json:"expr"`
}

type bytesResult struct {
	Data []byte `json:"data"`
}

type topicsResult struct {
	Topics []string `json:"topics"`
}

type visibilityParams struct {
	Viewer uint64      `json:"viewer"`
	Event  pylon.Event `json:"event"`
}

type payloadParams struct {
	Region string      `json:"region,omitempty"`
	App    string      `json:"app"`
	Viewer uint64      `json:"viewer,omitempty"`
	Event  pylon.Event `json:"event"`
}

// ServeWAS registers the WAS tier's handlers on conn, exposing srv to the
// remote peer.
func ServeWAS(conn *Conn, srv *was.Server) {
	exprCall := func(fn func(region string, viewer socialgraph.UserID, expr string) ([]byte, error)) func(exprParams) (any, error) {
		return func(p exprParams) (any, error) {
			out, err := fn(p.Region, socialgraph.UserID(p.Viewer), p.Expr)
			if err != nil {
				return nil, err
			}
			return bytesResult{Data: out}, nil
		}
	}
	handle(conn, MethodQuery, exprCall(srv.QueryIn))
	handle(conn, MethodMutate, exprCall(srv.MutateIn))
	handle(conn, MethodResolveSubscription, func(p exprParams) (any, error) {
		topics, err := srv.ResolveSubscription(socialgraph.UserID(p.Viewer), p.Expr)
		if err != nil {
			return nil, err
		}
		res := topicsResult{Topics: make([]string, len(topics))}
		for i, t := range topics {
			res.Topics[i] = string(t)
		}
		return res, nil
	})
	handle(conn, MethodCheckVisibility, func(p visibilityParams) (any, error) {
		return nil, srv.CheckEventVisibility(socialgraph.UserID(p.Viewer), p.Event)
	})
	handle(conn, MethodResolvePayload, func(p payloadParams) (any, error) {
		out, err := srv.ResolvePayloadIn(p.Region, p.App, p.Event)
		if err != nil {
			return nil, err
		}
		return bytesResult{Data: out}, nil
	})
	handle(conn, MethodFetchPayload, func(p payloadParams) (any, error) {
		out, err := srv.FetchPayloadIn(p.Region, p.App, socialgraph.UserID(p.Viewer), p.Event)
		if err != nil {
			return nil, err
		}
		return bytesResult{Data: out}, nil
	})
}

// WASClient implements brass.Backend and device.Backend over a control
// connection to the WAS tier's node.
type WASClient struct {
	conn *Conn
}

// NewWASClient wraps conn.
func NewWASClient(conn *Conn) *WASClient { return &WASClient{conn: conn} }

func (c *WASClient) exprCall(method, region string, viewer socialgraph.UserID, expr string) ([]byte, error) {
	var res bytesResult
	err := c.conn.Call(method, exprParams{Region: region, Viewer: uint64(viewer), Expr: expr}, &res)
	if err != nil {
		return nil, err
	}
	return res.Data, nil
}

// QueryIn implements brass.Backend and device.Backend.
func (c *WASClient) QueryIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error) {
	return c.exprCall(MethodQuery, region, viewer, expr)
}

// MutateIn implements device.Backend.
func (c *WASClient) MutateIn(region string, viewer socialgraph.UserID, expr string) ([]byte, error) {
	return c.exprCall(MethodMutate, region, viewer, expr)
}

// ResolveSubscription implements brass.Backend.
func (c *WASClient) ResolveSubscription(viewer socialgraph.UserID, expr string) ([]pylon.Topic, error) {
	var res topicsResult
	if err := c.conn.Call(MethodResolveSubscription, exprParams{Viewer: uint64(viewer), Expr: expr}, &res); err != nil {
		return nil, err
	}
	topics := make([]pylon.Topic, len(res.Topics))
	for i, t := range res.Topics {
		topics[i] = pylon.Topic(t)
	}
	return topics, nil
}

// CheckEventVisibility implements brass.Backend.
func (c *WASClient) CheckEventVisibility(viewer socialgraph.UserID, ev pylon.Event) error {
	return c.conn.Call(MethodCheckVisibility, visibilityParams{Viewer: uint64(viewer), Event: ev}, nil)
}

// ResolvePayloadIn implements brass.Backend.
func (c *WASClient) ResolvePayloadIn(region, app string, ev pylon.Event) ([]byte, error) {
	var res bytesResult
	if err := c.conn.Call(MethodResolvePayload, payloadParams{Region: region, App: app, Event: ev}, &res); err != nil {
		return nil, err
	}
	return res.Data, nil
}

// FetchPayloadIn implements brass.Backend.
func (c *WASClient) FetchPayloadIn(region, app string, viewer socialgraph.UserID, ev pylon.Event) ([]byte, error) {
	var res bytesResult
	if err := c.conn.Call(MethodFetchPayload, payloadParams{Region: region, App: app, Viewer: uint64(viewer), Event: ev}, &res); err != nil {
		return nil, err
	}
	return res.Data, nil
}
