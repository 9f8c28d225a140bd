package client

// The federation read view. Submissions always go to the base URL the
// client was given — against a federation that is the gateway, the one
// front door whose edge policy every external submission is charged
// against — so GET /v1/federation is only something to look at: which
// members are alive and who adopted a dead one's journal.

import (
	"context"
	"errors"
	"net/http"

	"dollymp/internal/federation"
)

// MemberView is one federation member as the gateway reports it: its
// manifest row, liveness, and the survivor that adopted its journal
// after its death, if any.
type MemberView = federation.MemberStatus

// FederationView is the GET /v1/federation response: the gateway's
// membership map and liveness view.
type FederationView = federation.Status

// Federation returns the gateway's membership view, or (nil, nil) when
// the base URL is a plain daemon (404 on /v1/federation).
func (c *Client) Federation(ctx context.Context) (*FederationView, error) {
	var fv FederationView
	err := c.getJSON(ctx, "/v1/federation", &fv)
	var e *Error
	if errors.As(err, &e) && e.Status == http.StatusNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &fv, nil
}
