package client

// The federation read view. Submissions always go to the base URL the
// client was given — against a federation that is the gateway, the one
// front door whose edge policy every external submission is charged
// against — so GET /v1/federation is only something to look at: which
// members are alive and who adopted a dead one's journal.

import (
	"context"
	"encoding/json"
	"net/http"
)

// MemberView is one federation member as the gateway reports it.
type MemberView struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Residues []int  `json:"residues"`
	Alive    bool   `json:"alive"`
	// AdoptedBy names the survivor that absorbed this member's journal
	// after its death, if any.
	AdoptedBy string `json:"adopted_by,omitempty"`
}

// FederationView is the GET /v1/federation response: the gateway's
// membership map and liveness view.
type FederationView struct {
	Shards  int          `json:"shards"`
	Members []MemberView `json:"members"`
}

// Federation returns the gateway's membership view, or (nil, nil) when
// the base URL is a plain daemon (404 on /v1/federation).
func (c *Client) Federation(ctx context.Context) (*FederationView, error) {
	resp, err := c.get(ctx, c.base+"/v1/federation")
	if err != nil {
		return nil, err
	}
	body, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp, body)
	}
	var fv FederationView
	if err := json.Unmarshal(body, &fv); err != nil {
		return nil, err
	}
	return &fv, nil
}
