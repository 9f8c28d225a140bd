package federation

// The member-side HTTP surface: the full /v1 service API of the
// member's shard.Router, plus the takeover endpoint the gateway drives.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"dollymp/internal/service"
	"dollymp/internal/shard"
)

// AdoptRequest asks a member to absorb a dead sibling's journal
// directory. POST /v1/federation/adopt.
type AdoptRequest struct {
	Dir string `json:"dir"`
}

// NewMemberHandler mounts the standard service routes on the member's
// router plus POST /v1/federation/adopt, the journal-takeover endpoint.
// Adoption of a directory whose segments are still flock-leased by a
// live writer is refused with 409 conflict — the caller's death verdict
// is checked against the kernel's, so a merely-partitioned member is
// never cannibalized.
func NewMemberHandler(r *shard.Router) http.Handler {
	return service.NewHandler(r, service.Route{
		Method: "POST", Pattern: "/v1/federation/adopt",
		Handler: func(w http.ResponseWriter, req *http.Request) {
			var ar AdoptRequest
			dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&ar); err != nil || ar.Dir == "" {
				service.WriteError(w, http.StatusBadRequest, service.CodeInvalidArgument,
					fmt.Sprintf("adopt request needs {\"dir\": ...}: %v", err))
				return
			}
			rep, err := r.Adopt(ar.Dir)
			switch {
			case err == nil:
				service.WriteJSON(w, http.StatusOK, rep)
			case errors.Is(err, shard.ErrLeased):
				service.WriteError(w, http.StatusConflict, service.CodeConflict, err.Error())
			case errors.Is(err, shard.ErrStopped):
				service.WriteError(w, http.StatusServiceUnavailable, service.CodeDraining, err.Error())
			case errors.Is(err, shard.ErrQueueFull):
				service.WriteError(w, http.StatusTooManyRequests, service.CodeQueueFull, err.Error())
			default:
				service.WriteError(w, http.StatusInternalServerError, service.CodeInternal, err.Error())
			}
		},
	})
}

// NewMemberRouter builds the shard.Router for one manifest member: its
// local shards are the member's residue classes of the manifest's
// global shard space, journaling into the member's directory. The
// caller supplies the rest of the shard configuration (fleet, policy,
// queue bounds) and owns Start/Stop.
func NewMemberRouter(man Manifest, name string, base shard.Config) (*shard.Router, Member, error) {
	if err := man.Validate(false); err != nil {
		return nil, Member{}, err
	}
	mb, err := man.MemberByName(name)
	if err != nil {
		return nil, Member{}, err
	}
	base.Shards = len(mb.Residues)
	base.TotalShards = man.Shards
	base.Residues = mb.Residues
	base.JournalDir = mb.JournalDir
	r, err := shard.New(base)
	if err != nil {
		return nil, Member{}, fmt.Errorf("federation: member %s: %w", name, err)
	}
	return r, mb, nil
}
