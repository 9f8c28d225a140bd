package sim

import (
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// SetTrackedAllocation overwrites the allocation the engine tracks for a
// live job, so a test can plant the drift Paranoid exists to catch. It
// reports whether the job is live.
func (e *Engine) SetTrackedAllocation(id workload.JobID, v resources.Vector) bool {
	lj := e.states[id]
	if lj != nil {
		lj.alloc = v
	}
	return lj != nil
}
