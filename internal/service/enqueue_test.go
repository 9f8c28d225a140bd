package service

import (
	"path/filepath"
	"testing"

	"dollymp/internal/journal"
	"dollymp/internal/workload"
)

// TestEnqueueDiscipline drives every way a job can enter the admission
// queue against a journaled service in each state that matters to the
// enqueue step, and holds them all to the same postconditions. The
// verdict per cell is the entry point's own precondition; what an
// accepted, a refused and a journal-failed enqueue leave behind is
// shared, and must not depend on who called.
func TestEnqueueDiscipline(t *testing.T) {
	const (
		tenant   = "acme"
		foreign  = workload.JobID(41) // an ID some other service assigned
		queueCap = 2
	)
	pending := func(j *workload.Job) []*journal.ReplayJob {
		return []*journal.ReplayJob{{ID: foreign, Outcome: journal.OutcomePending, Job: j}}
	}
	// Each entry point takes one job in; it reports the job's ID and
	// whether the job was accepted.
	entries := []struct {
		name     string
		migrated bool // carries a foreign ID instead of taking the next one
		call     func(t *testing.T, s *Service, j *workload.Job) (workload.JobID, bool)
	}{
		{"submit", false, func(_ *testing.T, s *Service, j *workload.Job) (workload.JobID, bool) {
			id, err := s.SubmitNowait(j)
			return id, err == nil
		}},
		// inject: a second journaled service, which assigned the foreign
		// ID, donates the job into s. A refusal must also be invisible on
		// the donor: record, load, counts and journal exactly as before.
		{"inject", true, func(t *testing.T, s *Service, j *workload.Job) (workload.JobID, bool) {
			donor, jnl, _ := openJournalShard(t, filepath.Join(t.TempDir(), "donor.wal"), queueCap, foreign)
			defer jnl.Crash()
			if id, err := donor.SubmitNowait(j); err != nil || id != foreign {
				t.Fatalf("donor submit: %d, %v", id, err)
			}
			load, counts, records := donor.Load(), donor.Counts(), donor.Snapshot().Journal.Records
			accepted := len(donor.Donate(s, 1)) == 1
			if _, ok := donor.Job(foreign); ok == accepted {
				t.Errorf("donor holds the job's record = %v after accepted = %v", ok, accepted)
			}
			if !accepted && (donor.Load() != load || donor.Counts() != counts ||
				donor.Snapshot().Journal.Records != records || donor.Err() != nil) {
				t.Errorf("refused donation left a trace on the donor: load %+v -> %+v, counts %+v -> %+v, journal records %d -> %d, err %v",
					load, donor.Load(), counts, donor.Counts(), records, donor.Snapshot().Journal.Records, donor.Err())
			}
			return foreign, accepted
		}},
		{"restore", true, func(_ *testing.T, s *Service, j *workload.Job) (workload.JobID, bool) {
			return foreign, s.Restore(pending(j), 0, 0) == nil
		}},
		{"absorb", true, func(_ *testing.T, s *Service, j *workload.Job) (workload.JobID, bool) {
			n, err := s.Absorb(pending(j))
			return foreign, err == nil && n == 1
		}},
	}
	states := []struct {
		name    string
		prepare func(t *testing.T, s *Service, jnl *journal.Journal)
	}{
		{"space", func(*testing.T, *Service, *journal.Journal) {}},
		{"full", func(t *testing.T, s *Service, _ *journal.Journal) {
			for i := 0; i < queueCap; i++ {
				if _, err := s.SubmitNowait(testJob(1, 2)); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"draining", func(_ *testing.T, s *Service, _ *journal.Journal) {
			// A drain has begun but the loop has not taken its exit
			// decision.
			s.mu.Lock()
			s.stopping = true
			s.mu.Unlock()
		}},
		{"journal-closed", func(t *testing.T, _ *Service, jnl *journal.Journal) {
			if err := jnl.Crash(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// want[entry][state]: is the job accepted? Everything refuses a full
	// queue and a dead journal. A drain refuses new and migrated work,
	// but Restore runs before Start, where there is no drain to respect.
	want := map[string]map[string]bool{
		"submit":  {"space": true},
		"inject":  {"space": true},
		"restore": {"space": true, "draining": true},
		"absorb":  {"space": true},
	}
	for _, e := range entries {
		for _, st := range states {
			t.Run(e.name+"/"+st.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "seg.wal")
				s, jnl, _ := openJournalService(t, path, queueCap)
				defer jnl.Crash()
				st.prepare(t, s, jnl)
				before, beforeLoad, nextID := s.Counts(), s.Load(), s.nextID
				beforeJobs := len(s.Jobs(JobFilter{}))

				j := testJob(3, 2)
				j.Tenant = tenant
				if e.migrated {
					j.ID = foreign
				}
				id, accepted := e.call(t, s, j)
				if accepted != want[e.name][st.name] {
					t.Fatalf("accepted = %v, want %v (err %v)", accepted, !accepted, s.Err())
				}

				after, afterLoad := s.Counts(), s.Load()
				if !accepted {
					if _, ok := s.Job(foreign); ok && e.migrated {
						t.Error("refused job left a lifecycle record")
					}
					if n := len(s.Jobs(JobFilter{})); n != beforeJobs {
						t.Errorf("refused job changed the record count %d -> %d", beforeJobs, n)
					}
					if afterLoad != beforeLoad {
						t.Errorf("refused job moved the load %+v -> %+v", beforeLoad, afterLoad)
					}
					if after.Submitted != before.Submitted {
						t.Errorf("refused job counted as submitted: %+v -> %+v", before, after)
					}
					if s.nextID != nextID {
						t.Errorf("refused job advanced the ID allocator %d -> %d", nextID, s.nextID)
					}
					// Only a dead journal is the service's failure.
					wantFailed := st.name == "journal-closed"
					if failed := s.Err() != nil; failed != wantFailed {
						t.Errorf("service failed = %v (%v), want %v", failed, s.Err(), wantFailed)
					}
					return
				}

				if s.Err() != nil {
					t.Fatalf("accepted job failed the service: %v", s.Err())
				}
				info, ok := s.Job(id)
				if !ok || info.State != StateQueued || info.Tenant != tenant || info.Tasks != 3 || info.Name != j.Name {
					t.Errorf("lifecycle record = %+v, %v", info, ok)
				}
				if byTenant := s.Jobs(JobFilter{Tenant: tenant}); len(byTenant) != 1 || byTenant[0].ID != id {
					t.Errorf("tenant filter = %+v, want job %d", byTenant, id)
				}
				if after.Submitted != before.Submitted+1 {
					t.Errorf("Submitted moved %d -> %d, want one step", before.Submitted, after.Submitted)
				}
				if afterLoad.QueueDepth != beforeLoad.QueueDepth+1 || afterLoad.Tasks != beforeLoad.Tasks+3 || afterLoad.Jobs != beforeLoad.Jobs+1 {
					t.Errorf("load moved %+v -> %+v, want one job of 3 tasks", beforeLoad, afterLoad)
				}
				// A donated job's ID belongs to another shard's residue class
				// and cannot collide here; every other accepted ID must be
				// behind the allocator.
				if donated := e.name == "inject"; donated && s.nextID != nextID {
					t.Errorf("donated job moved the ID allocator %d -> %d", nextID, s.nextID)
				} else if !donated && s.nextID <= id {
					t.Errorf("ID allocator at %d did not move past accepted job %d", s.nextID, id)
				}
				if !e.migrated && id != nextID {
					t.Errorf("submit took ID %d, want the next one %d", id, nextID)
				}
				// The spec must be replayable from this service's own segment.
				if err := jnl.Close(); err != nil {
					t.Fatal(err)
				}
				rep, err := journal.ReplayFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Jobs) != 1 || rep.Jobs[0].ID != id || rep.Jobs[0].Outcome != journal.OutcomePending ||
					rep.Jobs[0].Job == nil || rep.Jobs[0].Job.Tenant != tenant || rep.Jobs[0].Job.TotalTasks() != 3 {
					t.Errorf("segment replay = %+v", rep.Jobs)
				}
			})
		}
	}
}
