package core

// Stats counts a Scheduler's work since New. The counts are exact, a
// pure function of the decisions the scheduler was asked to make, so a
// change to how Schedule finds its answer shows as a number on any host.
type Stats struct {
	// Calls counts Schedule calls.
	Calls uint64
	// Walks counts sync's full walks of ctx.Jobs(); Walked counts the
	// records they visited, the departed ones included. Watched counts
	// the records the watch passes between them visited.
	Walks, Walked, Watched uint64
	// Revalidations counts records re-read from their job, Recomputes
	// the Algorithm 1 recomputations, and Infos the JobInfoOf
	// evaluations they made.
	Revalidations, Recomputes, Infos uint64
	// Builds counts head-index builds, Built the entries they arranged,
	// and Sorted the tree levels whose median selection fell back to a
	// sort (see selectNth).
	Builds, Built, Sorted uint64
	// Queries counts head-index searches. Nodes counts the tree nodes
	// they entered, root and leaves included; LeafScanned and
	// OverflowScanned count the entries they scanned in the leaves and
	// in the overflow lists.
	Queries, Nodes, LeafScanned, OverflowScanned uint64
	// RedundancyOpened counts the redundancy passes (cloning or
	// speculation) opened; ClosedOnBudget and ClosedOnFit count those
	// closed before any walk because the demand floor was over the δ
	// budget or fitted no server.
	RedundancyOpened, ClosedOnBudget, ClosedOnFit uint64
	// CopyScanned counts the running tasks the redundancy walk read (see
	// sched.CopyWalk.Scanned).
	CopyScanned uint64
}

// headStats is the share of Stats one head index counts itself.
type headStats struct {
	builds, built, sorted, queries, nodes, leaf, over uint64
}

// StatsOf returns a scheduler's work counts. It is a function, not a
// method, so that the facade's DollyMP alias does not carry it: the
// counts are for this module's tests and profiles, not SDK surface.
func StatsOf(s *Scheduler) Stats {
	st := s.scratch.stats
	st.CopyScanned = s.scratch.copies.Scanned
	for l := range s.scratch.classes {
		h := &s.scratch.classes[l].heads.stats
		st.Builds += h.builds
		st.Built += h.built
		st.Sorted += h.sorted
		st.Queries += h.queries
		st.Nodes += h.nodes
		st.LeafScanned += h.leaf
		st.OverflowScanned += h.over
	}
	return st
}
