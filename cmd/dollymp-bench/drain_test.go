package main

import (
	"testing"
)

func TestParseProfiles(t *testing.T) {
	all, err := parseProfiles("engine", "")
	if err != nil || len(all) != 4 {
		t.Fatalf("default engine profiles: %v, err %v", all, err)
	}
	twoK, err := parseProfiles("engine", "short,short-2k")
	if err != nil || len(twoK) != 2 || twoK[1].fleet != 2000 {
		t.Fatalf("2k subset: %v, err %v", twoK, err)
	}
	// Replay and rss-* fixture profiles are selectable by name but not
	// part of the default set (the replays stream for minutes).
	replay, err := parseProfiles("engine", "replay-1m,rss-ballast,backlog")
	if err != nil || len(replay) != 3 || replay[0].trace == "" || replay[1].ballastMB == 0 || !replay[2].backlog {
		t.Fatalf("extra profiles: %v, err %v", replay, err)
	}
	for _, p := range all {
		if p.trace != "" || p.ballastMB != 0 || p.backlog {
			t.Fatalf("default set must not include extra profile %q", p.name)
		}
	}
	short, err := parseProfiles("router", "short")
	if err != nil || len(short) != 1 || short[0].name != "short" {
		t.Fatalf("router short subset: %v, err %v", short, err)
	}
	if _, err := parseProfiles("engine", "huge"); err == nil {
		t.Fatal("unknown profile must be rejected")
	}
	if _, err := parseProfiles("disk", ""); err == nil {
		t.Fatal("unknown area must be rejected")
	}
}

// TestEngineDrainSmoke runs a miniature engine drain end to end: every
// job completes, the clock advances, and the injection window bounds
// the pending-arrivals high-water mark.
func TestEngineDrainSmoke(t *testing.T) {
	run, err := engineDrain(drainProfile{name: "smoke", jobs: 500, fleet: 8})
	if err != nil {
		t.Fatal(err)
	}
	if run.Jobs != 500 || run.ClockSlots <= 0 || run.JobsPerSec <= 0 {
		t.Fatalf("implausible run %+v", run)
	}
	if run.PendingPeak <= 0 || run.PendingPeak > 4096 {
		t.Fatalf("pending peak %d outside (0, window]", run.PendingPeak)
	}
}

// TestBacklogDrainSmoke is the same for the backlog profile's shape:
// every job queued at slot 0, so the engine clamps the later windows'
// arrivals forward and still completes them all.
func TestBacklogDrainSmoke(t *testing.T) {
	run, err := engineDrain(drainProfile{name: "smoke", jobs: 5000, fleet: 8, backlog: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.Jobs != 5000 || run.ClockSlots <= 0 || run.PendingPeak != 4096 {
		t.Fatalf("implausible run %+v", run)
	}
}

// TestRouterDrainSmoke pushes a small burst through the sharded router.
func TestRouterDrainSmoke(t *testing.T) {
	run, err := routerDrain(drainProfile{name: "smoke", jobs: 64, fleet: 8, shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if run.Jobs != 64 || run.ClockSlots <= 0 || run.JobsPerSec <= 0 {
		t.Fatalf("implausible run %+v", run)
	}
}
