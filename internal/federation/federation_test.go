package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/journal"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/service"
	"dollymp/internal/shard"
	"dollymp/internal/workload"
)

// fifo is a deliberately simple first-fit scheduler so federation tests
// exercise the gateway and takeover machinery, not a policy.
type fifo struct{}

func (fifo) Name() string { return "fifo" }

func (fifo) Schedule(ctx sched.Context) []sched.Placement {
	var out []sched.Placement
	ft := sched.NewFitTracker(ctx.Cluster())
	for _, js := range ctx.Jobs() {
		for _, pt := range sched.ReadyPendingTasks(js) {
			for _, s := range ctx.Cluster().Servers() {
				if ft.Place(s.ID, pt.Demand) {
					out = append(out, sched.Placement{Ref: pt.Ref, Server: s.ID})
					break
				}
			}
		}
	}
	return out
}

func baseShardConfig() shard.Config {
	return shard.Config{
		Fleet:         cluster.Uniform(8, resources.Cores(8, 16)),
		NewScheduler:  func(int) (sched.Scheduler, error) { return fifo{}, nil },
		Seed:          1,
		Deterministic: true,
		QueueCap:      256,
		Policy:        shard.RouteP2C,
	}
}

func TestManifestValidate(t *testing.T) {
	good := Manifest{Shards: 4, Members: []Member{
		{Name: "a", URL: "http://x", JournalDir: "/tmp/a", Residues: []int{0, 1}},
		{Name: "b", URL: "http://y", JournalDir: "/tmp/b", Residues: []int{2, 3}},
	}}
	if err := good.Validate(true); err != nil {
		t.Fatal(err)
	}
	bad := []Manifest{
		{Shards: 0, Members: good.Members},
		{Shards: 4},
		// Residue 3 unowned.
		{Shards: 4, Members: []Member{
			{Name: "a", URL: "http://x", JournalDir: "/tmp/a", Residues: []int{0, 1, 2}}}},
		// Residue 1 double-owned.
		{Shards: 4, Members: []Member{
			{Name: "a", URL: "http://x", JournalDir: "/tmp/a", Residues: []int{0, 1}},
			{Name: "b", URL: "http://y", JournalDir: "/tmp/b", Residues: []int{1, 2, 3}}}},
		// Duplicate name.
		{Shards: 2, Members: []Member{
			{Name: "a", URL: "http://x", JournalDir: "/tmp/a", Residues: []int{0}},
			{Name: "a", URL: "http://y", JournalDir: "/tmp/b", Residues: []int{1}}}},
		// Shared journal dir.
		{Shards: 2, Members: []Member{
			{Name: "a", URL: "http://x", JournalDir: "/tmp/a", Residues: []int{0}},
			{Name: "b", URL: "http://y", JournalDir: "/tmp/a", Residues: []int{1}}}},
	}
	for i, m := range bad {
		if err := m.Validate(true); err == nil {
			t.Fatalf("bad manifest %d accepted: %+v", i, m)
		}
	}
	// URL-less is fine for member mode, fatal for the gateway.
	noURL := Manifest{Shards: 2, Members: []Member{
		{Name: "a", JournalDir: "/tmp/a", Residues: []int{0}},
		{Name: "b", JournalDir: "/tmp/b", Residues: []int{1}},
	}}
	if err := noURL.Validate(false); err != nil {
		t.Fatal(err)
	}
	if err := noURL.Validate(true); err == nil {
		t.Fatal("gateway accepted a manifest without URLs")
	}
}

// fedMember is one in-process member: router + HTTP server.
type fedMember struct {
	name string
	r    *shard.Router
	srv  *httptest.Server
}

// newFederation builds N in-process members and a gateway over them.
func newFederation(t *testing.T, dirs []string, residues [][]int, totalShards int) (*Gateway, []*fedMember) {
	t.Helper()
	return newFederationOf(t, dirs, residues, totalShards, baseShardConfig)
}

// newFederationOf is newFederation with each member's router built from
// base().
func newFederationOf(t *testing.T, dirs []string, residues [][]int, totalShards int, base func() shard.Config) (*Gateway, []*fedMember) {
	t.Helper()
	man := Manifest{Shards: totalShards}
	for i := range dirs {
		man.Members = append(man.Members, Member{
			Name:       fmt.Sprintf("m%d", i),
			JournalDir: dirs[i],
			Residues:   residues[i],
		})
	}
	var members []*fedMember
	for i := range man.Members {
		r, _, err := NewMemberRouter(man, man.Members[i].Name, base())
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewMemberHandler(r))
		man.Members[i].URL = srv.URL
		members = append(members, &fedMember{name: man.Members[i].Name, r: r, srv: srv})
		r.Start()
	}
	g, err := NewGateway(GatewayConfig{
		Manifest:      man,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, members
}

func submitJob(t *testing.T, url string) int64 {
	t.Helper()
	body, err := json.Marshal(&workload.Job{
		Name: "t", App: "test",
		Phases: []workload.Phase{{
			Name: "p", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 2,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var out struct {
		IDs []int64 `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.IDs) != 1 {
		t.Fatalf("submit response: %v %v", out, err)
	}
	return out.IDs[0]
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestGatewayFederatedSurface: with every member alive, the gateway
// routes submissions and lookups, federates the merged views, and its
// /metrics merge parses under the exposition rules the members obey.
func TestGatewayFederatedSurface(t *testing.T) {
	base := t.TempDir()
	g, members := newFederation(t,
		[]string{filepath.Join(base, "a"), filepath.Join(base, "b")},
		[][]int{{0, 1}, {2, 3}}, 4)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()
	defer func() {
		for _, m := range members {
			m.srv.Close()
			stopRouter(t, m.r)
		}
	}()

	const n = 12
	ids := map[int64]bool{}
	for i := 0; i < n; i++ {
		id := submitJob(t, gsrv.URL)
		if ids[id] {
			t.Fatalf("duplicate id %d", id)
		}
		ids[id] = true
	}
	// Round-robin over two members must land IDs in both residue pairs.
	lo, hi := 0, 0
	for id := range ids {
		if res := (int(id) - 1) % 4; res < 2 {
			lo++
		} else {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Fatalf("round-robin left a member idle: %d/%d", lo, hi)
	}
	// Every job resolves through the gateway by ID arithmetic.
	for id := range ids {
		var info service.JobInfo
		if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", gsrv.URL, id), &info); code != http.StatusOK {
			t.Fatalf("job %d: %d", id, code)
		}
		if int64(info.ID) != id {
			t.Fatalf("job %d came back as %d", id, info.ID)
		}
	}
	// Federated shard table: all 4 global residues, sorted.
	var shardsResp struct {
		Shards []service.ShardStatus `json:"shards"`
	}
	if code := getJSON(t, gsrv.URL+"/v1/shards", &shardsResp); code != http.StatusOK {
		t.Fatalf("shards: %d", code)
	}
	if len(shardsResp.Shards) != 4 {
		t.Fatalf("federated shards: %+v", shardsResp.Shards)
	}
	for i, row := range shardsResp.Shards {
		if row.Shard != i {
			t.Fatalf("shard row %d has residue %d", i, row.Shard)
		}
	}
	// Aggregated cluster view counts every submission.
	waitFor(t, 10*time.Second, func() error {
		var snap service.ClusterSnapshot
		if code := getJSON(t, gsrv.URL+"/v1/cluster", &snap); code != http.StatusOK {
			return fmt.Errorf("cluster: %d", code)
		}
		if snap.Jobs.Submitted != n || snap.Jobs.Completed != n {
			return fmt.Errorf("counts %+v, want %d done", snap.Jobs, n)
		}
		if snap.Shards != 4 {
			return fmt.Errorf("snapshot shards %d", snap.Shards)
		}
		return nil
	})
	// /v1/status aliases /v1/cluster at the gateway too.
	if code := getJSON(t, gsrv.URL+"/v1/status", nil); code != http.StatusOK {
		t.Fatalf("status alias: %d", code)
	}
	// The merged listing: every job once, in ID order, under the
	// federation-wide total, and the page echoes the offset and limit
	// the members applied.
	var list struct {
		Jobs                 []service.JobInfo `json:"jobs"`
		Total, Offset, Limit int
	}
	if code := getJSON(t, gsrv.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if list.Total != n || len(list.Jobs) != n || list.Offset != 0 {
		t.Fatalf("merged listing: %d jobs, total %d, offset %d; want %d, %d, 0", len(list.Jobs), list.Total, list.Offset, n, n)
	}
	for i, info := range list.Jobs {
		if !ids[int64(info.ID)] || (i > 0 && list.Jobs[i-1].ID >= info.ID) {
			t.Fatalf("merged listing row %d: job %d unknown or out of ID order", i, info.ID)
		}
	}
	if code := getJSON(t, gsrv.URL+"/v1/jobs?offset=1&limit=2", &list); code != http.StatusOK {
		t.Fatalf("list page: %d", code)
	}
	if list.Total != n || list.Offset != 1 || list.Limit != 2 {
		t.Fatalf("merged page: total %d, offset %d, limit %d; want %d, 1, 2", list.Total, list.Offset, list.Limit, n)
	}
	// The merged exposition deduplicates HELP/TYPE but keeps per-residue
	// series from both members.
	resp, err := http.Get(gsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	for _, want := range []string{`shard="0"`, `shard="2"`} {
		if !bytes.Contains(text, []byte(want)) {
			t.Fatalf("merged metrics missing %s", want)
		}
	}
	if n := bytes.Count(text, []byte("# TYPE dollymp_jobs_submitted_total")); n != 1 {
		t.Fatalf("TYPE line deduplication: %d occurrences", n)
	}
}

// TestFederationKillOneOfN is the tentpole acceptance test: two members
// behind a gateway, one dies (crash: leases released, process gone),
// the prober declares it dead, the survivor adopts its journal, and
// every accepted job still completes — with the survivor's replayed-job
// accounting proving the takeover did the recovery.
func TestFederationKillOneOfN(t *testing.T) {
	base := t.TempDir()
	dirB := filepath.Join(base, "b")
	g, members := newFederation(t,
		[]string{filepath.Join(base, "a"), dirB},
		[][]int{{0, 1}, {2, 3}}, 4)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()
	defer members[0].srv.Close()

	const n = 10
	ids := map[int64]bool{}
	for i := 0; i < n; i++ {
		ids[submitJob(t, gsrv.URL)] = true
	}
	var bIDs []int64
	for id := range ids {
		if res := (int(id) - 1) % 4; res >= 2 {
			bIDs = append(bIDs, id)
		}
	}
	if len(bIDs) == 0 {
		t.Fatal("no jobs landed on the member being killed")
	}

	// Kill member B: journal fds die unflushed (leases released), the
	// HTTP listener stops answering — the in-process equivalent of
	// SIGKILL as seen by both the gateway and the filesystem.
	if err := members[1].r.Crash(); err != nil {
		t.Fatal(err)
	}
	members[1].srv.Close()

	g.Start()
	defer g.Stop()

	// The prober must declare B dead and drive the takeover; afterwards
	// every accepted job — including B's — completes on the survivor.
	waitFor(t, 20*time.Second, func() error {
		var snap service.ClusterSnapshot
		if code := getJSON(t, gsrv.URL+"/v1/cluster", &snap); code != http.StatusOK {
			return fmt.Errorf("cluster: %d", code)
		}
		if snap.Jobs.Completed < int64(n) {
			return fmt.Errorf("completed %d of %d", snap.Jobs.Completed, n)
		}
		return nil
	})
	// Zero loss: every ID resolves through the gateway, completed.
	for id := range ids {
		var info service.JobInfo
		if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", gsrv.URL, id), &info); code != http.StatusOK {
			t.Fatalf("job %d lost after takeover: %d", id, code)
		}
		if info.State != service.StateCompleted {
			t.Fatalf("job %d not completed: %+v", id, info)
		}
	}
	// The survivor's replayed-jobs accounting shows the adoption.
	js := members[0].r.JournalStatus()
	if js.ReplayedJobs < int64(len(bIDs)) {
		t.Fatalf("survivor replayed %d jobs, want at least %d", js.ReplayedJobs, len(bIDs))
	}
	// The gateway's membership view records the takeover — once the
	// survivor's adopt reply is back, which the adopted jobs, already
	// running there, do not wait for.
	waitFor(t, 20*time.Second, func() error {
		var fed struct {
			Members []MemberStatus `json:"members"`
		}
		if code := getJSON(t, gsrv.URL+"/v1/federation", &fed); code != http.StatusOK {
			return fmt.Errorf("federation view: %d", code)
		}
		for _, m := range fed.Members {
			if m.Name == "m1" && !m.Alive && m.AdoptedBy == "m0" {
				return nil
			}
		}
		return fmt.Errorf("membership after takeover: %+v", fed.Members)
	})
	// B's directory holds no live segments anymore.
	segs, err := journal.ListSegments(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("dead member still has live segments: %v", segs)
	}
}

// TestTakeoverRefusedWhileAlive: a member the gateway cannot reach but
// whose process still holds its journal leases must NOT be adopted —
// the 409 from the survivor keeps the death verdict advisory.
func TestTakeoverRefusedWhileAlive(t *testing.T) {
	if !journal.LeaseSupported() {
		t.Skip("no flock on this platform")
	}
	base := t.TempDir()
	g, members := newFederation(t,
		[]string{filepath.Join(base, "a"), filepath.Join(base, "b")},
		[][]int{{0, 1}, {2, 3}}, 4)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()
	defer members[0].srv.Close()
	defer stopRouter(t, members[1].r)

	// Partition B from the gateway: listener gone, process (and leases)
	// alive.
	members[1].srv.Close()
	for i := 0; i < 5; i++ {
		g.probeOnce()
	}
	var fed struct {
		Members []MemberStatus `json:"members"`
	}
	if code := getJSON(t, gsrv.URL+"/v1/federation", &fed); code != http.StatusOK {
		t.Fatalf("federation view: %d", code)
	}
	for _, m := range fed.Members {
		if m.Name == "m1" {
			if m.Alive {
				t.Fatalf("unreachable member still alive: %+v", m)
			}
			if m.AdoptedBy != "" {
				t.Fatalf("leased member was adopted: %+v", m)
			}
			if m.LastError == "" {
				t.Fatal("refused takeover left no trace")
			}
		}
	}
	stopRouter(t, members[0].r)
}

func stopRouter(t *testing.T, r *shard.Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, probe func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := probe()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
