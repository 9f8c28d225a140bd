package main

// The daemon-durable workload: the whole serving path in one process
// over loopback TCP. Closed loop, because SDK callers block on the ack:
// two connections each repeat "submit one job, read back the status of
// the ID just returned", with a /metrics scrape every 250 ms beside
// them, so a submit gain bought with read latency shows.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dollymp"
	"dollymp/client"
	"dollymp/internal/admission"
	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/journal"
	"dollymp/internal/sched"
	"dollymp/internal/service"
	"dollymp/internal/stats"
	"dollymp/internal/workload"
)

const (
	connections   = 2
	scrapeEvery   = 250 * time.Millisecond
	drainPoll     = 5 * time.Millisecond
	journalProbes = 2000
	// An Admit takes tens of nanoseconds, below the clock's resolution,
	// so the admission probe times batches and divides.
	admissionBatches = 20
	admissionBatch   = 100
)

// bucketConfig is charged on every submit but never denies at the
// rates two closed-loop connections reach.
var bucketConfig = admission.TokenBucketConfig{Rate: 1e6, Burst: 1e6}

// conn is one closed-loop client connection and what it measured.
type conn struct {
	c         *client.Client
	transport *http.Transport
	// submit and status are the round trips in milliseconds.
	submit, status []float64
	failed         int64
	firstErr       error
}

func newConn(base string, rec *recorder) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	var rt http.RoundTripper = tr
	if rec != nil {
		rt = tracedTransport{tr}
	}
	hc := &http.Client{Transport: rt, Timeout: 30 * time.Second}
	return &conn{c: client.New(base, client.WithHTTPClient(hc)), transport: tr}
}

func (cn *conn) fail(err error) {
	cn.failed++
	if cn.firstErr == nil {
		cn.firstErr = err
	}
}

// drive submits each job and reads its status back, one at a time.
func (cn *conn) drive(ctx context.Context, k int, jobs []*workload.Job, rec *recorder) {
	call := func(_, _ string, fn func(context.Context)) { fn(ctx) }
	if rec != nil {
		call = func(name, req string, fn func(context.Context)) { rec.clientCall(ctx, name, req, fn) }
	}
	for i, j := range jobs {
		// The name doubles as the request ID the decorators link by.
		j.Name = fmt.Sprintf("c%d-%d", k, i)
		var id workload.JobID
		var err error
		start := time.Now()
		call("client.submit", j.Name, func(ctx context.Context) { id, err = cn.c.Submit(ctx, j) })
		cn.submit = append(cn.submit, ms(time.Since(start)))
		if err != nil {
			cn.fail(fmt.Errorf("submit %s: %w", j.Name, err))
			continue
		}
		var info service.JobInfo
		start = time.Now()
		call("client.status", statusReq(id), func(ctx context.Context) { info, err = cn.c.Job(ctx, id) })
		cn.status = append(cn.status, ms(time.Since(start)))
		switch {
		case err != nil:
			cn.fail(fmt.Errorf("status of job %d: %w", id, err))
		case info.ID != id || info.Name != j.Name:
			cn.fail(fmt.Errorf("status of job %d returned job %d %q", id, info.ID, info.Name))
		}
	}
}

// daemonRun is one booted daemon with its client connections.
type daemonRun struct {
	rec        *recorder
	jobs       []*workload.Job
	journalDir string
	router     *dollymp.Router
	srv        *http.Server
	served     chan error
	conns      []*conn
	// observer scrapes and waits; it sends no jobs.
	observer *conn
	stopped  bool
}

// setupDaemon generates the jobs and boots the serving path until
// /readyz answers 200.
func setupDaemon(w *workloadSpec, o childOptions, rec *recorder) (instance, error) {
	d := &daemonRun{rec: rec}
	d.jobs = dollymp.GoogleWorkload(w.jobs/o.scale.div, 1.0, o.seed)
	var err error
	if d.journalDir, err = os.MkdirTemp(o.tmp, "journal-"); err != nil {
		return nil, err
	}
	d.router, err = dollymp.NewRouter(dollymp.RouterConfig{
		Fleet:  cluster.LargeFleet(w.servers, engineSeed),
		Shards: 2,
		NewScheduler: func(int) (sched.Scheduler, error) {
			s, err := core.New(core.WithClones(2))
			if err != nil || rec == nil {
				return s, err
			}
			// The shard loops make more than 1e5 calls: totals only.
			return rec.wrapScheduler(s, false), nil
		},
		Seed: engineSeed, QueueCap: 4096,
		JournalDir: d.journalDir,
		Admission:  admission.NewTokenBucket(bucketConfig),
	})
	if err != nil {
		return nil, err
	}
	var api service.API = d.router
	if rec != nil {
		api = tracedAPI{API: d.router, rec: rec}
	}
	handler := dollymp.NewAPIHandler(api)
	if rec != nil {
		handler = rec.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv = &http.Server{Handler: handler}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.router.Start()

	base := "http://" + ln.Addr().String()
	for k := 0; k < connections; k++ {
		d.conns = append(d.conns, newConn(base, rec))
	}
	d.observer = newConn(base, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for d.observer.c.Ready(ctx) != nil {
		if ctx.Err() != nil {
			d.close()
			return nil, fmt.Errorf("daemon never became ready: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// close drains the router, which closes its journal segments, shuts the
// server down and waits for Serve to return.
func (d *daemonRun) close() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d.observer.transport.CloseIdleConnections()
	for _, cn := range d.conns {
		cn.transport.CloseIdleConnections()
	}
	if err := d.router.Stop(ctx); err != nil {
		return fmt.Errorf("router stop: %w", err)
	}
	if err := d.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

func (d *daemonRun) run() (*repResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	rec, router, observer := d.rec, d.router, d.observer

	// Scraper: one strictly parsed /metrics read every 250 ms.
	var scrapes []float64
	var scrapeErr error
	var queuePeak float64
	stopScrape := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
			}
			start := time.Now()
			sums, err := observer.c.MetricSums(ctx)
			scrapes = append(scrapes, ms(time.Since(start)))
			if err != nil && scrapeErr == nil {
				scrapeErr = err
			}
			queuePeak = max(queuePeak, sums["dollymp_queue_depth"])
		}
	}()

	cpu0 := cpuSeconds()
	start := time.Now()
	var senders sync.WaitGroup
	per := len(d.jobs) / connections
	for k, cn := range d.conns {
		senders.Add(1)
		go func() {
			defer senders.Done()
			cn.drive(ctx, k, d.jobs[k*per:(k+1)*per], rec)
		}()
	}
	senders.Wait()
	sent := int64(per * connections)
	drained, drainErr := observer.c.WaitDrained(ctx, client.WaitConfig{Jobs: sent, Poll: drainPoll})
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	close(stopScrape)
	scraper.Wait()

	rep := &repResult{Attempted: 2 * sent, WallS: wall, Metrics: map[string]float64{}}
	m := rep.Metrics
	var submit, status []float64
	var retries int64
	for k, cn := range d.conns {
		rep.Failed += cn.failed
		if cn.firstErr != nil {
			rep.problem("connection %d: %d failed requests, first: %v", k, cn.failed, cn.firstErr)
		}
		submit = append(submit, cn.submit...)
		status = append(status, cn.status...)
		retries += cn.c.Retries()
	}
	if drainErr != nil {
		rep.problem("wait for drain: %v", drainErr)
	}
	if scrapeErr != nil {
		rep.problem("/metrics scrape: %v", scrapeErr)
	}
	counts := router.Counts()
	if counts.Submitted != sent || counts.Admitted != sent || counts.Completed != sent || counts.Rejected != 0 || counts.Denied != 0 {
		rep.problem("counts not conserved for %d jobs sent: %+v", sent, counts)
	}
	rep.Failed += sent - min(sent, drained.Completed)
	adm := router.Admission()
	if adm.Stats == nil || adm.Stats.Denied != 0 {
		rep.problem("admission policy denied submissions: %+v", adm)
	}

	m["jobs_per_s"] = float64(drained.Completed) / wall
	m["cpu_us_per_job"] = cpu * 1e6 / float64(max(drained.Completed, 1))
	m["client.submit_s"] = stats.Sum(submit) / 1e3
	m["client.status_s"] = stats.Sum(status) / 1e3
	m["client.submit_ms_p50"] = quantileOf(submit, 0.50)
	m["client.submit_ms_p99"] = quantileOf(submit, 0.99)
	m["client.status_ms_p50"] = quantileOf(status, 0.50)
	m["client.retries"] = float64(retries)
	m["service.metrics_scrape_ms_p50"] = quantileOf(scrapes, 0.50)
	m["service.queue_depth_peak"] = queuePeak
	m["service.rejected"] = float64(counts.Rejected)
	m["shard.stolen"] = float64(router.Stolen())
	m["journal.records"] = float64(router.JournalStatus().Records)
	if adm.Stats != nil {
		m["admission.admitted"] = float64(adm.Stats.Admitted)
		m["admission.denied"] = float64(adm.Stats.Denied)
	}

	// The engines' own results and the journal files are only readable
	// once the shard loops have exited.
	if err := d.close(); err != nil {
		return nil, err
	}
	results, err := router.Results()
	if err != nil {
		return nil, err
	}
	var flow, tasks, cloned, copies, calls float64
	for _, res := range results {
		flow += float64(res.TotalFlowtime())
		calls += float64(res.SchedCalls)
		m["sim.makespan_slots"] = max(m["sim.makespan_slots"], float64(res.Makespan))
		m["sim.utilization"] += res.AvgUtilization / float64(len(results))
		for i := range res.Jobs {
			tasks += float64(res.Jobs[i].TotalTasks)
			cloned += float64(res.Jobs[i].TasksCloned)
			copies += float64(res.Jobs[i].CopiesLaunched)
		}
	}
	m["sim.mean_jct_slots"] = flow / float64(max(counts.Completed, 1))
	m["sim.tasks_cloned_share"] = cloned / max(tasks, 1)
	m["sim.copies_launched"] = copies
	m["core.schedule_calls"] = calls

	segments, err := journal.ListSegments(d.journalDir)
	if err != nil {
		return nil, err
	}
	for _, seg := range segments {
		fi, err := os.Stat(seg)
		if err != nil {
			return nil, err
		}
		m["journal.bytes"] += float64(fi.Size())
	}
	if rec != nil {
		if err := daemonLayers(rep, rec, wall, segments, d.jobs, d.journalDir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// daemonLayers adds the decorator totals and the direct probes: the
// journal's restart read path over the segments the run produced, its
// write path as Append+Commit pairs in the same directory, and the
// admission policy called on its own.
func daemonLayers(rep *repResult, rec *recorder, wall float64, segments []string, jobs []*workload.Job, journalDir string) error {
	m := rep.Metrics
	httpSubmit, httpStatus := rec.stat("service.http_submit"), rec.stat("service.http_status")
	shardSubmit, lookup := rec.stat("shard.submit"), rec.stat("shard.job_lookup")
	schedule, arrival := rec.stat("core.schedule"), rec.stat("core.on_arrival")

	m["bench.traced_wall_s"] = wall
	m["service.http_submit_s"] = httpSubmit.seconds()
	m["service.http_status_s"] = httpStatus.seconds()
	m["service.http_self_s"] = httpSubmit.seconds() + httpStatus.seconds() - shardSubmit.seconds() - lookup.seconds()
	m["shard.submit_s"] = shardSubmit.seconds()
	m["shard.submit_ms_p50"] = shardSubmit.quantile(0.50) / 1e6
	m["shard.submit_ms_p99"] = shardSubmit.quantile(0.99) / 1e6
	m["shard.job_lookup_s"] = lookup.seconds()
	m["core.schedule_s"] = schedule.seconds()
	m["core.schedule_ms_p50"] = schedule.quantile(0.50) / 1e6
	m["core.schedule_ms_p99"] = schedule.quantile(0.99) / 1e6
	m["core.placements"] = float64(schedule.n)
	m["core.empty_calls"] = float64(schedule.empty)
	m["core.on_arrival_s"] = arrival.seconds()

	start := time.Now()
	for _, seg := range segments {
		replay, err := journal.ReplayFile(seg)
		if err != nil {
			return err
		}
		if replay.Truncated != 0 {
			rep.problem("%s: %d torn bytes after a clean stop", seg, replay.Truncated)
		}
		m["journal.replay_records"] += float64(replay.Records)
	}
	m["journal.replay_s"] = time.Since(start).Seconds()
	if m["journal.replay_records"] != m["journal.records"] {
		rep.problem("journal replays %v records, the run wrote %v", m["journal.replay_records"], m["journal.records"])
	}

	jnl, _, err := journal.Open(filepath.Join(journalDir, "probe.journal"))
	if err != nil {
		return err
	}
	pairs := make([]float64, journalProbes)
	for i := range pairs {
		j := jobs[i%len(jobs)]
		start := time.Now()
		seq, err := jnl.Append(journal.Record{Op: journal.OpSubmitted, ID: j.ID, Job: j})
		if err == nil {
			err = jnl.Commit(seq)
		}
		pairs[i] = ms(time.Since(start))
		if err != nil {
			jnl.Close()
			return fmt.Errorf("journal probe: %w", err)
		}
	}
	if err := jnl.Close(); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	m["journal.append_commit_us_p50"] = quantileOf(pairs, 0.50) * 1e3
	m["journal.append_commit_us_p99"] = quantileOf(pairs, 0.99) * 1e3

	probe := admission.NewTokenBucket(bucketConfig)
	batches := make([]float64, admissionBatches)
	for i := range batches {
		start := time.Now()
		for k := 0; k < admissionBatch; k++ {
			probe.Admit(context.Background(), jobs[0], admission.Snapshot{})
		}
		batches[i] = ms(time.Since(start)) / admissionBatch
	}
	m["admission.admit_us_p50"] = quantileOf(batches, 0.50) * 1e3
	return nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
