package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"nose/internal/bip"
	"nose/internal/nosedsl"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/search"
	"nose/internal/service"
	"nose/internal/service/api"
)

// daemonSetupReps is how many times a run sets up the daemon workload
// (inputs, in-process references, server start) to report setup_s.
const daemonSetupReps = 3

// daemonJob is one request of the fixed rotation, with the canonical
// result the same request gives when run in process.
type daemonJob struct {
	kind, mix string
	dsl       string
	want      []byte
}

func (j daemonJob) name() string { return strings.TrimSpace(j.kind + " " + j.mix) }

// daemonServer is an in-process nosed on a loopback listener.
type daemonServer struct {
	addr    string
	manager *service.Manager
	http    *http.Server
	served  chan error
}

func startDaemon() (*daemonServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := service.NewManager(service.Config{})
	d := &daemonServer{
		addr:    ln.Addr().String(),
		manager: m,
		http:    &http.Server{Handler: service.NewServer(m, nil), ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(ln) }()
	resp, err := http.Get("http://" + d.addr + "/v1/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	resp.Body.Close()
	return d, nil
}

// stop shuts the server and its job manager down and waits for both.
func (d *daemonServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.http.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon shutdown: %v\n", err)
	}
	d.manager.Shutdown(ctx)
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: daemon: %v\n", err)
	}
}

// daemonSetup reads the inputs, computes each request's in-process
// reference result, and starts the daemon.
func daemonSetup() ([]daemonJob, *daemonServer, error) {
	mixes, err := os.ReadFile("testdata/hotel-mixes.nose")
	if err != nil {
		return nil, nil, err
	}
	phases, err := os.ReadFile("testdata/hotel-phases.nose")
	if err != nil {
		return nil, nil, err
	}
	jobs := []daemonJob{
		{kind: "advise", mix: "browse", dsl: string(mixes)},
		{kind: "advise", mix: "booking", dsl: string(mixes)},
		{kind: "advise-series", dsl: string(phases)},
	}
	for i := range jobs {
		if jobs[i].want, err = inProcess(jobs[i]); err != nil {
			return nil, nil, fmt.Errorf("%s in process: %w", jobs[i].name(), err)
		}
	}
	d, err := startDaemon()
	return jobs, d, err
}

// inProcess runs a request through the same public calls the daemon
// makes, with the daemon's defaults, and returns the canonical result.
func inProcess(j daemonJob) ([]byte, error) {
	_, w, err := nosedsl.Parse(j.dsl)
	if err != nil {
		return nil, err
	}
	if j.mix != "" {
		w.ActiveMix = j.mix
	}
	opt := search.Options{Workers: 1, Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery}}
	if j.kind == "advise-series" {
		sr, err := search.AdviseSeries(w, opt)
		if err != nil {
			return nil, err
		}
		return api.Encode(api.Series(w, sr))
	}
	rec, err := search.Advise(w, opt)
	if err != nil {
		return nil, err
	}
	return api.Encode(api.Advise(w, rec))
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	job  int
	name string
	id   string
	ms   float64
	err  error
}

// roundTrip submits one job with wait=1, then fetches its result, and
// checks that the job ended done with the in-process result.
func roundTrip(c *http.Client, addr string, j daemonJob) (string, error) {
	q := url.Values{"wait": {"1"}, "kind": {j.kind}, "workers": {"1"}}
	if j.mix != "" {
		q.Set("mix", j.mix)
	}
	resp, err := c.Post("http://"+addr+"/v1/jobs?"+q.Encode(), "text/plain", strings.NewReader(j.dsl))
	if err != nil {
		return "", err
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusOK || st.State != service.Done {
		return st.ID, fmt.Errorf("submit: HTTP %d, job %s %s %s", resp.StatusCode, st.ID, st.State, st.Error)
	}
	body, err := get(c, "http://"+addr+"/v1/jobs/"+st.ID+"/result")
	if err != nil {
		return st.ID, err
	}
	if !bytes.Equal(body, j.want) {
		return st.ID, fmt.Errorf("job %s: result differs from the in-process result", st.ID)
	}
	return st.ID, nil
}

func get(c *http.Client, u string) ([]byte, error) {
	resp, err := c.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return body, err
}

// runClients runs min(2, nproc) closed-loop clients until the deadline
// and returns every job they completed or failed. Client k starts the
// rotation at (seed + k) mod len(jobs). after, when set, runs on the
// client's goroutine after each job, outside its timing; tr, when set,
// records one span per job on the client's lane (client k is lane k+1).
func runClients(d *daemonServer, jobs []daemonJob, seed int64, seconds float64, tr *obs.Tracer,
	after func(client int, o jobOutcome, c *http.Client)) []jobOutcome {
	clients := min(2, runtime.NumCPU())
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: time.Minute}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	outs := make([][]jobOutcome, clients)
	var wg sync.WaitGroup
	for k := range clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			next := int((seed%int64(len(jobs))+int64(len(jobs)))%int64(len(jobs))) + k
			for time.Now().Before(deadline) {
				i := next % len(jobs)
				next++
				sp := tr.BeginTid("job "+jobs[i].name(), "service", k+1)
				t := time.Now()
				id, err := roundTrip(hc, d.addr, jobs[i])
				o := jobOutcome{job: i, name: jobs[i].name(), id: id, ms: ms(time.Since(t)), err: err}
				sp.End()
				outs[k] = append(outs[k], o)
				if after != nil && err == nil {
					after(k, o, hc)
				}
			}
		}(k)
	}
	wg.Wait()
	var all []jobOutcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// runDaemon measures advise jobs through an in-process nosed: closed-loop
// HTTP clients submit a fixed rotation of small jobs that share the
// daemon's cost caches.
func runDaemon(cfg config, r *report) error {
	var e endToEnd
	var jobs []daemonJob
	var d *daemonServer
	for i := range daemonSetupReps {
		t := time.Now()
		var err error
		jobs, d, err = daemonSetup()
		if err != nil {
			return err
		}
		e.setupS = append(e.setupS, time.Since(t).Seconds())
		if i < daemonSetupReps-1 {
			d.stop()
		}
	}
	defer d.stop()

	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	p := beginPhase()
	outs := runClients(d, jobs, cfg.seed, budget, nil, nil)
	p.end(&e)
	recordJobs(r, &e, outs, "jobs")
	if err := e.emit(r); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	return traceDaemon(cfg, r, d, jobs, mean(e.opMs))
}

// recordJobs counts the jobs and checks that every one ended done with
// the in-process result.
func recordJobs(r *report, e *endToEnd, outs []jobOutcome, label string) {
	failed, firstErr := 0, ""
	for _, o := range outs {
		r.attempted++
		if o.err != nil {
			if failed == 0 {
				firstErr = o.err.Error()
			}
			failed++
			continue
		}
		e.opMs = append(e.opMs, o.ms)
	}
	r.failed += int64(failed)
	byKind := map[string][]float64{}
	for _, o := range outs {
		if o.err == nil {
			byKind[o.name] = append(byKind[o.name], o.ms)
		}
	}
	for _, name := range sortedKeys(byKind) {
		fmt.Printf("%s: %s: %d jobs, median %.3f ms\n", label, name, len(byKind[name]), median(byKind[name]))
	}
	r.check(label+": every job done, result = in-process result", failed == 0 && len(outs) > 0,
		"%d jobs, %d failed %s", len(outs), failed, firstErr)
}

// jobTrace is what a traced client reads back about one job: the
// program's own spans from the events stream and the job's counters.
type jobTrace struct {
	jobMs   float64
	parseMs float64
	spans   []obs.TraceEvent
	snap    obs.Snapshot
}

// traceDaemon is the traced half of a traced run: after each job, the
// client parses the job's DSL in process (nosedsl.parse_ms) and reads the
// job's spans from GET /events and its counters from GET /metrics, both
// outside the job's timing.
func traceDaemon(cfg config, r *report, d *daemonServer, jobs []daemonJob, untracedMs float64) error {
	var mu sync.Mutex
	var traces []jobTrace
	var traceErr error
	after := func(client int, o jobOutcome, c *http.Client) {
		jt, err := readJobTrace(r.tracer, client+1, c, d.addr, o, jobs[o.job].dsl)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && traceErr == nil {
			traceErr = err
		}
		traces = append(traces, jt)
	}
	var traced endToEnd
	outs := runClients(d, jobs, cfg.seed, cfg.seconds/2, r.tracer, after)
	recordJobs(r, &traced, outs, "traced jobs")
	if traceErr != nil {
		return traceErr
	}

	n := float64(len(traces))
	var sum advisorStages
	var wait, overhead, parse, jobMs, capHits float64
	counters := map[string]float64{}
	volatile := map[string]float64{}
	for _, jt := range traces {
		st, err := splitAdvisorSpans(jt.spans)
		if err != nil {
			return err
		}
		sum.add(st)
		jobMs += jt.jobMs
		parse += jt.parseMs
		wait += st.startMs
		overhead += jt.jobMs - st.rootMs
		capHits += st.capHits(int(jt.snap.Counters["search.nodes"]), bip.DefaultMaxNodes)
		for k, v := range jt.snap.Counters {
			counters[k] += float64(v)
		}
		for k, v := range jt.snap.Volatile {
			volatile[k] += float64(v)
		}
	}
	c := func(name string) float64 { return counters[name] / n }
	v := func(name string) float64 { return volatile[name] / n }
	publishAdvisorCounters(r, c, v)
	r.set("bip.node_cap_hit", capHits/n)
	r.set("nosedsl.parse_ms", parse/n)
	r.set("service.wait_ms", wait/n)
	r.set("service.overhead_ms", overhead/n)
	r.set("enumerator.ms", sum.enumerateMs/n)
	r.set("planner.ms", sum.planMs/n)
	r.set("bip.solve_ms", sum.solveMs/n)
	fmt.Printf("traced jobs: %d (server-side stage spans read from GET /v1/jobs/{id}/events)\n", len(traces))
	self := sum.publish(r, n)
	self["service"] = overhead / n
	r.selfTable(self, jobMs/n)
	r.overhead(untracedMs, mean(traced.opMs))
	return nil
}

// readJobTrace times an in-process parse of the job's DSL, then reads
// the job's spans and counters back from the daemon.
func readJobTrace(tr *obs.Tracer, lane int, c *http.Client, addr string, o jobOutcome, dsl string) (jobTrace, error) {
	jt := jobTrace{jobMs: o.ms}
	sp := tr.BeginTid("nosedsl.Parse", "nosedsl", lane)
	t := time.Now()
	_, _, err := nosedsl.Parse(dsl)
	jt.parseMs = ms(time.Since(t))
	sp.End()
	if err != nil {
		return jt, err
	}
	sp = tr.BeginTid("GET events and metrics", "bench", lane)
	defer sp.End()
	if jt.spans, err = jobSpans(c, addr, o.id); err != nil {
		return jt, err
	}
	body, err := get(c, "http://"+addr+"/v1/jobs/"+o.id+"/metrics")
	if err != nil {
		return jt, err
	}
	return jt, json.Unmarshal(body, &jt.snap)
}

// jobSpans reads a finished job's span events from its events stream.
func jobSpans(c *http.Client, addr, id string) ([]obs.TraceEvent, error) {
	body, err := get(c, "http://"+addr+"/v1/jobs/"+id+"/events")
	if err != nil {
		return nil, err
	}
	var spans []obs.TraceEvent
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev service.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("events of %s: %w", id, err)
		}
		if ev.Type == "span" && ev.Span != nil && ev.Span.Wall {
			spans = append(spans, *ev.Span)
		}
	}
	return spans, sc.Err()
}
