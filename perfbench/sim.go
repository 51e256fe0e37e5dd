package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/harness"
	"nose/internal/load"
	"nose/internal/obs"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/verify"
	"nose/internal/workload"
)

// simMix is one simulated-load workload: the RUBiS mix it advises for
// and drives, and the simulated horizon of one load.Run.
type simMix struct {
	mix       string
	horizonMs float64
}

// The horizons give each load.Run a few seconds of wall time.
var (
	simBidding  = simMix{mix: rubis.MixBidding, horizonMs: 20_000}
	simWrite100 = simMix{mix: rubis.MixWrite100, horizonMs: 150_000}
)

// Fixed parameters of the sim-* workloads.
const (
	simUsers    = 20_000
	simNodes    = 5
	simRF       = 3
	simClients  = 16
	simThinkMs  = 10
	simWarmupMs = 50
	simMinReps  = 2
)

// simSystem is one freshly set-up simulated cluster.
type simSystem struct {
	sys      *harness.System
	q        *backend.NodeQueues
	work     []load.Transaction
	rcfg     rubis.Config
	installS float64
}

// setupSim generates the RUBiS dataset, advises NoSE for the mix and
// installs the recommendation into a fresh replicated cluster with
// per-node queues.
func setupSim(seed int64, m simMix) (*simSystem, error) {
	rcfg := rubis.Config{Users: simUsers, Seed: seed}
	ds, err := rubis.Generate(rcfg)
	if err != nil {
		return nil, err
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		return nil, err
	}
	w.ActiveMix = m.mix
	rec, err := search.Advise(w, fig13Options(0))
	if err != nil {
		return nil, fmt.Errorf("advise %s: %w", m.mix, err)
	}
	t := time.Now()
	sys, err := harness.NewReplicatedSystem("NoSE", ds, rec, cost.DefaultParams(), harness.ReplicationConfig{
		Nodes: simNodes, RF: simRF, Read: executor.Quorum, Write: executor.Quorum,
	})
	if err != nil {
		return nil, err
	}
	s := &simSystem{sys: sys, rcfg: rcfg, installS: time.Since(t).Seconds()}
	s.q = sys.EnableQueues(1)
	for _, txn := range txns {
		s.work = append(s.work, load.Transaction{
			Name: txn.Name, Statements: txn.Statements, Weight: rubis.TransactionWeight(txn, m.mix),
		})
	}
	return s, nil
}

func simOptions(seed int64, m simMix) load.Options {
	return load.Options{
		Clients: simClients, ThinkMillis: simThinkMs,
		HorizonMillis: m.horizonMs, WarmupMillis: simWarmupMs, Seed: seed,
	}
}

// arrival is one transaction load.Run started, with its parameters.
type arrival struct {
	txn    string
	params executor.Params
}

// simRun is one timed load.Run.
type simRun struct {
	res      *load.Result
	wall     time.Duration
	arrivals []arrival // recorded only when asked for
}

// run drives one closed-loop load.Run. load.Run calls the parameter
// callback once per arrival just before executing the transaction, so
// the gap between consecutive calls is one transaction's wall time.
// tr, when set, records one span per transaction.
func (s *simSystem) run(seed int64, m simMix, e *endToEnd, record bool, tr *obs.Tracer) (*simRun, error) {
	ps := rubis.NewParamSource(s.rcfg, seed)
	stamps := make([]time.Duration, 0, 1<<16)
	var arrivals []arrival
	var sp *obs.Span
	var base time.Time
	params := func(txn string) executor.Params {
		stamps = append(stamps, time.Since(base))
		p := ps.Params(txn)
		if record {
			arrivals = append(arrivals, arrival{txn, p})
		}
		if tr != nil {
			sp.End()
			sp = tr.Begin("tx "+txn, "load")
		}
		return p
	}
	runtime.GC()
	outer := tr.Begin("load.Run", "load")
	p := beginPhase()
	base = time.Now()
	res, err := load.Run(s.sys, s.work, params, s.q, simOptions(seed, m))
	end := time.Since(base)
	wall := p.end(e)
	sp.End()
	outer.End()
	if err != nil {
		return nil, err
	}
	gaps := make([]float64, len(stamps))
	for i := range stamps {
		next := end
		if i+1 < len(stamps) {
			next = stamps[i+1]
		}
		gaps[i] = ms(next - stamps[i])
	}
	e.opMs = append(e.opMs, gaps...)
	return &simRun{res: res, wall: wall, arrivals: arrivals}, nil
}

// simRunner holds one sim-* run's state across its set-ups.
type simRunner struct {
	cfg      config
	r        *report
	m        simMix
	e        endToEnd
	installs []float64
	first    *load.Result
}

// setup sets a fresh system up and times it for setup_s.
func (sr *simRunner) setup() (*simSystem, error) {
	t := time.Now()
	s, err := setupSim(sr.cfg.seed, sr.m)
	if err != nil {
		return nil, err
	}
	sr.e.setupS = append(sr.e.setupS, time.Since(t).Seconds())
	sr.installs = append(sr.installs, s.installS)
	return s, nil
}

// count counts one load.Run's transactions and failures, and checks
// that none failed.
func (sr *simRunner) count(label string, res *load.Result) {
	r := sr.r
	r.attempted += res.Started
	r.failed += res.Unavailable + res.Lost
	r.check(label+": failed_share = 0", res.Unavailable+res.Lost == 0,
		"%d started, %d unavailable, %d lost", res.Started, res.Unavailable, res.Lost)
}

// account counts one load.Run over the full horizon and checks its
// simulated result against the first repetition's.
func (sr *simRunner) account(label string, res *load.Result) {
	r := sr.r
	sr.count(label, res)
	if sr.first == nil {
		sr.first = res
		fmt.Printf("simulated: %d tx, %.1f tx/s, p50 %.3f ms, p99 %.3f ms, max utilization %.3f\n",
			res.Started, res.ThroughputPerSec, res.P50Millis, res.P99Millis, res.MaxUtilization)
		return
	}
	r.check(label+": simulated result = first repetition's", *res == *sr.first, "")
}

// runSim measures the simulated runtime under closed-loop load. Every
// repetition sets the system up afresh (outside the timer) and runs the
// same seeded load, so the simulated results must repeat exactly.
func runSim(cfg config, r *report, m simMix) error {
	sr := &simRunner{cfg: cfg, r: r, m: m}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	for rep := 0; rep < simMinReps || sr.e.wallS < budget; rep++ {
		s, err := sr.setup()
		if err != nil {
			return err
		}
		run, err := s.run(cfg.seed, m, &sr.e, false, nil)
		if err != nil {
			return err
		}
		sr.account(fmt.Sprintf("repetition %d", rep), run.res)
		fmt.Printf("repetition %d: set-up %.3f s (install %.3f s), load.Run %.3f s\n",
			rep, sr.e.setupS[len(sr.e.setupS)-1], s.installS, run.wall.Seconds())
	}
	if err := sr.verifyPass(); err != nil {
		return err
	}
	if err := sr.e.emit(r); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	return sr.trace(mean(sr.e.opMs))
}

// verifyHorizonMs bounds the verifier pass's simulated horizon:
// VerifyCheck costs about 70 µs per acknowledged write, which over
// sim-write100's full horizon would take longer than the measurement.
const verifyHorizonMs = 20_000

// verifyPass runs the load once more, outside the timer, with the
// acknowledged-write verifier attached, and checks its invariants. It
// replays the first verifyHorizonMs of the timed load: the same seeded
// arrivals, cut at an earlier horizon. AttachVerifier swaps the
// system's executor, so this pass is kept apart from the timed
// repetitions.
func (sr *simRunner) verifyPass() error {
	s, err := sr.setup()
	if err != nil {
		return err
	}
	s.sys.AttachVerifier(verify.New())
	m := sr.m
	m.horizonMs = min(m.horizonMs, verifyHorizonMs)
	var scratch endToEnd
	run, err := s.run(sr.cfg.seed, m, &scratch, false, nil)
	if err != nil {
		return err
	}
	sr.count("verifier pass", run.res)
	rep, err := s.sys.VerifyCheck()
	if err != nil {
		return err
	}
	summary, _, _ := strings.Cut(rep.Format(), "\n")
	sr.r.check("verifier pass: VerifyCheck clean", rep.OK(), "%s", summary)
	return nil
}

// timedBackend wraps the coordinator under the executor and adds up the
// wall time spent below it: replica fan-out, node queues and stores.
type timedBackend struct {
	inner backend.KVBackend
	busy  time.Duration
}

func (b *timedBackend) Def(name string) (backend.ColumnFamilyDef, error) { return b.inner.Def(name) }

func (b *timedBackend) Get(name string, req backend.GetRequest) (*backend.GetResult, error) {
	t := time.Now()
	res, err := b.inner.Get(name, req)
	b.busy += time.Since(t)
	return res, err
}

func (b *timedBackend) Put(name string, partition, clustering, values []backend.Value) (*backend.PutResult, error) {
	t := time.Now()
	res, err := b.inner.Put(name, partition, clustering, values)
	b.busy += time.Since(t)
	return res, err
}

func (b *timedBackend) Delete(name string, partition, clustering []backend.Value) (bool, *backend.PutResult, error) {
	t := time.Now()
	ok, res, err := b.inner.Delete(name, partition, clustering)
	b.busy += time.Since(t)
	return ok, res, err
}

// trace is the traced half of a traced run. One load.Run records a
// span per transaction and the arrivals it started; the system's obs
// registry gives the per-layer counts. A fresh system then replays the
// recorded arrivals through System.ExecStatement, with the executor's
// backend wrapped so the wall time below the executor is known.
func (sr *simRunner) trace(untracedMs float64) error {
	r, m := sr.r, sr.m
	s, err := sr.setup()
	if err != nil {
		return err
	}
	var traced endToEnd
	run, err := s.run(sr.cfg.seed, m, &traced, true, r.tracer)
	if err != nil {
		return err
	}
	sr.account("traced run", run.res)
	n := float64(run.res.Started)
	snap := s.sys.Obs().Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	r.set("executor.queries_per_tx", c("exec.queries")/n)
	r.set("executor.writes_per_tx", c("exec.writes")/n)
	r.set("store.gets_per_tx", c("store.gets")/n)
	r.set("store.puts_per_tx", c("store.puts")/n)
	r.set("store.deletes_per_tx", c("store.deletes")/n)
	r.set("store.records_read_per_query", ratio(c("store.records_read"), c("exec.queries")))
	r.set("coord.replica_reads_per_read", ratio(c("coord.replica_reads"), c("coord.reads")))
	r.set("coord.replica_writes_per_write", ratio(c("coord.replica_writes"), c("coord.writes")))
	r.set("coord.read_repairs", c("coord.read_repairs"))
	r.set("coord.hints_queued", c("coord.hints_queued"))
	r.set("queue.admitted_per_tx", c("queue.admitted")/n)
	r.set("queue.delay_sim_ms_p50", snap.Histograms["queue.delay.sim_ms"].Quantile(0.5))
	r.set("queue.max_utilization", run.res.MaxUtilization)
	r.set("queue.max_depth", float64(run.res.MaxDepth))
	arrivals := run.arrivals
	loadWall := run.wall
	s, run = nil, nil

	s, err = sr.setup()
	if err != nil {
		return err
	}
	rp, err := replay(s, m, arrivals, r.tracer)
	if err != nil {
		return err
	}
	r.set("harness.query_us_p50", median(rp.queryUs))
	r.set("harness.write_us_p50", median(rp.writeUs))
	r.set("backend.install_s", median(sr.installs))
	perTx := func(d time.Duration) float64 { return ms(d) / n }
	r.set("load.self_ms", perTx(loadWall-rp.wall))
	fmt.Printf("replayed %d transactions: %.3f s in load.Run, %.3f s replayed through System.ExecStatement\n",
		len(arrivals), loadWall.Seconds(), rp.wall.Seconds())
	r.selfTable(map[string]float64{
		"load":    perTx(loadWall - rp.wall),
		"harness": perTx(rp.statements - rp.backend),
		"backend": perTx(rp.backend),
		"bench":   perTx(rp.wall - rp.statements),
	}, perTx(loadWall))
	r.overhead(untracedMs, mean(traced.opMs))
	return nil
}

// replayResult is the wall time of a replay, split by layer.
type replayResult struct {
	wall, statements, backend time.Duration
	queryUs, writeUs          []float64
}

// replay executes the recorded arrivals, in order, against a fresh
// system. Arrival k is placed at k/len(arrivals) of the horizon on the
// queues' clock, and each statement advances it by its simulated time,
// as load.Run does.
func replay(s *simSystem, m simMix, arrivals []arrival, tr *obs.Tracer) (*replayResult, error) {
	tb := &timedBackend{inner: s.sys.Coord}
	s.sys.Exec = executor.New(tb, cost.DefaultParams())
	s.sys.Exec.SetObs(s.sys.Obs())
	stmts := map[string][]workload.Statement{}
	for _, t := range s.work {
		stmts[t.Name] = t.Statements
	}
	var out replayResult
	runtime.GC()
	outer := tr.Begin("replay", "bench")
	start := time.Now()
	for k, a := range arrivals {
		now := m.horizonMs * float64(k) / float64(len(arrivals))
		for _, st := range stmts[a.txn] {
			s.q.SetNow(now)
			b0 := tb.busy
			sp := tr.Begin(workload.Label(st), "harness")
			t := time.Now()
			simMs, err := s.sys.ExecStatement(st, a.params)
			d := time.Since(t)
			sp.SetArg("backend_us", float64((tb.busy-b0).Nanoseconds())/1e3).End()
			if err != nil {
				return nil, fmt.Errorf("replay of arrival %d: %w", k, err)
			}
			now += simMs
			out.statements += d
			us := float64(d.Nanoseconds()) / 1e3
			if _, write := st.(workload.WriteStatement); write {
				out.writeUs = append(out.writeUs, us)
			} else {
				out.queryUs = append(out.queryUs, us)
			}
		}
	}
	out.wall = time.Since(start)
	out.backend = tb.busy
	outer.End()
	return &out, nil
}
