package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/drift"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/harness"
	"nose/internal/migrate"
	"nose/internal/rubis"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// OnlineConfig parameterizes the drifting-timeline evaluation: RUBiS
// traffic that starts read-only (browsing) and drifts phase by phase
// toward the write-heavy write100 mix, served by four strategies that
// differ in what they are allowed to know and when they may change
// schema:
//
//   - once: advise on the phase-0 mix, never change. Knows only the
//     starting traffic — the honest lower bound for an online system.
//   - oracle: AdviseSeries over the declared phases, migrating
//     stop-the-world at every phase boundary. Knows the whole future —
//     the upper bound no online detector can beat.
//   - online: advise on the phase-0 mix, then let a drift detector
//     watch the executed statement mix and, when it fires, re-advise
//     on the observed window mix and migrate in the background with
//     dual writes and bounded backfill chunks interleaved between
//     transactions.
//   - static: the paper's single schema, advised on the
//     duration-weighted average of the phases and never changed — the
//     best one schema can do knowing the whole timeline, against which
//     the oracle's migrations must pay for themselves.
//
// Each drift rate optionally runs twice: once on a plain store and
// once on a replicated cluster with node faults injected, so the live
// migration path is exercised under the weather it was built for.
type OnlineConfig struct {
	// Base configures the dataset, advisor, per-phase execution budget
	// (Executions transactions per phase), and observability exactly as
	// in Fig. 11. Base.Mix is ignored — the drift decides the mixes.
	Base Fig11Config
	// Rates is the sweep of drift rates in [0,1]; empty means
	// DefaultDriftRates.
	Rates []float64
	// Phases is the number of workload phases; minimum (and default)
	// DefaultDriftPhases.
	Phases int
	// Seed drives the transaction schedule shuffle, the parameter
	// sequences, and the fault streams; every strategy sees identical
	// sequences, so comparisons are paired.
	Seed int64
	// Migration prices column family builds; the zero value means
	// migrate.DefaultCostParams(). The oracle's advisor sees these
	// prices scaled by 1/(Phases·Executions), so its per-execution
	// workload costs and the one-time build charges are on the same
	// footing as the measured run.
	Migration migrate.CostParams
	// FaultRate is the node fault rate for each drift rate's faulted
	// row; 0 skips the faulted rows, negative means
	// DefaultOnlineFaultRate.
	FaultRate float64
	// Detector tunes the drift detector; the zero value takes the
	// drift package defaults.
	Detector drift.Config
	// FaultBudget is the live migration's abort budget per migration;
	// 0 means migrate.DefaultFaultBudget.
	FaultBudget int
	// PenaltyMillis is the SLA penalty charged per transaction lost to
	// unavailability — a query with no surviving plan under faults, or
	// no plan at all because the serving schema was never advised for
	// it. An unanswerable request is not free: the client waits out a
	// timeout and errors. Zero means DefaultOnlinePenaltyMillis;
	// negative disables the penalty.
	PenaltyMillis float64
}

// DefaultDriftRates sweeps from no drift to full browsing→write100
// drift.
var DefaultDriftRates = []float64{0, 0.25, 0.5, 1}

// DefaultDriftPhases is the default timeline length.
const DefaultDriftPhases = 4

// DefaultOnlineFaultRate is the node fault rate used for the faulted
// rows when the config asks for the default.
const DefaultOnlineFaultRate = 0.02

// DefaultOnlinePenaltyMillis is the default SLA penalty per lost
// transaction — a timeout-scale charge, an order of magnitude above a
// typical served transaction.
const DefaultOnlinePenaltyMillis = 10

// OnlineStrategies orders the compared strategies in every row.
var OnlineStrategies = []string{"once", "oracle", "online", "static"}

// OnlineCell is one strategy's measured totals across one row's
// timeline.
type OnlineCell struct {
	// WorkloadMillis is the summed simulated response time of every
	// completed transaction.
	WorkloadMillis float64
	// MigrationMillis is the summed simulated time of schema changes:
	// initial installation, stop-the-world migrations (oracle), and
	// live backfill work including failed attempts (online).
	MigrationMillis float64
	// Migrations counts schema changes that built at least one family
	// and took effect (for online: reached cutover), initial
	// installation included.
	Migrations int
	// FamiliesBuilt totals the column families those migrations built.
	FamiliesBuilt int
	// Triggers counts drift-detector firings (online only).
	Triggers int
	// Aborts counts live migrations rolled back after exceeding their
	// fault budget (online only).
	Aborts int
	// Unavailable counts transactions lost: no surviving plan under
	// node faults (harness.ErrUnavailable) or no plan at all because
	// the serving schema was never advised for the statement
	// (harness.ErrNoPlan — the cost of serving drifted traffic on a
	// stale schema).
	Unavailable int64
	// PenaltyMillis is the SLA charge for those lost transactions.
	PenaltyMillis float64
}

// TotalMillis is the cell's bottom line: workload plus migration time
// plus the SLA penalties for lost transactions.
func (c OnlineCell) TotalMillis() float64 {
	return c.WorkloadMillis + c.MigrationMillis + c.PenaltyMillis
}

// OnlineRow compares the strategies at one (drift rate, fault
// mode) point.
type OnlineRow struct {
	// Rate is the drift rate.
	Rate float64
	// Faulted reports whether this row ran on a replicated cluster
	// with node faults injected.
	Faulted bool
	// Cells maps strategy name (see OnlineStrategies) to its
	// measurement.
	Cells map[string]OnlineCell
}

// OnlineResult is the full sweep.
type OnlineResult struct {
	// Rows holds the clean row and, when faults are configured, the
	// faulted row for each drift rate, in Rates order.
	Rows []OnlineRow
	// Phases and Executions echo the run shape; FaultRate is the node
	// fault rate of the faulted rows (0 when they were skipped);
	// PenaltyMillis is the SLA charge per lost transaction.
	Phases        int
	Executions    int
	FaultRate     float64
	PenaltyMillis float64
}

// driftWeights returns each transaction's normalized weight per phase:
// phase t blends browsing and write100 with α = rate·t/(phases−1), and
// each phase's weights are normalized to fractions so phases are
// comparable and execution counts follow directly.
func driftWeights(txns []*rubis.Transaction, rate float64, phases int) []map[string]float64 {
	out := make([]map[string]float64, phases)
	for t := 0; t < phases; t++ {
		alpha := rate * float64(t) / float64(phases-1)
		w := map[string]float64{}
		total := 0.0
		for _, txn := range txns {
			v := (1-alpha)*rubis.TransactionWeight(txn, rubis.MixBrowsing) +
				alpha*rubis.TransactionWeight(txn, rubis.MixWrite100)
			w[txn.Name] = v
			total += v
		}
		for name := range w {
			w[name] /= total
		}
		out[t] = w
	}
	return out
}

// driftPhases attaches the per-phase weights to the workload as phase
// overrides keyed by statement label.
func driftPhases(w *workload.Workload, txns []*rubis.Transaction, weights []map[string]float64) []*workload.Phase {
	var phases []*workload.Phase
	for t, pw := range weights {
		over := map[string]float64{}
		for _, txn := range txns {
			for _, st := range txn.Statements {
				over[workload.Label(st)] = pw[txn.Name]
			}
		}
		phases = append(phases, &workload.Phase{
			Name:      fmt.Sprintf("t%d", t),
			Overrides: over,
		})
	}
	return phases
}

// averageWorkload flattens the phases to their mean weights — the
// workload an advise-once strategy sees.
func averageWorkload(w *workload.Workload, txns []*rubis.Transaction, weights []map[string]float64) *workload.Workload {
	avgByTxn := map[string]float64{}
	for _, pw := range weights {
		for name, v := range pw {
			avgByTxn[name] += v / float64(len(weights))
		}
	}
	byLabel := map[string]float64{}
	for _, txn := range txns {
		for _, st := range txn.Statements {
			byLabel[workload.Label(st)] = avgByTxn[txn.Name]
		}
	}
	avg := workload.New(w.Graph)
	for _, ws := range w.Statements {
		avg.Statements = append(avg.Statements, &workload.WeightedStatement{
			Statement: ws.Statement,
			Weight:    byLabel[workload.Label(ws.Statement)],
		})
	}
	return avg
}

// onlineSchedule builds the deterministic transaction schedule: per
// phase, each transaction gets its largest-remainder share of the
// execution budget, and the resulting instances are shuffled with a
// seeded generator so the statement stream interleaves transaction
// types the way live traffic does (block-ordered execution would feed
// the drift detector windows of a single statement type). The same
// schedule drives every strategy.
func onlineSchedule(txns []*rubis.Transaction, weights []map[string]float64, executions int, seed int64) [][]int {
	out := make([][]int, len(weights))
	for t, pw := range weights {
		counts := apportion(txns, pw, executions)
		var sched []int
		for ti, n := range counts {
			for i := 0; i < n; i++ {
				sched = append(sched, ti)
			}
		}
		rng := rand.New(rand.NewSource(seed + int64(t)))
		rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
		out[t] = sched
	}
	return out
}

// apportion distributes n executions across the transactions in
// proportion to their weights using the largest-remainder method, with
// index order breaking ties — fully deterministic.
func apportion(txns []*rubis.Transaction, w map[string]float64, n int) []int {
	counts := make([]int, len(txns))
	rem := make([]float64, len(txns))
	used := 0
	for ti, txn := range txns {
		exact := w[txn.Name] * float64(n)
		counts[ti] = int(exact)
		rem[ti] = exact - float64(counts[ti])
		used += counts[ti]
	}
	order := make([]int, len(txns))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; used < n && i < len(order); i++ {
		counts[order[i]]++
		used++
	}
	return counts
}

// statementMix converts per-transaction weights to the normalized
// per-statement-label mix the executed traffic will show — each
// transaction instance executes all its statements once.
func statementMix(txns []*rubis.Transaction, w map[string]float64) map[string]float64 {
	mix := map[string]float64{}
	for _, txn := range txns {
		for _, st := range txn.Statements {
			mix[workload.Label(st)] += w[txn.Name]
		}
	}
	return drift.Normalize(mix)
}

// unionMix merges two normalized statement mixes by per-label maximum
// and re-normalizes. The online strategy re-advises on the union of
// the mix its serving schema covers and the observed window mix — a
// ratchet: a statement the system once served stays covered even when
// the latest window happens not to sample it, because a short window
// missing a known-live statement type is sampling noise, not evidence
// the application retired it. The price of the ratchet is honest too:
// views for traffic that genuinely went away are kept and maintained.
func unionMix(a, b map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if v > out[k] {
			out[k] = v
		}
	}
	return drift.Normalize(out)
}

// readviseWorkload builds the workload the online strategy re-advises
// on from a statement mix (the union of served and observed — see
// unionMix). The mix is lifted from statements to transactions first —
// a transaction's weight is the largest observed weight among its
// statements — and then expanded back to every statement of those
// transactions. The lift matters for honesty: a transaction that fails
// mid-way on a no-plan statement never executes its trailing
// statements, so the raw window mix under-represents exactly the
// statements the re-advice most needs to cover; the application,
// however, knows its transactions' full statement sets. Transactions
// the mix never saw get weight zero and are genuinely absent.
func readviseWorkload(w *workload.Workload, txns []*rubis.Transaction, mix map[string]float64) *workload.Workload {
	txw := map[string]float64{}
	for _, txn := range txns {
		for _, st := range txn.Statements {
			if v := mix[workload.Label(st)]; v > txw[txn.Name] {
				txw[txn.Name] = v
			}
		}
	}
	byLabel := statementMix(txns, txw)
	out := workload.New(w.Graph)
	for _, ws := range w.Statements {
		out.Statements = append(out.Statements, &workload.WeightedStatement{
			Statement: ws.Statement,
			Weight:    byLabel[workload.Label(ws.Statement)],
		})
	}
	return out
}

// RunOnline sweeps drift rates over RUBiS and measures advise-once,
// the phase oracle, the online detector+live-migration loop and the
// static average-workload schema on total simulated cost, migration
// charges included. Everything is deterministic: the same config and
// seed reproduce the same table at any advisor worker count, which is
// what the CI determinism smoke fingerprints. The expected shape: at
// rate 0 all four strategies tie (nothing drifts, so the detector
// never fires and the series advisor keeps one schema); as drift
// grows, online beats once by migrating toward the traffic it actually
// sees, and the oracle usually beats online because it knows the
// timeline in advance and pays no detection lag (it is optimal in the
// advisor's cost model, not in measured time). Where the oracle beats
// static, mid-run migrations pay for themselves.
func RunOnline(cfg OnlineConfig) (*OnlineResult, error) {
	if cfg.Base.Executions <= 0 {
		cfg.Base.Executions = 60
	}
	if cfg.Phases < 2 {
		cfg.Phases = DefaultDriftPhases
	}
	rates := cfg.Rates
	if len(rates) == 0 {
		rates = DefaultDriftRates
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.FaultRate < 0 {
		cfg.FaultRate = DefaultOnlineFaultRate
	}
	if cfg.PenaltyMillis == 0 {
		cfg.PenaltyMillis = DefaultOnlinePenaltyMillis
	} else if cfg.PenaltyMillis < 0 {
		cfg.PenaltyMillis = 0
	}
	migMeasured := cfg.Migration
	if migMeasured == (migrate.CostParams{}) {
		migMeasured = migrate.DefaultCostParams()
	}
	migAdvisor := migMeasured.Scale(1 / (float64(cfg.Phases) * float64(cfg.Base.Executions)))

	ds, err := rubis.Generate(cfg.Base.RUBiS)
	if err != nil {
		return nil, err
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		return nil, err
	}

	res := &OnlineResult{
		Phases:        cfg.Phases,
		Executions:    cfg.Base.Executions,
		FaultRate:     cfg.FaultRate,
		PenaltyMillis: cfg.PenaltyMillis,
	}
	for _, rate := range rates {
		for _, faulted := range []bool{false, true} {
			if faulted && cfg.FaultRate == 0 {
				continue
			}
			row, err := runOnlineRate(cfg, onlineRun{
				ds: ds, w: w, txns: txns,
				rate: rate, faulted: faulted,
				migMeasured: migMeasured, migAdvisor: migAdvisor,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: online rate %g (faulted=%t): %w", rate, faulted, err)
			}
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

// onlineRun carries one row's shared inputs.
type onlineRun struct {
	ds                      *backend.Dataset
	w                       *workload.Workload
	txns                    []*rubis.Transaction
	rate                    float64
	faulted                 bool
	migMeasured, migAdvisor migrate.CostParams
}

// runOnlineRate measures one (drift rate, fault mode) row: advise the
// strategies, then drive each through the identical shuffled
// transaction schedule.
func runOnlineRate(cfg OnlineConfig, run onlineRun) (*OnlineRow, error) {
	weights := driftWeights(run.txns, run.rate, cfg.Phases)
	schedule := onlineSchedule(run.txns, weights, cfg.Base.Executions, cfg.Seed)

	advOpts := cfg.Base.Advisor
	if cfg.Base.Obs != nil {
		advOpts.Obs = cfg.Base.Obs
	}
	if cfg.Base.Trace != nil {
		advOpts.Trace = cfg.Base.Trace
	}

	// once and online both start from the phase-0 advice: neither may
	// know the future, so statements with no phase-0 traffic are
	// absent and their views unbuilt — when drift brings them, they
	// are unanswerable (penalized) until a migration covers them. The
	// oracle sees the declared timeline, static its average.
	startRec, err := search.Advise(averageWorkload(run.w, run.txns, weights[:1]), advOpts)
	if err != nil {
		return nil, fmt.Errorf("phase-0 advise: %w", err)
	}
	phased := *run.w
	phased.Phases = driftPhases(run.w, run.txns, weights)
	seriesOpts := advOpts
	seriesOpts.Migration = run.migAdvisor
	series, err := search.AdviseSeries(&phased, seriesOpts)
	if err != nil {
		return nil, fmt.Errorf("series advise: %w", err)
	}

	row := &OnlineRow{Rate: run.rate, Faulted: run.faulted, Cells: map[string]OnlineCell{}}

	onceCell, err := runOnlineOnce(cfg, run, "once", schedule, startRec)
	if err != nil {
		return nil, fmt.Errorf("once: %w", err)
	}
	row.Cells["once"] = *onceCell

	oracleCell, err := runOnlineOracle(cfg, run, schedule, series)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	row.Cells["oracle"] = *oracleCell

	onlineCell, err := runOnlineLive(cfg, run, schedule, weights, startRec, advOpts)
	if err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	row.Cells["online"] = *onlineCell

	staticRec, err := search.Advise(averageWorkload(run.w, run.txns, weights), advOpts)
	if err != nil {
		return nil, fmt.Errorf("static advise: %w", err)
	}
	staticCell, err := runOnlineOnce(cfg, run, "static", schedule, staticRec)
	if err != nil {
		return nil, fmt.Errorf("static: %w", err)
	}
	row.Cells["static"] = *staticCell
	return row, nil
}

// newOnlineSystem builds one strategy's system: empty schema (the
// initial installation is charged through the migration path), plain
// store for clean rows, replicated QUORUM cluster with node faults for
// faulted rows.
func newOnlineSystem(cfg OnlineConfig, run onlineRun, name string) (*harness.System, error) {
	empty := &search.Recommendation{Schema: schema.NewSchema()}
	lat := cost.DefaultParams()
	if !run.faulted {
		return harness.NewSystem(name, run.ds, empty, lat)
	}
	rc := harness.ReplicationConfig{
		Read:  executor.Quorum,
		Write: executor.Quorum,
		Hedge: executor.HedgePolicy{Enabled: true},
	}
	sys, err := harness.NewReplicatedSystem(name, run.ds, empty, lat, rc)
	if err != nil {
		return nil, err
	}
	sys.EnableNodeFaults(cfg.Seed, faults.NodeRate(cfg.FaultRate), executor.DefaultRetryPolicy())
	return sys, nil
}

// execPhase runs one phase of the schedule against a system: paired
// parameter sequences per transaction type, lost transactions (no
// surviving plan under faults, no plan at all on a stale schema)
// counted and penalized rather than fatal, and an optional between
// callback invoked after every transaction (the online strategy
// advances its background migration there).
func execPhase(cfg OnlineConfig, run onlineRun, sys *harness.System, cell *OnlineCell, t int, sched []int, between func() error) error {
	sources := make([]*rubis.ParamSource, len(run.txns))
	for ti := range run.txns {
		sources[ti] = rubis.NewParamSource(cfg.Base.RUBiS, cfg.Seed+int64(1000*t+ti))
	}
	for _, ti := range sched {
		txn := run.txns[ti]
		ms, err := sys.ExecTransaction(txn.Statements, sources[ti].Params(txn.Name))
		switch {
		case err == nil:
			cell.WorkloadMillis += ms
		case errors.Is(err, harness.ErrUnavailable), errors.Is(err, harness.ErrNoPlan):
			cell.Unavailable++
			cell.PenaltyMillis += cfg.PenaltyMillis
		default:
			return fmt.Errorf("%s on %s: %w", txn.Name, sys.Name, err)
		}
		if between != nil {
			if err := between(); err != nil {
				return err
			}
		}
	}
	return nil
}

// recordMigrate books a stop-the-world migration result into a cell.
func recordMigrate(cell *OnlineCell, res *migrate.Result) {
	cell.MigrationMillis += res.SimMillis
	cell.FamiliesBuilt += len(res.Built)
	if len(res.Built) > 0 {
		cell.Migrations++
	}
}

// runOnlineOnce measures an advise-once strategy: install rec's schema
// (the phase-0 advice for once, the average-workload advice for
// static), never change it.
func runOnlineOnce(cfg OnlineConfig, run onlineRun, name string, schedule [][]int, rec *search.Recommendation) (*OnlineCell, error) {
	sys, err := newOnlineSystem(cfg, run, name)
	if err != nil {
		return nil, err
	}
	defer func() { cfg.Base.Obs.Merge(sys.Obs()) }()
	cell := &OnlineCell{}
	res, err := sys.Migrate(run.ds, &search.PhaseRecommendation{Rec: rec, Build: rec.Schema.Indexes()}, run.migMeasured)
	if err != nil {
		return nil, err
	}
	recordMigrate(cell, res)
	for t, sched := range schedule {
		if err := execPhase(cfg, run, sys, cell, t, sched, nil); err != nil {
			return nil, err
		}
	}
	return cell, nil
}

// runOnlineOracle measures the phase oracle: the AdviseSeries schedule
// with a stop-the-world migration at every phase boundary.
func runOnlineOracle(cfg OnlineConfig, run onlineRun, schedule [][]int, series *search.SeriesRecommendation) (*OnlineCell, error) {
	sys, err := newOnlineSystem(cfg, run, "oracle")
	if err != nil {
		return nil, err
	}
	defer func() { cfg.Base.Obs.Merge(sys.Obs()) }()
	cell := &OnlineCell{}
	for t, sched := range schedule {
		res, err := sys.Migrate(run.ds, series.Phases[t], run.migMeasured)
		if err != nil {
			return nil, err
		}
		recordMigrate(cell, res)
		if err := execPhase(cfg, run, sys, cell, t, sched, nil); err != nil {
			return nil, err
		}
	}
	return cell, nil
}

// onlineDrainSteps bounds the post-workload drain of a still-running
// live migration; hitting the bound is an error, not a truncation.
const onlineDrainSteps = 100_000

// runOnlineLive measures the online loop: start on the phase-0 schema,
// watch the executed mix, and on every drift trigger re-advise on the
// observed window mix and migrate live — dual writes forwarded,
// backfill interleaved one bounded chunk per transaction.
func runOnlineLive(cfg OnlineConfig, run onlineRun, schedule [][]int, weights []map[string]float64, startRec *search.Recommendation, advOpts search.Options) (*OnlineCell, error) {
	sys, err := newOnlineSystem(cfg, run, "online")
	if err != nil {
		return nil, err
	}
	defer func() { cfg.Base.Obs.Merge(sys.Obs()) }()
	cell := &OnlineCell{}

	res, err := sys.Migrate(run.ds, &search.PhaseRecommendation{Rec: startRec, Build: startRec.Schema.Indexes()}, run.migMeasured)
	if err != nil {
		return nil, err
	}
	recordMigrate(cell, res)

	// servingMix is the traffic mix the serving schema was advised for —
	// the detector's target; knownMix is the ratcheting union of every
	// mix the system has been advised on (see unionMix).
	servingMix := statementMix(run.txns, weights[0])
	knownMix := servingMix
	det := drift.New(cfg.Detector, servingMix)
	sys.EnableDrift(det)

	// pendingBuild is the family count of the in-flight live migration,
	// booked into the cell only if it reaches cutover.
	pendingBuild := 0
	var pendingMix map[string]float64

	liveStep := func() error {
		sr, err := sys.LiveStep()
		cell.MigrationMillis += sr.SimMillis
		switch {
		case errors.Is(err, migrate.ErrAborted):
			// Full rollback already happened inside the controller: the
			// old schema keeps serving. Point the detector back at the
			// mix that schema was advised for so sustained drift can
			// trigger another attempt after the cooldown.
			cell.Aborts++
			det.SetTarget(servingMix)
		case err != nil:
			return err
		case sr.State == migrate.StateCutover && sr.Transitioned:
			cell.Migrations++
			cell.FamiliesBuilt += pendingBuild
			servingMix = pendingMix
		}
		return nil
	}

	between := func() error {
		if sys.LiveActive() {
			return liveStep()
		}
		mix := sys.TakeDriftTrigger()
		if mix == nil {
			return nil
		}
		cell.Triggers++
		knownMix = unionMix(knownMix, mix)
		rec, err := search.Advise(readviseWorkload(run.w, run.txns, knownMix), advOpts)
		if err != nil {
			return fmt.Errorf("re-advise: %w", err)
		}
		build, drop := migrate.Diff(sys.Rec().Schema, rec.Schema)
		det.SetTarget(mix)
		if len(build) == 0 && len(drop) == 0 {
			// The observed mix does not change the schema: adopt the new
			// target and move on — no migration to run.
			servingMix = mix
			return nil
		}
		if _, err := sys.StartLiveMigration(run.ds, &search.PhaseRecommendation{Rec: rec, Build: build, Drop: drop},
			migrate.LiveOptions{Params: run.migMeasured, FaultBudget: cfg.FaultBudget}); err != nil {
			return err
		}
		pendingBuild = len(build)
		pendingMix = mix
		return nil
	}

	for t, sched := range schedule {
		if err := execPhase(cfg, run, sys, cell, t, sched, between); err != nil {
			return nil, err
		}
	}
	// The workload is over; let an in-flight migration finish (or
	// abort) so its full cost lands in the cell.
	for i := 0; sys.LiveActive(); i++ {
		if i >= onlineDrainSteps {
			return nil, fmt.Errorf("live migration not finished after %d drain steps", onlineDrainSteps)
		}
		if err := liveStep(); err != nil {
			return nil, err
		}
	}
	return cell, nil
}

// Format renders the sweep as a comparison table; its exact bytes are
// the determinism fingerprint the CI smoke compares across worker
// counts.
func (r *OnlineResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "online sweep: %d phases, %d transactions/phase, node fault rate %g, %g ms penalty per lost transaction\n",
		r.Phases, r.Executions, r.FaultRate, r.PenaltyMillis)
	fmt.Fprintf(&b, "%-6s %-7s | %11s %6s | %11s %6s | %11s %9s %6s %5s %6s | %11s %6s | %7s\n",
		"rate", "faults",
		"once-total", "lost",
		"orcl-total", "lost",
		"onln-total", "onln-mig", "lost", "trig", "abort",
		"stat-total", "lost",
		"winner")
	for _, row := range r.Rows {
		// The winner is decided on the printed 0.1 ms totals, ties going
		// to the first strategy in OnlineStrategies order: two schedules
		// that build the same families in different ledgers differ only
		// in floating-point noise.
		winner, best := "", math.Inf(1)
		for _, name := range OnlineStrategies {
			if total := printedMillis(row.Cells[name].TotalMillis()); total < best {
				winner, best = name, total
			}
		}
		once, oracle, online, static := row.Cells["once"], row.Cells["oracle"], row.Cells["online"], row.Cells["static"]
		mode := "off"
		if row.Faulted {
			mode = "on"
		}
		fmt.Fprintf(&b, "%-6.2f %-7s | %11.1f %6d | %11.1f %6d | %11.1f %9.1f %6d %5d %6d | %11.1f %6d | %7s\n",
			row.Rate, mode,
			once.TotalMillis(), once.Unavailable,
			oracle.TotalMillis(), oracle.Unavailable,
			online.TotalMillis(), online.MigrationMillis, online.Unavailable,
			online.Triggers, online.Aborts,
			static.TotalMillis(), static.Unavailable,
			winner)
	}
	return b.String()
}

// printedMillis rounds ms to the 0.1 ms the table prints.
func printedMillis(ms float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(ms, 'f', 1, 64), 64)
	return v
}
