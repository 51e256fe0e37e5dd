// Package search is the schema optimizer (paper §V, §VI-D): it
// enumerates candidates, generates plan spaces, formulates column
// family selection as a binary integer program, solves it in two phases
// (minimum workload cost, then fewest column families at that cost),
// and extracts the recommended schema plus one implementation plan per
// statement. A time-dependent workload runs the same pipeline over all
// of its phases in one program linked by migration charges
// (AdviseSeries); Advise is its one-phase case.
package search

import (
	"context"
	"time"

	"nose/internal/bip"
	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/migrate"
	"nose/internal/obs"
	"nose/internal/par"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/workload"
)

// Options configures an advisor run.
type Options struct {
	// Workers bounds the goroutines fanned across the pipeline:
	// candidate enumeration, plan-space generation, and the LP
	// relaxations inside the branch and bound solver. Zero or negative
	// means runtime.NumCPU(). The recommendation — schema, plans,
	// objective — is bit-identical for every value; workers only change
	// wall-clock time.
	Workers int
	// CostModel prices plan operations; nil means cost.Default().
	CostModel cost.Model
	// Planner tunes plan-space generation.
	Planner planner.Config
	// Enumerator toggles optional enumeration steps (ablation).
	Enumerator enumerator.Features
	// MaxSupportPlans bounds the plan space of each support query;
	// zero means DefaultMaxSupportPlans.
	MaxSupportPlans int
	// SpaceBudgetBytes, when positive, constrains the total estimated
	// size of the recommended column families (paper §III-D's optional
	// space constraint).
	SpaceBudgetBytes float64
	// BIP tunes the integer solver.
	BIP bip.Options
	// SkipMinimizeSchema disables the second solver phase that
	// minimizes the number of column families at optimal cost.
	SkipMinimizeSchema bool
	// Migration prices the column family builds AdviseSeries charges at
	// phase boundaries; the zero value means
	// migrate.DefaultCostParams(). Ignored by Advise.
	Migration migrate.CostParams
	// Ctx, when non-nil, cancels an in-flight advise: it is checked at
	// every enumeration batch, at each plan-space fan-out item, and at
	// every branch-and-bound batch boundary, so Advise and AdviseSeries
	// return Ctx.Err() promptly (errors.Is recognizes context.Canceled
	// / DeadlineExceeded) instead of finishing the solve. Cancellation
	// is clean: no partial recommendation is returned, and a shared
	// cost cache (Planner.Cache) remains valid for later runs — the
	// cache only ever holds completed estimates. Nil means
	// context.Background() (never cancelled).
	Ctx context.Context
	// Obs, when non-nil, receives pipeline metrics: deterministic
	// search.*/enum.*/bip.*/lp.* counters, wall-clock stage gauges, and
	// volatile cost-cache counters. Nil disables metrics at no cost.
	Obs *obs.Registry
	// Trace, when non-nil, records one wall-clock span per advisor
	// stage, viewable in about:tracing/Perfetto.
	Trace *obs.Tracer
}

// DefaultMaxSupportPlans bounds support-query plan spaces.
const DefaultMaxSupportPlans = 8

// Timings breaks down where an advisor run spent its time, mirroring
// the categories of paper Fig. 13.
type Timings struct {
	// Enumeration covers candidate enumeration (Algorithm 1).
	Enumeration time.Duration
	// CostCalculation covers plan-space generation and cost
	// estimation.
	CostCalculation time.Duration
	// BIPConstruction covers formulating the integer program.
	BIPConstruction time.Duration
	// BIPSolving covers the integer solves (both phases).
	BIPSolving time.Duration
	// Other covers extraction and bookkeeping.
	Other time.Duration
	// Total is the end-to-end advisor time.
	Total time.Duration
}

// Stats reports the size of the optimization problem.
type Stats struct {
	// Candidates is the number of enumerated column families.
	Candidates int
	// PlanVariables is the number of plan-choice binary variables.
	PlanVariables int
	// Constraints is the number of BIP rows.
	Constraints int
	// Nodes is the number of branch and bound nodes explored.
	Nodes int
}

// QueryRecommendation pairs a workload query with its chosen plan.
type QueryRecommendation struct {
	// Statement is the workload entry.
	Statement *workload.WeightedStatement
	// Plan is the recommended implementation plan.
	Plan *planner.Plan
	// Alternatives are every plan from the query's plan space that is
	// executable against the recommended schema (all its column
	// families are installed), cheapest first and including Plan. The
	// harness uses them for plan-level failover when a column family is
	// down: NoSE's index redundancy means a query often has several
	// ways to be answered, and keeping the ranked survivors is what
	// lets execution degrade gracefully instead of failing.
	Alternatives []*planner.Plan
}

// UpdateRecommendation describes how one write statement maintains one
// recommended column family.
type UpdateRecommendation struct {
	// Statement is the workload entry.
	Statement *workload.WeightedStatement
	// Plan carries the write-side costs for the maintained family.
	Plan *planner.UpdatePlan
	// SupportPlans are the chosen plans for the update's support
	// queries.
	SupportPlans []*planner.Plan
}

// Recommendation is the advisor's output: the schema, one plan per
// query, the update maintenance plans, and run statistics.
type Recommendation struct {
	// Schema holds the recommended column families.
	Schema *schema.Schema
	// Queries holds one entry per workload query, in workload order.
	Queries []*QueryRecommendation
	// Updates holds one entry per (write statement, maintained family)
	// pair.
	Updates []*UpdateRecommendation
	// Cost is the optimal weighted workload cost under the cost model.
	Cost float64
	// Timings breaks down the advisor runtime.
	Timings Timings
	// Stats reports problem sizes.
	Stats Stats
}

// withDefaults resolves zero-valued options: the default cost model,
// support-plan bound, worker count (spread to the BIP solver), and a
// fresh per-run cost cache. The cache memo is shared by every planner
// invocation of one run and is scoped to this (schema, model, config)
// combination, so a fresh run gets a fresh cache.
func (opt Options) withDefaults() Options {
	if opt.CostModel == nil {
		opt.CostModel = cost.Default()
	}
	if opt.MaxSupportPlans <= 0 {
		opt.MaxSupportPlans = DefaultMaxSupportPlans
	}
	opt.Workers = par.Workers(opt.Workers)
	opt.BIP.Workers = opt.Workers
	opt.BIP.Obs = opt.Obs
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	opt.BIP.Ctx = opt.Ctx
	if opt.Planner.Cache == nil {
		opt.Planner.Cache = cost.NewCache()
	}
	return opt
}

// Advise runs the full pipeline on a workload and returns the
// recommendation. It is the one-phase case of AdviseSeries: the same
// stages over one phase of share 1, with no migration links and a
// second solver phase that keeps the fewest column families at the
// optimal cost.
func Advise(w *workload.Workload, opt Options) (*Recommendation, error) {
	sr, err := advise("advise", w, nil, opt)
	if err != nil {
		return nil, err
	}
	return sr.Phases[0].Rec, nil
}

// advise is the one advisor pipeline behind Advise and AdviseSeries:
// enumerate candidates once, then plan, formulate, solve and extract
// every phase of w in one program (w itself when phases is empty). root
// names the run's root span.
func advise(root string, w *workload.Workload, phases []*workload.Phase, opt Options) (*SeriesRecommendation, error) {
	opt = opt.withDefaults()
	sr := &SeriesRecommendation{}
	var p *Prepared
	run := opt.stage(root, &sr.Timings.Total)
	cacheBefore := opt.Planner.Cache.Stats()
	defer func() {
		run.End()
		if len(sr.Phases) == 1 {
			sr.Phases[0].Rec.Timings = sr.Timings
		}
		publish(opt, sr, p, cacheBefore)
	}()

	// Candidate enumeration (Algorithm 1), once over the union of all
	// phases: every statement active in any phase, at its maximum phase
	// weight. Weights only matter for which statements appear; per-phase
	// weights are applied when planning.
	enumW := w
	switch {
	case len(phases) == 1:
		enumW = w.ForPhase(phases[0])
	case len(phases) > 1:
		enumW = unionWorkload(w)
	}
	st := opt.stage("enumerate", &sr.Timings.Enumeration)
	enumRes, err := enumerator.EnumerateWorkloadCtx(opt.Ctx, enumW, opt.Enumerator, opt.Workers, opt.Obs)
	if err == nil {
		sr.Stats.Candidates = enumRes.Pool.Len()
		st.SetArg("candidates", sr.Stats.Candidates)
	}
	st.End()
	if err != nil {
		return nil, err
	}

	if p, err = prepare(opt, w, phases, enumRes, &sr.Timings, &sr.Stats); err != nil {
		return nil, err
	}
	sol, err := p.solve()
	if err != nil {
		return nil, err
	}
	st = opt.stage("extract", &sr.Timings.Other)
	err = p.extract(sol, sr)
	st.End()
	if err != nil {
		return nil, err
	}
	return sr, nil
}

// stage is one timed advisor stage: a span when a tracer is attached,
// and a Timings field that receives the stage's wall time whether or
// not one is.
type stage struct {
	*obs.Span
	start time.Time
	into  *time.Duration
}

// stage opens an advisor stage named name that adds its time to *into.
func (opt Options) stage(name string, into *time.Duration) stage {
	return stage{Span: opt.Trace.Begin(name, "advisor"), start: time.Now(), into: into}
}

// End closes the stage. With a tracer attached the span's recorded
// duration is the one added, so Timings and the trace agree exactly.
func (s stage) End() {
	if s.Span == nil {
		*s.into += time.Since(s.start)
		return
	}
	*s.into += s.Span.End()
}

// publish records the run-level metrics: problem sizes, solver nodes,
// dominance prunes and cuts (p is nil when the run stopped before
// planning), the migration schedule, wall-clock stage gauges, and the
// cost-cache deltas. Cache counters are volatile — racing planner
// workers can both miss the same key — and deltas (not absolutes) are
// recorded so a caller-supplied cache reused across runs is not double
// counted.
func publish(opt Options, sr *SeriesRecommendation, p *Prepared, cacheBefore cost.CacheStats) {
	if opt.Obs == nil {
		return
	}
	c := func(name string, v int) { opt.Obs.Counter(name).Add(int64(v)) }
	c("search.advise_runs", 1)
	c("search.phases", len(sr.Phases))
	c("search.candidates", sr.Stats.Candidates)
	c("search.plan_variables", sr.Stats.PlanVariables)
	c("search.constraints", sr.Stats.Constraints)
	c("search.nodes", sr.Stats.Nodes)
	pruned, cuts := 0, 0
	if p != nil {
		for _, b := range p.builders {
			pruned += b.prunedPlans
			cuts += b.cuts
		}
	}
	c("search.plans_pruned_dominated", pruned)
	c("search.cuts", cuts)
	migrations := 0
	for t, pr := range sr.Phases {
		if t > 0 && len(pr.Build) > 0 {
			migrations++
		}
	}
	c("search.migrations", migrations)
	opt.Obs.Gauge("search.migration_cost").Add(sr.MigrationCost)

	g := func(name string, d time.Duration) {
		opt.Obs.Gauge(name).Add(float64(d.Nanoseconds()) / 1e6)
	}
	g("search.wall_ms.enumeration", sr.Timings.Enumeration)
	g("search.wall_ms.cost_calculation", sr.Timings.CostCalculation)
	g("search.wall_ms.bip_construction", sr.Timings.BIPConstruction)
	g("search.wall_ms.bip_solving", sr.Timings.BIPSolving)
	g("search.wall_ms.total", sr.Timings.Total)

	after := opt.Planner.Cache.Stats()
	opt.Obs.VolatileCounter("cost.cache.hits").Add(int64(after.Hits - cacheBefore.Hits))
	opt.Obs.VolatileCounter("cost.cache.misses").Add(int64(after.Misses - cacheBefore.Misses))
	opt.Obs.VolatileCounter("cost.cache.contention").Add(int64(after.Contention - cacheBefore.Contention))
	opt.Obs.VolatileCounter("cost.cache.entries").Add(int64(after.Entries - cacheBefore.Entries))
}
