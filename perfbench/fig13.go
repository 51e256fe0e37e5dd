package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"nose/internal/bip"
	"nose/internal/enumerator"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/search"
	"nose/internal/service/api"
	"nose/internal/workload"
)

// Fixed parameters of advise-fig13: the paper's Fig. 13 point at scale
// factor 6, with the repository's bench advisor options. The workload is
// the one BenchmarkAdvisorLargeRandwork uses, whatever the run's seed:
// factor-6 workloads of different seeds differ by up to half in advise
// time and allocation, which a run-to-run bound cannot absorb.
const (
	fig13Factor    = 6
	fig13Seed      = 42
	fig13MaxPlans  = 16
	fig13Support   = 4
	fig13MaxNodes  = 60
	fig13Gap       = 0.01
	fig13SetupReps = 9
)

func fig13Options(workers int) search.Options {
	return search.Options{
		Workers:         workers,
		Planner:         planner.Config{MaxPlansPerQuery: fig13MaxPlans},
		MaxSupportPlans: fig13Support,
		BIP:             bip.Options{MaxNodes: fig13MaxNodes, Gap: fig13Gap},
	}
}

// fig13Run is one advise-fig13 run: the workload and the canonical
// encoding of its Workers = 1 reference recommendation.
type fig13Run struct {
	r       *report
	w       *workload.Workload
	refJSON []byte
	workers int
}

// runFig13 advises one randwork workload repeatedly, each time with a
// fresh cost cache and Workers = nproc, and checks every answer against
// a Workers = 1 reference computed in set-up.
func runFig13(cfg config, r *report) error {
	var e endToEnd
	f := &fig13Run{r: r, workers: runtime.NumCPU()}
	for range fig13SetupReps {
		t := time.Now()
		var err error
		f.w, err = randwork.Generate(randwork.Config{Factor: fig13Factor, Seed: fig13Seed})
		if err != nil {
			return err
		}
		e.setupS = append(e.setupS, time.Since(t).Seconds())
	}

	t := time.Now()
	ref, err := search.Advise(f.w, fig13Options(1))
	if err != nil {
		return fmt.Errorf("workers=1 reference: %w", err)
	}
	if f.refJSON, err = api.Encode(api.Advise(f.w, ref)); err != nil {
		return err
	}
	fmt.Printf("reference (workers=1): %.3f s, %d candidates, %d plan variables, %d rows, %d nodes\n",
		time.Since(t).Seconds(), ref.Stats.Candidates, ref.Stats.PlanVariables, ref.Stats.Constraints, ref.Stats.Nodes)
	checkRecommendation(r, "reference", f.w, ref)
	ref = nil

	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	for i := 0; i == 0 || e.wallS < budget; i++ {
		if rec, _ := f.advise(fig13Options(f.workers), &e); rec != nil {
			f.check(rec, fmt.Sprintf("advise %d", i))
		}
	}
	if err := e.emit(r); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	return f.trace(cfg, mean(e.opMs))
}

// advise runs one timed advise, after a collection outside the timer,
// and returns the recommendation and its time in ms. A failed advise
// counts against the run.
func (f *fig13Run) advise(opt search.Options, e *endToEnd) (*search.Recommendation, float64) {
	runtime.GC()
	p := beginPhase()
	rec, err := search.Advise(f.w, opt)
	d := ms(p.end(e))
	f.r.attempted++
	if err != nil {
		f.r.failed++
		f.r.check("advise", false, "%v", err)
		return nil, 0
	}
	e.opMs = append(e.opMs, d)
	return rec, d
}

// check checks one recommendation and its encoding against the
// reference's.
func (f *fig13Run) check(rec *search.Recommendation, label string) {
	checkRecommendation(f.r, label, f.w, rec)
	got, err := api.Encode(api.Advise(f.w, rec))
	f.r.check(label+": encoding = workers=1 reference", err == nil && bytes.Equal(got, f.refJSON), "%d bytes", len(got))
}

// trace is the traced half of a traced run: each iteration calls the
// advisor's stages one at a time through their public entry points
// (enumerate, BuildPlans, Prepare, Prepared.Solve), each with a fresh
// cost cache, and then one full Advise with an obs registry and a
// tracer attached. enumerator.ms, planner.ms and bip.solve_ms time the
// separate calls; formulation, the residual and the self-time table come
// from the traced Advise's own stage spans, and the counters from its
// registry.
func (f *fig13Run) trace(cfg config, untracedMs float64) error {
	r, w, workers, tr := f.r, f.w, f.workers, f.r.tracer
	var traced endToEnd
	var enumMs, planMs, solveMs, adviseMs, planAlloc []float64
	var sum advisorStages
	var capHits float64
	reg := obs.NewRegistry()
	iters := 0
	for start := time.Now(); iters == 0 || time.Since(start).Seconds() < cfg.seconds/2; iters++ {
		it := tr.Begin(fmt.Sprintf("iteration %d", iters), "bench")
		opt := fig13Options(workers)

		runtime.GC()
		sp := tr.Begin("enumerator.EnumerateWorkloadCtx", "enumerator")
		t := time.Now()
		enumRes, err := enumerator.EnumerateWorkloadCtx(context.Background(), w, opt.Enumerator, workers, nil)
		enumMs = append(enumMs, ms(time.Since(t)))
		sp.End()
		if err != nil {
			return err
		}

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp = tr.Begin("search.BuildPlans", "planner")
		t = time.Now()
		err = search.BuildPlans(w, enumRes, opt)
		planMs = append(planMs, ms(time.Since(t)))
		sp.End()
		runtime.ReadMemStats(&m1)
		planAlloc = append(planAlloc, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		if err != nil {
			return err
		}

		runtime.GC()
		sp = tr.Begin("search.Prepare", "search")
		prep, err := search.Prepare(w, enumRes, opt)
		sp.End()
		if err != nil {
			return err
		}
		sp = tr.Begin("search.Prepared.Solve", "bip")
		t = time.Now()
		err = prep.Solve()
		solveMs = append(solveMs, ms(time.Since(t)))
		sp.End()
		if err != nil {
			return err
		}
		prep, enumRes = nil, nil

		// The full advise carries the registry and the program's own
		// stage tracer, whose spans split its time by layer.
		stages := obs.NewTracer()
		opt.Obs, opt.Trace = reg, stages
		sp = tr.Begin("search.Advise", "search")
		rec, d := f.advise(opt, &traced)
		sp.End()
		it.End()
		if rec == nil {
			continue
		}
		f.check(rec, fmt.Sprintf("traced advise %d", iters))
		adviseMs = append(adviseMs, d)
		spans, _ := stages.EventsSince(0)
		st, err := splitAdvisorSpans(spans)
		if err != nil {
			return err
		}
		sum.add(st)
		capHits += st.capHits(rec.Stats.Nodes, fig13MaxNodes)
	}

	n := float64(iters)
	snap := reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) / n }
	v := func(name string) float64 { return float64(snap.Volatile[name]) / n }
	publishAdvisorCounters(r, c, v)
	r.set("bip.node_cap_hit", capHits/n)
	r.set("enumerator.ms", mean(enumMs))
	r.set("planner.ms", mean(planMs))
	r.set("planner.alloc_mb", mean(planAlloc))
	r.set("bip.solve_ms", mean(solveMs))
	fmt.Printf("traced iterations: %d; enumerator.ms, planner.ms and bip.solve_ms time separate calls "+
		"with fresh cost caches, the self times split the traced Advise by its own stage spans\n", iters)
	r.selfTable(sum.publish(r, n), mean(adviseMs))
	r.overhead(untracedMs, mean(traced.opMs))
	return nil
}

// advisorStages is one advise's wall time split by the program's own
// stage spans (search.Advise and AdviseSeries record one per stage), in
// milliseconds.
type advisorStages struct {
	startMs, rootMs                                      float64
	enumerateMs, planMs, formulateMs, solveMs, extractMs float64
	solves, phase1Nodes                                  int
}

// splitAdvisorSpans sums an advise's stage spans by stage.
func splitAdvisorSpans(spans []obs.TraceEvent) (advisorStages, error) {
	var st advisorStages
	root := false
	for _, s := range spans {
		d := s.Dur / 1000
		switch {
		case s.Name == "advise" || s.Name == "advise-series":
			root = true
			st.startMs, st.rootMs = s.Ts/1000, d
		case strings.HasPrefix(s.Name, "enumerate"):
			st.enumerateMs += d
		case strings.HasPrefix(s.Name, "plan-spaces"):
			st.planMs += d
		case strings.HasPrefix(s.Name, "formulate"):
			st.formulateMs += d
		case strings.HasPrefix(s.Name, "solve"):
			st.solveMs += d
			st.solves++
			switch n := s.Args["nodes"].(type) {
			case int:
				st.phase1Nodes = n
			case float64: // read back from JSON
				st.phase1Nodes = int(n)
			}
		case strings.HasPrefix(s.Name, "extract"):
			st.extractMs += d
		}
	}
	if !root {
		return st, fmt.Errorf("advise trace has no advise span")
	}
	return st, nil
}

// capHits counts the solves that stopped at the node cap, given the
// advise's total node count. Only the first solve's span records its
// own count; a second solve explored the rest.
func (st advisorStages) capHits(totalNodes, maxNodes int) float64 {
	counts := []int{totalNodes}
	if st.solves == 2 {
		counts = []int{st.phase1Nodes, totalNodes - st.phase1Nodes}
	}
	hits := 0.0
	for _, n := range counts {
		if n >= maxNodes {
			hits++
		}
	}
	return hits
}

func (st *advisorStages) add(o advisorStages) {
	st.rootMs += o.rootMs
	st.enumerateMs += o.enumerateMs
	st.planMs += o.planMs
	st.formulateMs += o.formulateMs
	st.solveMs += o.solveMs
	st.extractMs += o.extractMs
}

// publish reports the formulation and residual metrics of n advises
// summed in st, and returns the advisor layers' self times per advise.
// The residual is the advise's time outside enumeration, planning,
// formulation and solving: extraction and the glue between stages.
func (st advisorStages) publish(r *report, n float64) map[string]float64 {
	residual := st.rootMs - st.enumerateMs - st.planMs - st.formulateMs - st.solveMs
	r.set("search.formulate_ms", st.formulateMs/n)
	r.set("search.residual_ms", residual/n)
	return map[string]float64{
		"enumerator": st.enumerateMs / n,
		"planner":    st.planMs / n,
		"search":     (st.formulateMs + residual) / n,
		"bip":        st.solveMs / n,
	}
}

// publishAdvisorCounters reports the advisor counters shared by
// advise-fig13 and daemon-hotel. c reads a deterministic counter per
// operation, v a volatile one.
func publishAdvisorCounters(r *report, c, v func(string) float64) {
	r.set("lp.pivots", c("lp.pivots"))
	r.set("lp.degenerate_ratio", ratio(c("lp.degenerate_pivots"), c("lp.pivots")))
	r.set("lp.refactors", c("lp.refactors"))
	r.set("lp.warm_start_ratio", ratio(c("lp.warm_starts"), c("lp.solves")))
	r.set("bip.nodes", c("bip.nodes"))
	r.set("bip.incumbents", c("bip.incumbents"))
	r.set("cost.cache_hits", v("cost.cache.hits"))
	r.set("cost.cache_misses", v("cost.cache.misses"))
	r.set("cost.cache_hit_ratio", ratio(v("cost.cache.hits"), v("cost.cache.hits")+v("cost.cache.misses")))
	r.set("enumerator.candidates_emitted", c("enum.candidates_emitted"))
	r.set("enumerator.candidates_unique", c("enum.candidates_unique"))
	r.set("enumerator.unique_ratio", ratio(c("enum.candidates_unique"), c("enum.candidates_emitted")))
	r.set("search.plan_variables", c("search.plan_variables"))
	r.set("search.constraints", c("search.constraints"))
	r.set("search.plans_pruned", c("search.plans_pruned_dominated"))
	r.set("search.cuts", c("search.cuts"))
}

// checkRecommendation checks that every query has a plan and that the
// reported cost equals the weighted sum recomputed from the chosen
// query plans, update plans and (once per update) support plans.
func checkRecommendation(r *report, label string, w *workload.Workload, rec *search.Recommendation) {
	missing := 0
	want := len(w.Queries())
	sum := 0.0
	for _, q := range rec.Queries {
		if q.Plan == nil {
			missing++
			continue
		}
		sum += w.Weight(q.Statement) * q.Plan.Cost
	}
	r.check(label+": every query has a plan", missing == 0 && len(rec.Queries) == want,
		"%d of %d queries planned", len(rec.Queries)-missing, want)

	type supportKey struct {
		st   *workload.WeightedStatement
		plan *planner.Plan
	}
	support := map[supportKey]bool{}
	for _, u := range rec.Updates {
		sum += w.Weight(u.Statement) * u.Plan.WriteCost
		for _, sp := range u.SupportPlans {
			k := supportKey{u.Statement, sp}
			if !support[k] {
				support[k] = true
				sum += w.Weight(u.Statement) * sp.Cost
			}
		}
	}
	rel := math.Abs(sum-rec.Cost) / math.Max(1, math.Abs(rec.Cost))
	r.check(label+": cost = weighted sum of chosen plans", rel < 1e-6,
		"cost %.6f, recomputed %.6f", rec.Cost, sum)
}
