package search

import (
	"fmt"

	"nose/internal/bip"
	"nose/internal/enumerator"
	"nose/internal/migrate"
	"nose/internal/planner"
	"nose/internal/workload"
)

// BuildPlans runs the plan-space generation stage alone — everything
// newBuilder does: planning every query, every update's maintenance,
// and every support-query group. It exists so benchmarks can measure
// this stage separately from enumeration and solving.
func BuildPlans(w *workload.Workload, enumRes *enumerator.Result, opt Options) error {
	opt = opt.withDefaults()
	pl := planner.New(enumRes.Pool, opt.CostModel, opt.Planner)
	_, err := newBuilder(w, pl, enumRes, opt)
	return err
}

// Prepared is a planned and formulated advisor problem: Prepare runs
// the plan-space and formulation stages, Solve the solver stages.
// Advise and AdviseSeries run exactly these stages, so benchmarks can
// time each one alone; Solve can be run repeatedly.
type Prepared struct {
	opt       Options
	phases    []*workload.Phase // nil for a workload advised as a whole
	builders  []*builder        // one per phase
	shares    []float64         // each phase's share of the timeline
	mig       migrate.CostParams
	form      *formulation
	incumbent []float64
	timings   *Timings
	stats     *Stats
}

// Prepare plans the workload and formulates its program, as Advise
// does.
func Prepare(w *workload.Workload, enumRes *enumerator.Result, opt Options) (*Prepared, error) {
	return prepare(opt.withDefaults(), w, nil, enumRes, &Timings{}, &Stats{})
}

// prepare plans every phase of w (w itself when phases is empty) with
// one planner and formulates the joint program with its greedy
// incumbent, adding the stage times to t and the program's size to
// stats.
func prepare(opt Options, w *workload.Workload, phases []*workload.Phase, enumRes *enumerator.Result, t *Timings, stats *Stats) (*Prepared, error) {
	p := &Prepared{opt: opt, phases: phases, mig: opt.Migration, timings: t, stats: stats}
	if p.mig == (migrate.CostParams{}) {
		p.mig = migrate.DefaultCostParams()
	}
	views := []*workload.Workload{w}
	p.shares = []float64{1}
	if len(phases) > 0 {
		views, p.shares = nil, nil
		total := w.TotalDuration()
		for _, ph := range phases {
			views = append(views, w.ForPhase(ph))
			p.shares = append(p.shares, ph.EffectiveDuration()/total)
		}
	}

	// One planner (and one cost cache) across all phases: schema.Index
	// pointers are shared, so column family identity — and naming — is
	// stable across the series.
	st := opt.stage("plan-spaces", &t.CostCalculation)
	pl := planner.New(enumRes.Pool, opt.CostModel, opt.Planner)
	for i, view := range views {
		b, err := newBuilder(view, pl, enumRes, opt)
		if err != nil {
			st.End()
			return nil, p.phaseErr(i, err)
		}
		// Presence is never free across phases: a family present in one
		// phase but not the previous one is charged its build.
		b.paidAll = len(views) > 1
		p.builders = append(p.builders, b)
	}
	st.End()

	st = opt.stage("formulate", &t.BIPConstruction)
	p.form = p.formulate(nil)
	p.incumbent = p.form.greedyIncumbent(p.builders)
	for _, refs := range p.form.refs {
		stats.PlanVariables += len(refs.planCols)
	}
	stats.Constraints = p.form.prog.NumRows()
	st.SetArg("plan_variables", stats.PlanVariables).SetArg("constraints", stats.Constraints)
	st.End()
	return p, nil
}

// phaseErr names the phase an error came from when there are several.
func (p *Prepared) phaseErr(i int, err error) error {
	if len(p.phases) > 1 {
		return fmt.Errorf("search: phase %q: %w", p.phases[i].Name, err)
	}
	return err
}

// Solve runs the solver stages exactly as Advise does.
func (p *Prepared) Solve() error {
	_, err := p.solve()
	return err
}

// solution is the outcome of the solver stages: the chosen assignment,
// the formulation it solves, and the first solve's objective.
type solution struct {
	res  *bip.Result
	form *formulation
	cost float64
}

// solve minimizes the formulated objective. A single phase then, unless
// SkipMinimizeSchema is set, re-solves with the cost pinned to that
// optimum to keep the fewest paid column families (paper §V). A series
// keeps the first solve's assignment literally: with migration charges
// in the objective gratuitous families already cost their build, and
// the migrations reported are exactly the ones the objective charged.
func (p *Prepared) solve() (*solution, error) {
	opts := p.opt.BIP
	opts.Incumbent = p.incumbent
	st := p.opt.stage("solve phase 1", &p.timings.BIPSolving)
	res, err := p.form.prog.Solve(opts)
	if err != nil {
		st.End()
		return nil, fmt.Errorf("search: phase 1 solve: %w", err)
	}
	st.SetArg("nodes", res.Nodes)
	st.End()
	if !res.HasSolution {
		return nil, fmt.Errorf("search: phase 1 %v: no feasible schema", res.Status)
	}
	p.stats.Nodes += res.Nodes
	sol := &solution{res: res, form: p.form, cost: res.Objective}
	if len(p.builders) > 1 || p.opt.SkipMinimizeSchema {
		return sol, nil
	}

	st = p.opt.stage("formulate phase 2", &p.timings.BIPConstruction)
	pin := res.Objective
	form2 := p.formulate(&pin)
	st.End()
	opts.Incumbent = res.X
	st = p.opt.stage("solve phase 2", &p.timings.BIPSolving)
	res2, err := form2.prog.Solve(opts)
	st.End()
	if err != nil {
		return nil, fmt.Errorf("search: phase 2 solve: %w", err)
	}
	if res2.HasSolution {
		sol.res, sol.form = res2, form2
		p.stats.Nodes += res2.Nodes
	}
	return sol, nil
}
