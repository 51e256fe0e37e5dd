package search

import (
	"fmt"
	"sort"
	"strings"

	"nose/internal/migrate"
	"nose/internal/schema"
	"nose/internal/workload"
)

// PhaseRecommendation is one interval of a schema series: the phase,
// its full single-workload recommendation, and the migration entering
// the phase.
type PhaseRecommendation struct {
	// Phase is the workload interval; nil when the input workload had
	// no phases.
	Phase *workload.Phase
	// Rec is the phase's schema and plans. Rec.Cost is the phase's
	// weighted workload cost (unscaled by duration), comparable to what
	// Advise on the phase's workload alone would report.
	Rec *Recommendation
	// Build and Drop are the column families the migration entering
	// this phase must build and may drop, relative to the previous
	// phase's schema. The first phase builds its entire schema.
	Build, Drop []*schema.Index
	// MigrationCost is the estimated charge for Build under the
	// migration cost parameters. Drops are free.
	MigrationCost float64
}

// SeriesRecommendation is the advisor's output for a time-dependent
// workload: one recommendation per phase plus the migration schedule
// linking them.
type SeriesRecommendation struct {
	// Phases holds one entry per workload phase, in timeline order.
	Phases []*PhaseRecommendation
	// WorkloadCost is the duration-weighted workload cost across the
	// timeline: sum over phases of share·Rec.Cost.
	WorkloadCost float64
	// MigrationCost totals the estimated build charges, including the
	// first phase's initial installation — pre-building every family up
	// front is priced the same as building it later, so the solver has
	// no free lunch.
	MigrationCost float64
	// TotalCost is WorkloadCost + MigrationCost: the solver's joint
	// objective.
	TotalCost float64
	// Timings aggregates stage times across the whole series run.
	Timings Timings
	// Stats aggregates problem sizes across all phases.
	Stats Stats
}

// AdviseSeries solves the multi-interval schema problem for a workload
// with phases (paper extension: Wakuta & Mior et al., "NoSQL Schema
// Design for Time-Dependent Workloads"). It runs Advise's pipeline over
// every phase at once: candidates are enumerated once over the union of
// all phases; each phase then gets its own plan spaces and its own
// presence and plan-choice variables in one joint BIP, with objective
// coefficients scaled by the phase's share of the timeline and adjacent
// phases linked by migration variables priced at the estimated cost of
// building each column family (see formulate). Minimizing workload cost
// plus migration charges decides both the per-phase schemas and when
// changing them pays for itself.
//
// A workload with zero or one phase is the static problem Advise
// solves, so the result is bit-identical to the single-schema advisor
// and no migration is charged (there is no series decision for it to
// influence). Like Advise, the result is bit-identical for every worker
// count.
func AdviseSeries(w *workload.Workload, opt Options) (*SeriesRecommendation, error) {
	if err := w.ValidatePhases(); err != nil {
		return nil, err
	}
	return advise("advise-series", w, w.Phases, opt)
}

// unionWorkload flattens a phased workload to the statements active in
// any phase, each at its maximum phase weight. Statement values are
// shared with the input so enumeration results key correctly against
// the per-phase workloads.
func unionWorkload(w *workload.Workload) *workload.Workload {
	u := workload.New(w.Graph)
	for _, ws := range w.Statements {
		maxW := 0.0
		for _, p := range w.Phases {
			if pw := w.PhaseWeight(ws, p); pw > maxW {
				maxW = pw
			}
		}
		u.Statements = append(u.Statements, &workload.WeightedStatement{
			Statement: ws.Statement,
			Weight:    maxW,
		})
	}
	return u
}

// extract decodes the chosen solution into one recommendation per phase
// and the migrations between them, accumulating per-phase costs in
// column order so the reported numbers are bit-identical across runs
// and worker counts. A single phase reports the first solve's objective
// as its cost and the run's statistics, and charges no migration: its
// program has no migration links.
func (p *Prepared) extract(sol *solution, sr *SeriesRecommendation) error {
	phaseCost := make([]float64, len(p.builders))
	for col, raw := range sol.form.colRaw {
		if sol.res.X[col] >= 0.5 {
			phaseCost[sol.form.colPhase[col]] += raw
		}
	}

	var prevSchema *schema.Schema
	for t, b := range p.builders {
		rec := &Recommendation{Cost: phaseCost[t]}
		if err := b.extract(sol.res, sol.form.refs[t], rec); err != nil {
			return p.phaseErr(t, err)
		}
		pr := &PhaseRecommendation{Rec: rec}
		pr.Build, pr.Drop = migrate.Diff(prevSchema, rec.Schema)
		if t < len(p.phases) {
			pr.Phase = p.phases[t]
		}
		if len(p.builders) == 1 {
			rec.Cost, rec.Stats = sol.cost, *p.stats
		} else {
			pr.MigrationCost = migrate.EstimatedCost(pr.Build, p.mig)
		}
		sr.Phases = append(sr.Phases, pr)
		sr.WorkloadCost += p.shares[t] * rec.Cost
		sr.MigrationCost += pr.MigrationCost
		prevSchema = rec.Schema
	}
	sr.TotalCost = sr.WorkloadCost + sr.MigrationCost
	return nil
}

// Format renders the schema series as the nose CLI prints it: one block
// per phase with its migration points, schema, and costs, followed by
// the series totals.
func (sr *SeriesRecommendation) Format() string {
	var b strings.Builder
	for i, pr := range sr.Phases {
		name := "workload"
		dur := 1.0
		if pr.Phase != nil {
			name = pr.Phase.Name
			dur = pr.Phase.EffectiveDuration()
		}
		fmt.Fprintf(&b, "phase %d: %s (duration %g)\n", i, name, dur)
		if len(pr.Build) > 0 {
			fmt.Fprintf(&b, "  build: %s\n", indexNames(pr.Build))
		}
		if len(pr.Drop) > 0 {
			fmt.Fprintf(&b, "  drop:  %s\n", indexNames(pr.Drop))
		}
		fmt.Fprintf(&b, "  migration cost: %.3f\n", pr.MigrationCost)
		fmt.Fprintf(&b, "  workload cost:  %.3f\n", pr.Rec.Cost)
		fmt.Fprintf(&b, "  schema (%d column families):\n", pr.Rec.Schema.Len())
		for _, line := range strings.Split(strings.TrimRight(pr.Rec.Schema.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	fmt.Fprintf(&b, "series: workload cost %.3f + migration cost %.3f = total %.3f\n",
		sr.WorkloadCost, sr.MigrationCost, sr.TotalCost)
	return b.String()
}

func indexNames(xs []*schema.Index) string {
	names := make([]string, len(xs))
	for i, x := range xs {
		names[i] = x.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
