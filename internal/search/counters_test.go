package search_test

import (
	"fmt"
	"testing"

	"nose/internal/obs"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/workload"
)

// TestSolverWorkCounters pins the solver's deterministic work counters
// for one advise each of RUBiS bidding and the shipped hotel workload,
// at one and four workers. The counts are pure functions of the
// program, so a solver change that claims to leave every pivot and node
// as it was (a faster refactorization, say) must leave them exact.
func TestSolverWorkCounters(t *testing.T) {
	rubisBidding := func(t *testing.T) *workload.Workload {
		w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		w.ActiveMix = rubis.MixBidding
		return w
	}
	hotelDSL := func(t *testing.T) *workload.Workload { return loadDSL(t, "hotel.nose") }
	type counts struct {
		pivots, refactors, degenerate, dual, warm, nodes int64
	}
	for _, tc := range []struct {
		name string
		load func(*testing.T) *workload.Workload
		want counts
	}{
		{name: "rubis-bidding", load: rubisBidding, want: counts{pivots: 368, refactors: 30, degenerate: 295, dual: 29, warm: 16, nodes: 26}},
		{name: "hotel", load: hotelDSL, want: counts{pivots: 142, refactors: 48, degenerate: 48, dual: 82, warm: 29, nodes: 46}},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opt := seriesTestOptions()
				opt.Workers = workers
				opt.Obs = obs.NewRegistry()
				if _, err := search.Advise(tc.load(t), opt); err != nil {
					t.Fatal(err)
				}
				c := opt.Obs.Snapshot().Counters
				got := counts{
					pivots:     c["lp.pivots"],
					refactors:  c["lp.refactors"],
					degenerate: c["lp.degenerate_pivots"],
					dual:       c["lp.dual_pivots"],
					warm:       c["lp.warm_starts"],
					nodes:      c["bip.nodes"],
				}
				if got != tc.want {
					t.Errorf("counters = %+v, want %+v", got, tc.want)
				}
			})
		}
	}
}
