package planner_test

import (
	"context"
	"strings"
	"testing"

	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/hotel"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/workload"
)

// fixture enumerates candidates for the given statements and returns a
// planner over the pool.
func fixture(t *testing.T, w *workload.Workload) (*planner.Planner, *enumerator.Result) {
	t.Helper()
	res, err := enumerator.EnumerateWorkloadCtx(context.Background(), w, enumerator.Features{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return planner.New(res.Pool, cost.Default(), planner.DefaultConfig()), res
}

func TestPlanSpaceFigureSix(t *testing.T) {
	// Reproduces paper Fig. 6: the relaxed prefix query over Room.Hotel
	// has (at least) the three plan shapes the paper shows.
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.PrefixQuery)
	w.Add(q, 1)
	p, _ := fixture(t, w)

	ps, err := p.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Plans) < 3 {
		t.Fatalf("plan space too small: %d plans", len(ps.Plans))
	}

	var haveMV, haveThreeHop, haveTwoHop bool
	for _, pl := range ps.Plans {
		lookups := 0
		hasFilter := false
		var first *planner.LookupStep
		for _, s := range pl.Steps {
			switch st := s.(type) {
			case *planner.LookupStep:
				if lookups == 0 {
					first = st
				}
				lookups++
			case *planner.FilterStep:
				hasFilter = true
			}
		}
		// Plan 1: single lookup on the materialized view, range pushed.
		if lookups == 1 && first.RangePredicate != nil && !hasFilter {
			haveMV = true
		}
		// Plan 2: city->hotels, hotels->rooms, rooms->rate, filter.
		if lookups == 3 && hasFilter {
			haveThreeHop = true
		}
		// Plan 3: city->rooms (relaxed), rooms->rate, filter.
		if lookups == 2 && hasFilter {
			haveTwoHop = true
		}
	}
	if !haveMV {
		t.Error("missing single-lookup materialized view plan (Fig. 6 plan 1)")
	}
	if !haveThreeHop {
		t.Error("missing three-hop plan (Fig. 6 plan 2)")
	}
	if !haveTwoHop {
		t.Error("missing two-hop relaxed plan (Fig. 6 plan 3)")
	}

	// The cheapest plan must be the single-lookup materialized view.
	best := ps.Plans[0]
	if got := len(best.Indexes()); got != 1 {
		t.Errorf("cheapest plan uses %d indexes:\n%s", got, best)
	}
}

func TestPlanCostsOrderedAndPositive(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	w.Add(q, 1)
	p, _ := fixture(t, w)

	ps, err := p.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for _, pl := range ps.Plans {
		if pl.Cost <= 0 {
			t.Errorf("plan with non-positive cost: %s", pl)
		}
		if pl.Cost < last {
			t.Error("plans not sorted by cost")
		}
		last = pl.Cost
	}
}

func TestPlanSpaceDeduplicated(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	w.Add(q, 1)
	p, _ := fixture(t, w)
	ps, _ := p.PlanQuery(q)
	seen := map[string]bool{}
	for _, pl := range ps.Plans {
		if seen[pl.Signature()] {
			t.Errorf("duplicate plan %s", pl.Signature())
		}
		seen[pl.Signature()] = true
	}
}

func TestOrderServedByClustering(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g,
		`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c ORDER BY Room.RoomNumber`)
	w.Add(q, 1)
	p, _ := fixture(t, w)

	ps, err := p.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var haveServed, haveSorted bool
	for _, pl := range ps.Plans {
		usesSort := false
		servedOrder := false
		for _, s := range pl.Steps {
			if _, ok := s.(*planner.SortStep); ok {
				usesSort = true
			}
			if ls, ok := s.(*planner.LookupStep); ok && ls.ServesOrder {
				servedOrder = true
			}
		}
		if servedOrder && !usesSort {
			haveServed = true
		}
		if usesSort {
			haveSorted = true
		}
	}
	if !haveServed {
		t.Error("no plan serves ORDER BY from clustering")
	}
	if !haveSorted {
		t.Error("no plan sorts client-side")
	}
	// The served plan should be cheaper than an equivalent that sorts.
	best := ps.Plans[0]
	for _, s := range best.Steps {
		if _, ok := s.(*planner.SortStep); ok {
			t.Errorf("cheapest plan sorts client-side:\n%s", best)
		}
	}
}

func TestLimitPropagates(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g,
		`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c ORDER BY Room.RoomNumber LIMIT 10`)
	w.Add(q, 1)
	p, _ := fixture(t, w)
	ps, err := p.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range ps.Plans {
		if pl.Rows > 10 {
			t.Errorf("plan returns %.0f rows despite LIMIT 10:\n%s", pl.Rows, pl)
		}
	}
}

func TestNoEqualityPredicateRejected(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.PrefixQuery)
	w.Add(q, 1)
	p, _ := fixture(t, w)
	bad := workload.MustParseQuery(g, `SELECT Room.RoomNumber FROM Room WHERE Room.RoomRate > ?`)
	if _, err := p.PlanQuery(bad); err == nil {
		t.Error("expected error for range-only query")
	}
}

func TestPlanDescribeOutput(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	q.Label = "GuestsByCity"
	w.Add(q, 1)
	p, _ := fixture(t, w)
	ps, _ := p.PlanQuery(q)
	out := ps.Plans[0].String()
	if !strings.Contains(out, "GuestsByCity") || !strings.Contains(out, "lookup") {
		t.Errorf("plan rendering unexpected:\n%s", out)
	}
}

func TestPlanSpaceBestWithFilter(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.PrefixQuery)
	w.Add(q, 1)
	p, _ := fixture(t, w)
	ps, _ := p.PlanQuery(q)

	all := ps.Best(nil)
	if all != ps.Plans[0] {
		t.Error("Best(nil) should return the cheapest plan")
	}
	// Exclude the cheapest plan's indexes; Best must return another.
	banned := map[string]bool{}
	for _, x := range all.Indexes() {
		banned[x.ID()] = true
	}
	alt := ps.Best(func(x *schema.Index) bool { return !banned[x.ID()] })
	if alt == nil {
		t.Fatal("Best found no alternative plan")
	}
	if alt == all {
		t.Error("Best returned a plan using banned indexes")
	}
	for _, x := range alt.Indexes() {
		if banned[x.ID()] {
			t.Errorf("alternative plan still uses banned index %s", x)
		}
	}
}
