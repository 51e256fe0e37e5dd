package planner_test

import (
	"context"
	"math"
	"testing"

	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/hotel"
	"nose/internal/planner"
	"nose/internal/workload"
)

// hotelQueries builds a workload with several hotel-schema queries that
// share plan structure, giving the cost cache something to hit.
func hotelQueries(t *testing.T) (*workload.Workload, []*workload.Query) {
	t.Helper()
	g := hotel.Graph()
	w := workload.New(g)
	qs := []*workload.Query{
		workload.MustParseQuery(g, hotel.ExampleQuery),
		workload.MustParseQuery(g, hotel.PrefixQuery),
		workload.MustParseQuery(g,
			`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c ORDER BY Room.RoomNumber`),
	}
	for _, q := range qs {
		w.Add(q, 1)
	}
	return w, qs
}

// TestCachedPlansIdentical: with and without the cache, every query
// must produce bit-identical plan spaces — signatures, costs, and rows.
func TestCachedPlansIdentical(t *testing.T) {
	w, qs := hotelQueries(t)
	res, err := enumerator.EnumerateWorkloadCtx(context.Background(), w, enumerator.Features{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := planner.New(res.Pool, cost.Default(), planner.DefaultConfig())

	cfg := planner.DefaultConfig()
	cfg.Cache = cost.NewCache()
	warmed := planner.New(res.Pool, cost.Default(), cfg)

	// Two passes over the cached planner: the second is served largely
	// from the cache and must still agree with the uncached baseline.
	for pass := 0; pass < 2; pass++ {
		for _, q := range qs {
			want, err := cold.PlanQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := warmed.PlanQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Plans) != len(want.Plans) {
				t.Fatalf("pass %d %s: %d plans vs %d", pass, workload.Label(q), len(got.Plans), len(want.Plans))
			}
			for i := range got.Plans {
				g, wnt := got.Plans[i], want.Plans[i]
				if g.Signature() != wnt.Signature() {
					t.Fatalf("pass %d %s plan %d: signature %q vs %q",
						pass, workload.Label(q), i, g.Signature(), wnt.Signature())
				}
				if math.Float64bits(g.Cost) != math.Float64bits(wnt.Cost) ||
					math.Float64bits(g.Rows) != math.Float64bits(wnt.Rows) {
					t.Fatalf("pass %d %s plan %d: cost/rows %v/%v vs %v/%v",
						pass, workload.Label(q), i, g.Cost, g.Rows, wnt.Cost, wnt.Rows)
				}
			}
		}
	}

	st := cfg.Cache.Stats()
	if st.Entries == 0 {
		t.Fatal("cache never populated")
	}
	if st.Hits == 0 {
		t.Fatalf("second planning pass produced no cache hits: %+v", st)
	}
}

// TestCacheSharedAcrossPlanners: a cache outlives one Planner, serving
// a second planner over the same pool from warm entries.
func TestCacheSharedAcrossPlanners(t *testing.T) {
	w, qs := hotelQueries(t)
	res, err := enumerator.EnumerateWorkloadCtx(context.Background(), w, enumerator.Features{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := planner.DefaultConfig()
	cfg.Cache = cost.NewCache()

	first := planner.New(res.Pool, cost.Default(), cfg)
	for _, q := range qs {
		if _, err := first.PlanQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	afterFirst := cfg.Cache.Stats()

	second := planner.New(res.Pool, cost.Default(), cfg)
	for _, q := range qs {
		if _, err := second.PlanQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	afterSecond := cfg.Cache.Stats()
	if afterSecond.Hits <= afterFirst.Hits {
		t.Fatalf("second planner hit nothing: %+v -> %+v", afterFirst, afterSecond)
	}
	if afterSecond.Entries != afterFirst.Entries {
		t.Fatalf("second planner over the same pool added entries: %+v -> %+v", afterFirst, afterSecond)
	}
}
