package planner

import (
	"context"
	"testing"

	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/hotel"
	"nose/internal/schema"
	"nose/internal/workload"
)

func TestPathCoversSegment(t *testing.T) {
	g := hotel.Graph()
	full, _ := g.ResolvePath([]string{"Guest", "Reservations", "Room", "Hotel"})
	seg, _ := g.ResolvePath([]string{"Room", "Hotel"})
	revSeg := seg.Reverse()

	if !pathCoversSegment(full, seg) {
		t.Error("full path should cover its sub-segment")
	}
	if !pathCoversSegment(full, revSeg) {
		t.Error("edge direction must not matter")
	}
	if !pathCoversSegment(seg, seg) {
		t.Error("a path covers itself")
	}

	// A different relationship over the same entities is not covered.
	bids, _ := g.ResolvePath([]string{"Guest", "Reservations"})
	poi, _ := g.ResolvePath([]string{"Hotel", "PointsOfInterest"})
	if pathCoversSegment(bids, poi) {
		t.Error("disjoint relationships should not cover")
	}

	// Entity containment matters even for zero-edge segments.
	hotelOnly, _ := g.ResolvePath([]string{"Hotel"})
	if pathCoversSegment(bids, hotelOnly) {
		t.Error("segment entity off the family path should not cover")
	}
	if !pathCoversSegment(full, hotelOnly) {
		t.Error("zero-edge segment on the path should cover")
	}
}

func TestEstimateMonotonicInDrivingRows(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	w.Add(q, 1)
	res, err := enumerator.EnumerateWorkloadCtx(context.Background(), w, enumerator.Features{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := New(res.Pool, cost.Default(), DefaultConfig())
	space, err := p.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// Within one plan space, a plan with strictly more lookup steps on
	// the same data should not be cheaper than the single-lookup
	// optimum.
	best := space.Plans[0]
	for _, pl := range space.Plans[1:] {
		if pl.Cost < best.Cost {
			t.Fatalf("plan ordering violated: %v < %v", pl.Cost, best.Cost)
		}
	}
}

func TestPruneChainsKeepsCheapest(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	w.Add(q, 1)
	res, err := enumerator.EnumerateWorkloadCtx(context.Background(), w, enumerator.Features{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := New(res.Pool, cost.Default(), Config{MaxPlansPerQuery: 2})
	memo := newChainMemo()
	chains := p.chains(q, memo)
	if len(chains) > 4*2 {
		t.Errorf("chains not pruned to beam: %d", len(chains))
	}
	if len(chains) == 0 {
		t.Fatal("no chains")
	}
	// The cheapest chain must include the single-lookup materialized
	// view plan.
	first := p.estimate(q, chains[0])
	if len(first.Indexes()) != 1 {
		t.Errorf("cheapest chain is not the single-lookup view:\n%s", first)
	}
}

func TestEnrichBetterOrdering(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	w.Add(q, 1)
	res, _ := enumerator.EnumerateWorkloadCtx(context.Background(), w, enumerator.Features{}, 1, nil)
	guest := g.MustEntity("Guest")
	// Among pool candidates keyed by GuestID, the tightest (fanout 1)
	// must win enrichBetter against any wider one.
	var best *schema.Index
	for _, x := range res.Pool.Indexes() {
		if len(x.Partition) == 1 && x.Partition[0] == guest.Key() {
			if best == nil || enrichBetter(x, best, guest) {
				best = x
			}
		}
	}
	if best == nil {
		t.Fatal("no GuestID-keyed candidate")
	}
	if got := best.EntityFanout(guest); got != 1 {
		t.Errorf("best enrich candidate has fanout %v, want 1", got)
	}
}
