package search_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nose/internal/cost"
	"nose/internal/hotel"
	"nose/internal/nosedsl"
	"nose/internal/search"
	"nose/internal/workload"
)

// slowDSL builds a chain-model workload whose advise takes minutes:
// long query paths make candidate enumeration exponential and updates
// plus a tight space budget make the integer program hard. Cancel tests
// rely on it never finishing within a test run.
func slowDSL() string {
	const entities, queries = 10, 24
	var b strings.Builder
	for i := 0; i < entities; i++ {
		fmt.Fprintf(&b, "entity E%d E%dID 1000\n", i, i)
		fmt.Fprintf(&b, "attr E%d.A%d string cardinality 100\n", i, i)
		fmt.Fprintf(&b, "attr E%d.B%d integer cardinality 50\n", i, i)
	}
	for i := 0; i+1 < entities; i++ {
		fmt.Fprintf(&b, "rel E%d.Kids%d E%d.Parent%d one-to-many\n", i, i, i+1, i)
	}
	for q := 0; q < queries; q++ {
		start := q % (entities - 4)
		path := fmt.Sprintf("E%d", start+4)
		nav := fmt.Sprintf("E%d.Parent%d.Parent%d.Parent%d.Parent%d", start+4, start+3, start+2, start+1, start)
		fmt.Fprintf(&b, "stmt 0.1 Q%d: SELECT %s.A%d FROM %s WHERE %s.A%d = ?p%d AND %s.B%d > ?r%d\n",
			q, path, start+4, path, nav, start, q, path, start+4, q)
	}
	for i := 0; i < entities; i++ {
		fmt.Fprintf(&b, "stmt 0.2 U%d: UPDATE E%d SET A%d = ? WHERE E%d.E%dID = ?id%d\n", i, i, i, i, i, i)
	}
	return b.String()
}

func parseSlow(t *testing.T) *workload.Workload {
	t.Helper()
	_, w, err := nosedsl.Parse(slowDSL())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAdviseCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := hotel.Graph()
	w := workload.New(g)
	w.Add(workload.MustParseQuery(g, hotel.ExampleQuery), 1)
	if _, err := search.Advise(w, search.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := search.AdviseSeries(w, search.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("series err = %v, want context.Canceled", err)
	}
}

// TestAdviseCancelPrompt proves a cancelled solve returns quickly: the
// workload takes minutes uncancelled, the context fires at 100ms, and
// the advisor must be back within seconds no matter which stage —
// enumeration, planning, or branch and bound — the cancel lands in.
func TestAdviseCancelPrompt(t *testing.T) {
	w := parseSlow(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	type outcome struct {
		rec *search.Recommendation
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		rec, err := search.Advise(w, search.Options{
			Workers:          2,
			SpaceBudgetBytes: 2e6,
			Ctx:              ctx,
		})
		done <- outcome{rec, err}
	}()
	select {
	case out := <-done:
		if !errors.Is(out.err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", out.err)
		}
		if out.rec != nil {
			t.Fatal("cancelled advise returned a partial recommendation")
		}
		if d := time.Since(start); d > 30*time.Second {
			t.Fatalf("cancelled advise took %v to return", d)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("advise did not return after cancellation")
	}
}

// TestCancelLeavesCacheUsable pins the service contract: a cost cache
// shared with a cancelled run stays valid, and a later run over the same
// cache produces the exact recommendation of a cache-free run.
func TestCancelLeavesCacheUsable(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	for _, src := range []string{hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery} {
		w.Add(workload.MustParseQuery(g, src), 1)
	}
	for _, src := range hotel.UpdateStatements {
		st, err := workload.Parse(g, src)
		if err != nil {
			t.Fatal(err)
		}
		w.Add(st, 1)
	}

	pristine, err := search.Advise(w, search.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cache := cost.NewCache()
	opt := func(ctx context.Context) search.Options {
		o := search.Options{Ctx: ctx}
		o.Planner.Cache = cache
		return o
	}

	// Cancel immediately: the run dies somewhere in the pipeline having
	// possibly half-filled the cache.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := search.Advise(w, opt(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// And again mid-flight, for a non-empty partial fill.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	if _, err := search.Advise(w, opt(ctx2)); err == nil {
		t.Log("1ms advise finished before the deadline; cache fully warm")
	}

	rec, err := search.Advise(w, opt(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cost != pristine.Cost {
		t.Fatalf("cost after cancelled runs = %v, pristine = %v", rec.Cost, pristine.Cost)
	}
	if rec.Schema.String() != pristine.Schema.String() {
		t.Fatalf("schema after cancelled runs differs:\n%s\nvs pristine:\n%s", rec.Schema, pristine.Schema)
	}
}

// countingCtx counts its Err calls and reports context.Canceled from
// call limit+1 on; a negative limit never cancels.
type countingCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *countingCtx) Err() error {
	if n := c.calls.Add(1); c.limit >= 0 && n > c.limit {
		return context.Canceled
	}
	return nil
}

// TestAdviseCancelInPhase2 cancels an advise at its first check inside
// the second, family-minimizing solve: the context lets through exactly
// as many checks as a phase-1-only advise makes. The cancel must come
// back as the advise's error, not as the phase-1 recommendation.
func TestAdviseCancelInPhase2(t *testing.T) {
	w := loadDSL(t, "hotel.nose")
	opt := seriesTestOptions()
	opt.Workers = 1
	opt.SkipMinimizeSchema = true
	count := &countingCtx{Context: context.Background(), limit: -1}
	opt.Ctx = count
	if _, err := search.Advise(w, opt); err != nil {
		t.Fatal(err)
	}
	phase1 := count.calls.Load()

	opt.SkipMinimizeSchema = false
	opt.Ctx = &countingCtx{Context: context.Background(), limit: phase1}
	rec, err := search.Advise(w, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %d phase-1 checks, want context.Canceled", err, phase1)
	}
	if rec != nil {
		t.Fatal("cancelled advise returned a partial recommendation")
	}
}
