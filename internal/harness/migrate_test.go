package harness_test

import (
	"math"
	"reflect"
	"testing"

	"nose/internal/baselines"
	"nose/internal/cost"
	"nose/internal/harness"
	"nose/internal/migrate"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/schema"
	"nose/internal/search"
)

// TestMigrateInstallsAndAdoptsRecommendation: a system born with an
// empty schema must, after one Migrate, hold the recommendation's
// column families (charged simulated time) and execute every
// transaction against them — the mid-run re-advising path the drift
// experiment exercises.
func TestMigrateInstallsAndAdoptsRecommendation(t *testing.T) {
	cfg := rubis.Config{Users: 200, Seed: 3}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := baselines.ExpertRUBiS(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := baselines.Recommend(w, pool, cost.Default(), planner.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	sys, err := harness.NewSystem("migrating", ds,
		&search.Recommendation{Schema: schema.NewSchema()}, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	// Before the migration the system has no plans: queries must fail.
	ps := rubis.NewParamSource(cfg, 1)
	if _, err := sys.ExecTransaction(txns[0].Statements, ps.Params(txns[0].Name)); err == nil {
		t.Fatal("empty system executed a transaction")
	}

	res, err := sys.Migrate(ds, &search.PhaseRecommendation{
		Rec:   rec,
		Build: rec.Schema.Indexes(),
	}, migrate.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	// The ledger is pinned exactly: the drift and online experiments
	// charge it as their migration column, so any change to how a
	// stop-the-world migration executes or is priced must show here.
	wantBuilt := []string{"users", "items", "categories", "items_by_category", "bids_by_item",
		"comments_by_user", "items_sold_by_user", "bids_by_user", "buynows_by_user",
		"olditems_by_user", "category_of_item"}
	if !reflect.DeepEqual(res.Built, wantBuilt) {
		t.Errorf("Built = %q, want %q", res.Built, wantBuilt)
	}
	if len(res.Built) != rec.Schema.Len() {
		t.Errorf("built %d of %d families", len(res.Built), rec.Schema.Len())
	}
	if res.Records != 1860 {
		t.Errorf("Records = %d, want 1860", res.Records)
	}
	if res.SimMillis != 498.3200000000018 {
		t.Errorf("SimMillis = %v, want 498.3200000000018", res.SimMillis)
	}

	// After the migration every transaction runs on the new schema.
	ps = rubis.NewParamSource(cfg, 1)
	for _, txn := range txns {
		if _, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name)); err != nil {
			t.Fatalf("%s after migration: %v", txn.Name, err)
		}
	}

	// A stop-the-world migration is a drained live one: it publishes
	// the harness.live.* set, and the gauge adds up to the ledger.
	reg := sys.Obs()
	for name, want := range map[string]int64{
		"harness.live.started":          1,
		"harness.live.cutovers":         1,
		"harness.live.completed":        1,
		"harness.live.backfill_records": int64(res.Records),
		"harness.live.faults":           0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("harness.live.sim_ms").Value(); math.Abs(got-res.SimMillis) > 1e-9 {
		t.Errorf("harness.live.sim_ms = %v, want %v", got, res.SimMillis)
	}
	if sys.LiveActive() {
		t.Error("Migrate returned with its live migration still attached")
	}
}
