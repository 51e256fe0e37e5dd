package search_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nose/internal/hotel"
	"nose/internal/nosedsl"
	"nose/internal/planner"
	"nose/internal/search"
	"nose/internal/workload"

	"nose/internal/bip"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// seriesTestOptions keeps series solves small enough for tests while
// staying fully deterministic. The golden file is rendered under
// exactly these options; change them and the golden must be
// regenerated with -update.
func seriesTestOptions() search.Options {
	return search.Options{
		Planner:         planner.Config{MaxPlansPerQuery: 6},
		MaxSupportPlans: 4,
		BIP:             bip.Options{MaxNodes: 400},
	}
}

// loadDSL parses a workload shipped under the repository's testdata.
func loadDSL(t *testing.T, name string) *workload.Workload {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	_, w, err := nosedsl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// loadPhasedHotel parses the shipped three-phase hotel workload.
func loadPhasedHotel(t *testing.T) *workload.Workload {
	t.Helper()
	w := loadDSL(t, "hotel-phases.nose")
	if len(w.Phases) != 3 {
		t.Fatalf("expected 3 phases, got %d", len(w.Phases))
	}
	return w
}

// checkGolden compares got with the golden file at path, rewriting the
// file first when the test runs with -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// hotelWorkload builds the in-memory hotel fixture used by the static
// advisor tests.
func hotelWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	g := hotel.Graph()
	w := workload.New(g)
	for i, src := range []string{hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery} {
		q := workload.MustParseQuery(g, src)
		q.Label = string(rune('A' + i))
		w.Add(q, float64(i+1))
	}
	w.Add(workload.MustParse(g, hotel.UpdateStatements[0]), 0.5)
	w.Add(workload.MustParse(g, hotel.UpdateStatements[2]), 0.25)
	return w
}

// TestAdviseSeriesSinglePhaseMatchesAdvise: with zero or one phase
// there is no series decision to make, and AdviseSeries must be
// bit-identical to Advise — same schema bytes, same objective bits,
// same plan signatures and problem sizes — with no migration charged.
// A one-phase series over a declared mix must match Advise on that mix.
func TestAdviseSeriesSinglePhaseMatchesAdvise(t *testing.T) {
	for _, tc := range []struct {
		name string
		// load returns the workloads given to Advise and AdviseSeries.
		load func(t *testing.T) (advise, series *workload.Workload)
	}{
		{"no phases", func(t *testing.T) (*workload.Workload, *workload.Workload) {
			w := hotelWorkload(t)
			return w, w
		}},
		{"one phase", func(t *testing.T) (*workload.Workload, *workload.Workload) {
			w := hotelWorkload(t)
			w.AddPhase(&workload.Phase{Name: "only", Duration: 1})
			return w, w
		}},
		{"one mix phase", func(t *testing.T) (*workload.Workload, *workload.Workload) {
			w := loadDSL(t, "hotel-mixes.nose")
			w.ActiveMix = "booking"
			series := loadDSL(t, "hotel-mixes.nose")
			series.AddPhase(&workload.Phase{Name: "booking", Duration: 3, Mix: "booking"})
			return w, series
		}},
	} {
		aw, sw := tc.load(t)
		opt := seriesTestOptions()
		rec, err := search.Advise(aw, opt)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := search.AdviseSeries(sw, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Phases) != 1 {
			t.Fatalf("%s: got %d series entries", tc.name, len(sr.Phases))
		}
		pr := sr.Phases[0]
		if pr.Rec.Schema.String() != rec.Schema.String() {
			t.Errorf("%s: schemas differ:\n%s\nvs\n%s", tc.name, pr.Rec.Schema, rec.Schema)
		}
		if pr.Rec.Cost != rec.Cost {
			t.Errorf("%s: costs differ: %v vs %v", tc.name, pr.Rec.Cost, rec.Cost)
		}
		if sr.TotalCost != rec.Cost || sr.WorkloadCost != rec.Cost {
			t.Errorf("%s: series totals %v/%v != advise cost %v",
				tc.name, sr.WorkloadCost, sr.TotalCost, rec.Cost)
		}
		if sr.MigrationCost != 0 || pr.MigrationCost != 0 {
			t.Errorf("%s: migration charged on a degenerate series", tc.name)
		}
		if pr.Rec.Stats != rec.Stats || sr.Stats != rec.Stats {
			t.Errorf("%s: stats differ: %+v / %+v vs %+v", tc.name, pr.Rec.Stats, sr.Stats, rec.Stats)
		}
		if len(pr.Rec.Queries) != len(rec.Queries) {
			t.Fatalf("%s: query counts differ", tc.name)
		}
		for i := range rec.Queries {
			if pr.Rec.Queries[i].Plan.Signature() != rec.Queries[i].Plan.Signature() {
				t.Errorf("%s: plan %d differs", tc.name, i)
			}
		}
	}
}

// TestAdviseSeriesWorkerInvariance: the schema series — phase schemas,
// migration points, and every printed cost — must be byte-identical
// for 1, 4, and 8 workers.
func TestAdviseSeriesWorkerInvariance(t *testing.T) {
	var base string
	for _, workers := range []int{1, 4, 8} {
		opt := seriesTestOptions()
		opt.Workers = workers
		sr, err := search.AdviseSeries(loadPhasedHotel(t), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := sr.Format()
		if workers == 1 {
			base = out
			continue
		}
		if out != base {
			t.Errorf("workers=%d series differs from workers=1:\n%s\nvs\n%s", workers, out, base)
		}
	}
}

// TestAdviseSeriesGolden pins the printed per-phase schema series for
// the shipped hotel-phases workload. Regenerate with:
//
//	go test ./internal/search -run TestAdviseSeriesGolden -update
func TestAdviseSeriesGolden(t *testing.T) {
	sr, err := search.AdviseSeries(loadPhasedHotel(t), seriesTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "hotel-phases.golden"), []byte(sr.Format()))
}

// TestAdviseSeriesChargesInitialBuild: the first phase's installation
// is part of the objective, so the reported migration cost must cover
// every family of phase 0 — a free initial build would let the solver
// pre-install everything at t=0 and dodge all migration charges.
func TestAdviseSeriesChargesInitialBuild(t *testing.T) {
	sr, err := search.AdviseSeries(loadPhasedHotel(t), seriesTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	p0 := sr.Phases[0]
	if len(p0.Build) != p0.Rec.Schema.Len() {
		t.Errorf("phase 0 builds %d of %d families", len(p0.Build), p0.Rec.Schema.Len())
	}
	if p0.MigrationCost <= 0 {
		t.Errorf("phase 0 migration cost %v, want > 0", p0.MigrationCost)
	}
	if sr.MigrationCost < p0.MigrationCost {
		t.Errorf("series migration cost %v below phase 0's %v", sr.MigrationCost, p0.MigrationCost)
	}
	if sr.TotalCost != sr.WorkloadCost+sr.MigrationCost {
		t.Errorf("total %v != workload %v + migration %v", sr.TotalCost, sr.WorkloadCost, sr.MigrationCost)
	}
}
