package search_test

import (
	"path/filepath"
	"testing"

	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/service/api"
	"nose/internal/workload"
)

// TestAdviseAPIGolden pins the canonical wire encoding (package api,
// the bytes nose -json and nosed return) of static and series advises.
// The cases cover free-family elision and the minimize-schema phase
// (hotel and its two mixes), support groups (RUBiS bidding), budget
// cuts (RUBiS write100 under a space budget) and migration links (the
// phased hotel series). The encoding includes stats, so the goldens
// also pin the size of each program. Regenerate with:
//
//	go test ./internal/search -run TestAdviseAPIGolden -update
func TestAdviseAPIGolden(t *testing.T) {
	dsl := func(name, mix string) func(*testing.T) *workload.Workload {
		return func(t *testing.T) *workload.Workload {
			w := loadDSL(t, name)
			if mix != "" {
				w.ActiveMix = mix
			}
			return w
		}
	}
	rubisMix := func(mix string) func(*testing.T) *workload.Workload {
		return func(t *testing.T) *workload.Workload {
			w, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
			if err != nil {
				t.Fatal(err)
			}
			w.ActiveMix = mix
			return w
		}
	}
	for _, tc := range []struct {
		name   string
		load   func(*testing.T) *workload.Workload
		budget float64
		series bool
	}{
		{name: "hotel", load: dsl("hotel.nose", "")},
		{name: "hotel-mixes-browse", load: dsl("hotel-mixes.nose", "browse")},
		{name: "hotel-mixes-booking", load: dsl("hotel-mixes.nose", "booking")},
		{name: "rubis-bidding", load: rubisMix(rubis.MixBidding)},
		{name: "rubis-write100-budget", load: rubisMix(rubis.MixWrite100), budget: 14e6},
		{name: "hotel-phases-series", load: dsl("hotel-phases.nose", ""), series: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.load(t)
			opt := seriesTestOptions()
			opt.SpaceBudgetBytes = tc.budget
			var v any
			if tc.series {
				sr, err := search.AdviseSeries(w, opt)
				if err != nil {
					t.Fatal(err)
				}
				v = api.Series(w, sr)
			} else {
				rec, err := search.Advise(w, opt)
				if err != nil {
					t.Fatal(err)
				}
				v = api.Advise(w, rec)
			}
			got, err := api.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", tc.name+".api.golden"), got)
		})
	}
}
