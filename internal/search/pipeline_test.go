package search_test

import (
	"sort"
	"strings"
	"testing"
	"time"

	"nose/internal/obs"
	"nose/internal/search"
)

// TestTimingsMatchStageSpans: with a tracer attached, every Timings
// field is exactly the summed duration of its stage spans, and the
// stages add up to no more than the root span's Total — for Advise and
// for AdviseSeries alike.
func TestTimingsMatchStageSpans(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, opt search.Options) (search.Timings, error)
	}{
		{"advise", func(t *testing.T, opt search.Options) (search.Timings, error) {
			rec, err := search.Advise(hotelWorkload(t), opt)
			if err != nil {
				return search.Timings{}, err
			}
			return rec.Timings, nil
		}},
		{"advise-series", func(t *testing.T, opt search.Options) (search.Timings, error) {
			sr, err := search.AdviseSeries(loadPhasedHotel(t), opt)
			if err != nil {
				return search.Timings{}, err
			}
			return sr.Timings, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := seriesTestOptions()
			tr := obs.NewTracer()
			opt.Trace = tr
			got, err := tc.run(t, opt)
			if err != nil {
				t.Fatal(err)
			}
			var want search.Timings
			spans, _ := tr.EventsSince(0)
			for _, sp := range spans {
				d := time.Duration(sp.Dur) * time.Microsecond
				switch {
				case sp.Name == tc.name:
					want.Total += d
				case strings.HasPrefix(sp.Name, "enumerate"):
					want.Enumeration += d
				case strings.HasPrefix(sp.Name, "plan-spaces"):
					want.CostCalculation += d
				case strings.HasPrefix(sp.Name, "formulate"):
					want.BIPConstruction += d
				case strings.HasPrefix(sp.Name, "solve"):
					want.BIPSolving += d
				case strings.HasPrefix(sp.Name, "extract"):
					want.Other += d
				default:
					t.Errorf("unexpected span %q", sp.Name)
				}
			}
			if got != want {
				t.Errorf("timings %+v, stage spans sum to %+v", got, want)
			}
			stages := got.Enumeration + got.CostCalculation + got.BIPConstruction + got.BIPSolving + got.Other
			if stages > got.Total {
				t.Errorf("stages sum to %v, more than total %v", stages, got.Total)
			}
		})
	}
}

// TestAdviseAndSeriesPublishSameCounters: the static and the series
// advisor are one pipeline, so they publish the same search.* metric
// names.
func TestAdviseAndSeriesPublishSameCounters(t *testing.T) {
	names := func(reg *obs.Registry) []string {
		snap := reg.Snapshot()
		var out []string
		for name := range snap.Counters {
			if strings.HasPrefix(name, "search.") {
				out = append(out, name)
			}
		}
		for name := range snap.Gauges {
			if strings.HasPrefix(name, "search.") {
				out = append(out, name)
			}
		}
		sort.Strings(out)
		return out
	}

	opt := seriesTestOptions()
	opt.Obs = obs.NewRegistry()
	if _, err := search.Advise(hotelWorkload(t), opt); err != nil {
		t.Fatal(err)
	}
	advise := names(opt.Obs)

	opt.Obs = obs.NewRegistry()
	if _, err := search.AdviseSeries(loadPhasedHotel(t), opt); err != nil {
		t.Fatal(err)
	}
	series := names(opt.Obs)

	if strings.Join(advise, " ") != strings.Join(series, " ") {
		t.Errorf("metric names differ:\nadvise: %v\nseries: %v", advise, series)
	}
	for _, want := range []string{"search.candidates", "search.plan_variables", "search.constraints"} {
		if i := sort.SearchStrings(series, want); i == len(series) || series[i] != want {
			t.Errorf("series run does not publish %s", want)
		}
	}
}
