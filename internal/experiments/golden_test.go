package experiments_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nose/internal/bip"
	"nose/internal/drift"
	"nose/internal/experiments"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/search"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// smokeBase is the experiment shape the CI online smoke runs:
// `nosebench -users 200 -executions 24 -phases 3 -max-plans 8
// -max-nodes 30` with the CLI's remaining advisor defaults.
func smokeBase() experiments.Fig11Config {
	return experiments.Fig11Config{
		RUBiS:      rubis.Config{Users: 200, Seed: 1},
		Executions: 24,
		Advisor: search.Options{
			Workers:         1,
			Planner:         planner.Config{MaxPlansPerQuery: 8},
			MaxSupportPlans: 6,
			BIP:             bip.Options{MaxNodes: 30},
		},
	}
}

// checkGolden compares got with the golden file at path, rewriting the
// file first when the test runs with -update.
func checkGolden(t *testing.T, path string, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestOnlineGolden pins the online table at the CI smoke shape, node
// faulted rows included: the once, oracle and static columns install
// their schemas through harness.Migrate, the online column through a
// live migration under the same fault weather.
//
//	go test ./internal/experiments -run TestOnlineGolden -update
func TestOnlineGolden(t *testing.T) {
	res, err := experiments.RunOnline(experiments.OnlineConfig{
		Base:          smokeBase(),
		Rates:         []float64{0, 1},
		Phases:        3,
		Seed:          7,
		FaultRate:     experiments.DefaultOnlineFaultRate,
		PenaltyMillis: experiments.DefaultOnlinePenaltyMillis,
		Detector:      drift.Config{WindowStatements: 20, ConfirmWindows: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "online.golden"), res.Format())
}
