package experiments_test

import (
	"reflect"
	"strings"
	"testing"

	"nose/internal/drift"
	"nose/internal/experiments"
	"nose/internal/rubis"
)

func onlineTestConfig(workers int) experiments.OnlineConfig {
	opts := fastOptions()
	opts.Workers = workers
	return experiments.OnlineConfig{
		Base: experiments.Fig11Config{
			RUBiS:      rubis.Config{Users: 200, Seed: 1},
			Executions: 40,
			Advisor:    opts,
		},
		Rates:     []float64{0, 1},
		Phases:    3,
		Seed:      7,
		FaultRate: experiments.DefaultOnlineFaultRate,
		// A small window with no cooldown so the short test schedule
		// closes enough windows to trigger.
		Detector: drift.Config{WindowStatements: 25, ConfirmWindows: 1, CooldownWindows: -1},
	}
}

// TestRunOnlineDeterministicSweep: the online sweep — drift detection,
// re-advising, live migration with dual writes, node-faulted rows — must
// reproduce bit for bit from its config and seed, and be byte-identical
// at any advisor worker count. Its Format output is the fingerprint the
// CI determinism smoke compares.
func TestRunOnlineDeterministicSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	res, err := experiments.RunOnline(onlineTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// 2 rates x (clean, faulted) rows.
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, name := range experiments.OnlineStrategies {
			cell, ok := row.Cells[name]
			if !ok {
				t.Fatalf("rate %g faulted=%t: missing %s cell", row.Rate, row.Faulted, name)
			}
			if cell.WorkloadMillis <= 0 {
				t.Errorf("rate %g faulted=%t %s: no workload time", row.Rate, row.Faulted, name)
			}
			if cell.MigrationMillis <= 0 || cell.Migrations < 1 || cell.FamiliesBuilt < 1 {
				t.Errorf("rate %g faulted=%t %s: initial installation not charged: %+v",
					row.Rate, row.Faulted, name, cell)
			}
			if cell.TotalMillis() != cell.WorkloadMillis+cell.MigrationMillis+cell.PenaltyMillis {
				t.Errorf("rate %g faulted=%t %s: total is not workload+migration+penalty", row.Rate, row.Faulted, name)
			}
		}
	}

	// At rate 0 the workload never drifts: the detector must not fire,
	// the online strategy must keep its initial schema, re-advising per
	// phase must change nothing, and the average workload is the
	// phase-0 workload, so static serves exactly what once serves.
	for _, row := range res.Rows[:2] {
		online := row.Cells["online"]
		if online.Triggers != 0 || online.Migrations != 1 {
			t.Errorf("rate 0 faulted=%t: %d triggers, %d migrations; want 0 and 1 (initial only)",
				row.Faulted, online.Triggers, online.Migrations)
		}
		if oracle := row.Cells["oracle"]; oracle.Migrations != 1 {
			t.Errorf("rate 0 faulted=%t: oracle made %d migrations, want only the initial installation",
				row.Faulted, oracle.Migrations)
		}
		if !reflect.DeepEqual(row.Cells["static"], row.Cells["once"]) {
			t.Errorf("rate 0 faulted=%t: static %+v differs from once %+v",
				row.Faulted, row.Cells["static"], row.Cells["once"])
		}
	}

	// At full drift the detector must notice and act: the online loop
	// re-advises at least once and beats advise-once on total cost.
	for _, row := range res.Rows[2:] {
		online, once := row.Cells["online"], row.Cells["once"]
		if online.Triggers < 1 {
			t.Errorf("rate 1 faulted=%t: drift never triggered", row.Faulted)
		}
		if online.Migrations+online.Aborts < 2 {
			t.Errorf("rate 1 faulted=%t: no migration attempted beyond the initial installation: %+v",
				row.Faulted, online)
		}
		if !row.Faulted && online.TotalMillis() >= once.TotalMillis() {
			t.Errorf("rate 1: online (%.1f ms) does not beat advise-once (%.1f ms)",
				online.TotalMillis(), once.TotalMillis())
		}
	}

	// Identical config and seed reproduce the sweep bit for bit, and
	// the advisor worker count must not change a single byte.
	again, err := experiments.RunOnline(onlineTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("same seed produced a different sweep")
	}
	wide, err := experiments.RunOnline(onlineTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, wide) {
		t.Errorf("worker count changed the sweep:\n%s\nvs\n%s", res.Format(), wide.Format())
	}

	out := res.Format()
	if !strings.Contains(out, "winner") || !strings.Contains(out, "3 phases") {
		t.Errorf("format output incomplete:\n%s", out)
	}
}

// TestOnlineFormatWinnerTieBreak: the winner is decided on the printed
// 0.1 ms totals, so two totals that differ only in floating-point noise
// tie, and the tie goes to the first strategy in OnlineStrategies
// order rather than to whichever ledger summed a few ulps lower.
func TestOnlineFormatWinnerTieBreak(t *testing.T) {
	res := &experiments.OnlineResult{
		Phases:     3,
		Executions: 24,
		Rows: []experiments.OnlineRow{{
			Rate: 1,
			Cells: map[string]experiments.OnlineCell{
				"once":   {WorkloadMillis: 703.7},
				"oracle": {WorkloadMillis: 649.912999999999},
				"online": {WorkloadMillis: 731.7},
				"static": {WorkloadMillis: 649.912999999998},
			},
		}},
	}
	lines := strings.Split(strings.TrimSpace(res.Format()), "\n")
	last := lines[len(lines)-1]
	if fields := strings.Fields(last); fields[len(fields)-1] != "oracle" {
		t.Errorf("winner of a 1e-12 ms tie is not the first strategy:\n%s", last)
	}
}
