package migrate_test

import (
	"errors"
	"math"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/hotel"
	"nose/internal/migrate"
	"nose/internal/schema"
)

var errInjectedPut = errors.New("injected put failure")

// readable reports whether the family exists in the store: every
// family in these tests has a one-column partition key, so a
// one-value Get succeeds iff the family is installed.
func readable(s *backend.Store, name string) bool {
	_, err := s.Get(name, backend.GetRequest{Partition: []backend.Value{"City0"}})
	return err == nil
}

// storePut adapts a store's Put to the live controller's PutFunc.
func storePut(s *backend.Store) migrate.PutFunc {
	return func(cf string, partition, clustering, values []backend.Value) (float64, error) {
		pr, err := s.Put(cf, partition, clustering, values)
		if err != nil {
			return 0, err
		}
		return pr.SimMillis, nil
	}
}

// drain steps a migration to its end and returns the first error.
func drain(t *testing.T, l *migrate.Live) error {
	t.Helper()
	for i := 0; l.State() != migrate.StateDone; i++ {
		if i > 100 {
			t.Fatal("migration did not finish in 100 steps")
		}
		if _, err := l.Step(); err != nil {
			return err
		}
	}
	return nil
}

// TestLiveMigrationChargesFamiliesAndPuts: the ledger charges every new
// family its setup price and every backfilled record the simulated time
// its put consumed, and nothing else; a drop-only migration is free.
func TestLiveMigrationChargesFamiliesAndPuts(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	p := migrate.DefaultCostParams()

	sch := schema.NewSchema()
	view := sch.Add(guestView(t, g))
	pk := sch.Add(guestPK(t, g))

	puts, putMillis := 0, 0.0
	put := func(cf string, partition, clustering, values []backend.Value) (float64, error) {
		ms, err := storePut(s)(cf, partition, clustering, values)
		puts++
		putMillis += ms
		return ms, err
	}
	l, err := migrate.StartLive(ds, s, []*schema.Index{view, pk}, nil, put, migrate.LiveOptions{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := drain(t, l); err != nil {
		t.Fatal(err)
	}
	res := l.Result()
	if len(res.Built) != 2 || res.Built[0] != view.Name || res.Built[1] != pk.Name {
		t.Errorf("Built = %v", res.Built)
	}
	// 5 reservations materialize 5 view records; 3 guests 3 pk records.
	if res.Records != 8 || puts != 8 {
		t.Errorf("Records = %d after %d puts, want 8", res.Records, puts)
	}
	if want := 2*p.PerFamilyMillis + putMillis; math.Abs(res.SimMillis-want) > 1e-9 {
		t.Errorf("SimMillis = %v, want 2 family charges + puts = %v", res.SimMillis, want)
	}
	got, err := s.Get(view.Name, backend.GetRequest{Partition: []backend.Value{"City0"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) == 0 {
		t.Error("no records materialized for City0")
	}

	// A second migration only drops the view: free, and the family is
	// gone.
	l, err = migrate.StartLive(ds, s, nil, []*schema.Index{view}, put, migrate.LiveOptions{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := drain(t, l); err != nil {
		t.Fatal(err)
	}
	if res := l.Result(); len(res.Dropped) != 1 || res.Dropped[0] != view.Name || res.SimMillis != 0 {
		t.Errorf("drop result = %+v", res)
	}
	if readable(s, view.Name) {
		t.Error("dropped family still readable")
	}
}

// TestStartLiveRejectsUnnamedIndex: a family without a store name is
// refused before anything is created.
func TestStartLiveRejectsUnnamedIndex(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	view := sch.Add(guestView(t, g))
	if _, err := migrate.StartLive(ds, s, []*schema.Index{view, guestPK(t, g)}, nil, storePut(s),
		migrate.LiveOptions{}); err == nil {
		t.Fatal("unnamed index accepted")
	}
	if readable(s, view.Name) {
		t.Error("family created before the unnamed index was rejected")
	}
}

// failingCreate wraps a store and refuses every Create after the first
// ok successes.
type failingCreate struct {
	*backend.Store
	ok int
}

func (f *failingCreate) Create(def backend.ColumnFamilyDef) error {
	if f.ok--; f.ok < 0 {
		return errors.New("injected create failure")
	}
	return f.Store.Create(def)
}

// TestLiveMigrationDropsPartialFamiliesOnFailure: a build that fails —
// at a create, or at backfill puts beyond the fault budget — leaves
// nothing it installed behind, half-built family included.
func TestLiveMigrationDropsPartialFamiliesOnFailure(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	sch := schema.NewSchema()
	view := sch.Add(guestView(t, g))
	pk := sch.Add(guestPK(t, g))

	// The second create fails: the first family is dropped again.
	s := backend.NewStore(cost.DefaultParams())
	if _, err := migrate.StartLive(ds, &failingCreate{Store: s, ok: 1}, []*schema.Index{view, pk}, nil,
		storePut(s), migrate.LiveOptions{}); err == nil {
		t.Fatal("failed create not reported")
	}
	if readable(s, view.Name) {
		t.Errorf("family %s from the failed start still installed", view.Name)
	}

	// The view backfills 5 records; every put from the 7th on fails,
	// in the middle of the second family's backfill.
	s = backend.NewStore(cost.DefaultParams())
	puts := 0
	put := func(cf string, partition, clustering, values []backend.Value) (float64, error) {
		if puts++; puts > 6 {
			return 0, errInjectedPut
		}
		return storePut(s)(cf, partition, clustering, values)
	}
	l, err := migrate.StartLive(ds, s, []*schema.Index{view, pk}, nil, put,
		migrate.LiveOptions{ChunkRecords: 3, FaultBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := drain(t, l); !errors.Is(err, migrate.ErrAborted) {
		t.Fatalf("drain = %v, want ErrAborted", err)
	}
	if readable(s, pk.Name) {
		t.Errorf("partially built family %s still installed after the failed build", pk.Name)
	}
	if readable(s, view.Name) {
		t.Errorf("family %s from the failed build still installed", view.Name)
	}
}

// TestLiveMigrationWalksStateMachine drives a healthy migration end to
// end and pins the state sequence, chunking, and the final store
// contents.
func TestLiveMigrationWalksStateMachine(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	view := sch.Add(guestView(t, g))
	pk := sch.Add(guestPK(t, g))

	// Pre-install the family the migration will retire.
	old := schema.NewSchema()
	oldPK := old.Add(guestPK(t, g))
	oldPK.Name = "old_guest_pk"
	if err := ds.Install(s, oldPK); err != nil {
		t.Fatal(err)
	}

	l, err := migrate.StartLive(ds, s, []*schema.Index{view, pk}, []*schema.Index{oldPK},
		storePut(s), migrate.LiveOptions{ChunkRecords: 3, Params: migrate.DefaultCostParams()})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.State(); got != migrate.StateDualWrite {
		t.Fatalf("state after StartLive = %v, want dual-write", got)
	}
	if b := l.Building(); len(b) != 2 {
		t.Fatalf("Building() = %v, want the two new families", b)
	}
	// New families exist (and can receive dual-writes) before backfill.
	if !readable(s, view.Name) {
		t.Fatal("new family not created at StartLive")
	}

	var states []migrate.State
	var copied int
	for i := 0; l.State() != migrate.StateDone; i++ {
		if i > 20 {
			t.Fatal("migration did not finish in 20 steps")
		}
		sr, err := l.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Copied > 3 {
			t.Fatalf("step copied %d records, chunk bound is 3", sr.Copied)
		}
		copied += sr.Copied
		if sr.Transitioned {
			states = append(states, sr.State)
		}
	}
	want := []migrate.State{migrate.StateBackfill, migrate.StateCutover, migrate.StateDrop, migrate.StateDone}
	if len(states) != len(want) {
		t.Fatalf("transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", states, want)
		}
	}
	// 5 view records + 3 pk records.
	if copied != 8 {
		t.Errorf("copied %d records, want 8", copied)
	}
	res := l.Result()
	if len(res.Built) != 2 || res.Records != 8 || res.SimMillis <= 0 {
		t.Errorf("Result = %+v", res)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != "old_guest_pk" {
		t.Errorf("Dropped = %v, want [old_guest_pk]", res.Dropped)
	}
	if readable(s, "old_guest_pk") {
		t.Error("retired family still installed after drop phase")
	}
	if got, err := s.Get(view.Name, backend.GetRequest{Partition: []backend.Value{"City0"}}); err != nil || len(got.Records) == 0 {
		t.Errorf("backfilled family unreadable: %v", err)
	}
	if b := l.Building(); b != nil {
		t.Errorf("Building() after done = %v, want nil", b)
	}
}

// TestLiveMigrationRetriesFailedRecord: a put failure must not advance
// the cursor — the record lands on the next step and the final count
// is exact.
func TestLiveMigrationRetriesFailedRecord(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	pk := sch.Add(guestPK(t, g))

	fails := 1
	put := func(cf string, partition, clustering, values []backend.Value) (float64, error) {
		if fails > 0 {
			fails--
			return 0.5, errInjectedPut // failed attempt still costs time
		}
		pr, err := s.Put(cf, partition, clustering, values)
		if err != nil {
			return 0, err
		}
		return pr.SimMillis, nil
	}
	l, err := migrate.StartLive(ds, s, []*schema.Index{pk}, nil, put,
		migrate.LiveOptions{ChunkRecords: 64, FaultBudget: 8, Params: migrate.DefaultCostParams()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(); err != nil { // dual-write settle
		t.Fatal(err)
	}
	sr, err := l.Step() // chunk ends early at the failure
	if err != nil {
		t.Fatal(err)
	}
	if sr.Faults != 1 || sr.Copied != 0 {
		t.Fatalf("first chunk = %+v, want 1 fault and 0 copied", sr)
	}
	sr, err = l.Step()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Copied != 3 { // all 3 guests, including the retried first record
		t.Fatalf("retry chunk copied %d, want 3", sr.Copied)
	}
	if p := l.Progress(); p.CopiedRecords != 3 || p.Faults != 1 {
		t.Fatalf("progress = %+v", p)
	}
}

// TestLiveMigrationAbortsOverBudget: put failures beyond the budget
// roll the migration back completely — created families dropped, the
// old family untouched, ErrAborted returned now and forever.
func TestLiveMigrationAbortsOverBudget(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	view := sch.Add(guestView(t, g))

	old := schema.NewSchema()
	oldPK := old.Add(guestPK(t, g))
	oldPK.Name = "old_guest_pk"
	if err := ds.Install(s, oldPK); err != nil {
		t.Fatal(err)
	}

	put := func(cf string, partition, clustering, values []backend.Value) (float64, error) {
		return 0.5, errInjectedPut
	}
	l, err := migrate.StartLive(ds, s, []*schema.Index{view}, []*schema.Index{oldPK}, put,
		migrate.LiveOptions{ChunkRecords: 4, FaultBudget: 2, Params: migrate.DefaultCostParams()})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 10 && lastErr == nil; i++ {
		_, lastErr = l.Step()
	}
	if !errors.Is(lastErr, migrate.ErrAborted) {
		t.Fatalf("over-budget migration returned %v, want ErrAborted", lastErr)
	}
	if l.State() != migrate.StateAborted {
		t.Fatalf("state = %v, want aborted", l.State())
	}
	if readable(s, view.Name) {
		t.Error("aborted migration left its half-built family installed")
	}
	if !readable(s, "old_guest_pk") {
		t.Error("aborted migration touched the old serving family")
	}
	if res := l.Result(); len(res.Built) != 0 || len(res.Dropped) != 0 {
		t.Errorf("aborted Result = %+v, want nothing built or dropped", res)
	}
	if res := l.Result(); res.SimMillis <= 0 {
		t.Error("aborted migration charged no simulated time for its failed puts")
	}
	// Aborted is terminal.
	if _, err := l.Step(); !errors.Is(err, migrate.ErrAborted) {
		t.Errorf("Step after abort = %v, want ErrAborted", err)
	}
	if p := l.Progress(); p.Faults <= p.Budget {
		t.Errorf("progress = %+v, want faults over budget", p)
	}
}

// TestLiveMigrationExternalFaultsCountAgainstBudget: dual-write
// failures reported via NoteExternalFault abort the migration at the
// next Step once the budget is breached.
func TestLiveMigrationExternalFaultsCountAgainstBudget(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	pk := sch.Add(guestPK(t, g))

	l, err := migrate.StartLive(ds, s, []*schema.Index{pk}, nil, storePut(s),
		migrate.LiveOptions{FaultBudget: 2, Params: migrate.DefaultCostParams()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l.NoteExternalFault()
	}
	if _, err := l.Step(); !errors.Is(err, migrate.ErrAborted) {
		t.Fatalf("Step = %v, want ErrAborted from external faults", err)
	}
	if readable(s, pk.Name) {
		t.Error("aborted migration left its family installed")
	}
}

// TestLiveMigrationCannotAbortAfterCutover: once every record has
// landed the migration is past its point of no return — budget
// breaches and explicit Abort no longer roll it back, because the
// caller may already be serving from the new families.
func TestLiveMigrationCannotAbortAfterCutover(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	pk := sch.Add(guestPK(t, g))

	l, err := migrate.StartLive(ds, s, []*schema.Index{pk}, nil, storePut(s),
		migrate.LiveOptions{FaultBudget: 1, Params: migrate.DefaultCostParams()})
	if err != nil {
		t.Fatal(err)
	}
	for l.State() != migrate.StateCutover {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		l.NoteExternalFault()
	}
	l.Abort()
	if l.State() != migrate.StateCutover {
		t.Fatalf("Abort after cutover changed state to %v", l.State())
	}
	for l.State() != migrate.StateDone {
		if _, err := l.Step(); err != nil {
			t.Fatalf("post-cutover Step = %v, want completion despite over-budget faults", err)
		}
	}
	if !readable(s, pk.Name) {
		t.Error("family missing after post-cutover completion")
	}
}

// TestLivePauseResume: a paused controller holds position; resuming
// picks up exactly where it stopped.
func TestLivePauseResume(t *testing.T) {
	g := hotel.Graph()
	ds := tinyDataset(t, g)
	s := backend.NewStore(cost.DefaultParams())
	sch := schema.NewSchema()
	pk := sch.Add(guestPK(t, g))

	l, err := migrate.StartLive(ds, s, []*schema.Index{pk}, nil, storePut(s),
		migrate.LiveOptions{ChunkRecords: 1, Params: migrate.DefaultCostParams()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(); err != nil { // → backfill
		t.Fatal(err)
	}
	if _, err := l.Step(); err != nil { // first record
		t.Fatal(err)
	}
	l.Pause()
	for i := 0; i < 5; i++ {
		sr, err := l.Step()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Copied != 0 || sr.Transitioned {
			t.Fatalf("paused Step did work: %+v", sr)
		}
	}
	if p := l.Progress(); !p.Paused || p.CopiedRecords != 1 {
		t.Fatalf("paused progress = %+v", p)
	}
	l.Resume()
	for l.State() != migrate.StateDone {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if p := l.Progress(); p.CopiedRecords != 3 {
		t.Fatalf("resumed migration copied %d, want 3", p.CopiedRecords)
	}
}
