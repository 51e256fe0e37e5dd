package migrate_test

import (
	"fmt"
	"testing"

	"nose/internal/backend"
	"nose/internal/hotel"
	"nose/internal/migrate"
	"nose/internal/model"
	"nose/internal/schema"
)

// guestView is the paper's Fig. 3 materialized view:
// [HotelCity][RoomRate, GuestID][GuestName, GuestEmail].
func guestView(t *testing.T, g *model.Graph) *schema.Index {
	t.Helper()
	path, err := g.ResolvePath([]string{"Guest", "Reservations", "Room", "Hotel"})
	if err != nil {
		t.Fatal(err)
	}
	hotelE, room, guest := g.MustEntity("Hotel"), g.MustEntity("Room"), g.MustEntity("Guest")
	return schema.New(path,
		[]*model.Attribute{hotelE.Attribute("HotelCity")},
		[]*model.Attribute{room.Attribute("RoomRate"), guest.Key()},
		[]*model.Attribute{guest.Attribute("GuestName"), guest.Attribute("GuestEmail")},
	)
}

// guestPK is a primary-key family over the Guest entity alone.
func guestPK(t *testing.T, g *model.Graph) *schema.Index {
	t.Helper()
	guest := g.MustEntity("Guest")
	return schema.New(model.NewPath(guest),
		[]*model.Attribute{guest.Key()},
		nil,
		[]*model.Attribute{guest.Attribute("GuestName")},
	)
}

// tinyDataset populates a deterministic hotel dataset small enough to
// count by hand: 2 hotels, 4 rooms, 3 guests, 5 reservations.
func tinyDataset(t *testing.T, g *model.Graph) *backend.Dataset {
	t.Helper()
	ds := backend.NewDataset(g)
	hotelE := g.MustEntity("Hotel")
	room := g.MustEntity("Room")
	guest := g.MustEntity("Guest")
	res := g.MustEntity("Reservation")
	add := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		add(ds.AddEntity(hotelE, map[string]backend.Value{
			"HotelID": i, "HotelCity": fmt.Sprintf("City%d", i),
		}))
	}
	for i := 0; i < 4; i++ {
		add(ds.AddEntity(room, map[string]backend.Value{
			"RoomID": i, "RoomRate": float64(100 + 10*i),
		}))
		add(ds.Connect(hotelE.Edge("Rooms"), int64(i%2), int64(i)))
	}
	for i := 0; i < 3; i++ {
		add(ds.AddEntity(guest, map[string]backend.Value{
			"GuestID": i, "GuestName": fmt.Sprintf("G%d", i), "GuestEmail": fmt.Sprintf("g%d@x", i),
		}))
	}
	for i := 0; i < 5; i++ {
		add(ds.AddEntity(res, map[string]backend.Value{"ResID": i}))
		add(ds.Connect(room.Edge("Reservations"), int64(i%4), int64(i)))
		add(ds.Connect(guest.Edge("Reservations"), int64(i%3), int64(i)))
	}
	return ds
}

func TestBuildCostTracksSizeAndScale(t *testing.T) {
	g := hotel.Graph()
	p := migrate.DefaultCostParams()
	view, pk := guestView(t, g), guestPK(t, g)
	if c := migrate.BuildCost(pk, p); c <= p.PerFamilyMillis {
		t.Errorf("pk build cost %v, want above the fixed charge %v", c, p.PerFamilyMillis)
	}
	// The multi-entity view materializes the reservation fanout; it must
	// cost more than the single-entity primary key family.
	if migrate.BuildCost(view, p) <= migrate.BuildCost(pk, p) {
		t.Errorf("view (%v) not costlier than pk (%v)",
			migrate.BuildCost(view, p), migrate.BuildCost(pk, p))
	}
	half := p.Scale(0.5)
	if got, want := migrate.BuildCost(view, half), migrate.BuildCost(view, p)/2; got != want {
		t.Errorf("scaled cost %v, want %v", got, want)
	}
	if migrate.EstimatedCost([]*schema.Index{view, pk}, p) !=
		migrate.BuildCost(view, p)+migrate.BuildCost(pk, p) {
		t.Error("EstimatedCost is not the sum of BuildCosts")
	}
}

func TestDiff(t *testing.T) {
	g := hotel.Graph()
	view, pk := guestView(t, g), guestPK(t, g)

	next := schema.NewSchema()
	next.Add(view)
	next.Add(pk)
	build, drop := migrate.Diff(nil, next)
	if len(build) != 2 || len(drop) != 0 {
		t.Fatalf("nil prev: build=%d drop=%d, want 2/0", len(build), len(drop))
	}

	build, drop = migrate.Diff(next, next)
	if len(build) != 0 || len(drop) != 0 {
		t.Fatalf("identical schemas: build=%d drop=%d, want 0/0", len(build), len(drop))
	}

	prev := schema.NewSchema()
	prev.Add(pk)
	only := schema.NewSchema()
	only.Add(view)
	build, drop = migrate.Diff(prev, only)
	if len(build) != 1 || build[0].ID() != view.ID() {
		t.Errorf("build = %v, want the view", build)
	}
	if len(drop) != 1 || drop[0].ID() != pk.ID() {
		t.Errorf("drop = %v, want the pk family", drop)
	}
}
