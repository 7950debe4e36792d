package engine

import (
	"fmt"
	"testing"
)

func snapDB(t *testing.T) (*DB, []*Query) {
	t.Helper()
	db := testDB(t)
	var qs []*Query
	for i, sql := range []string{
		joinQuery,
		`SELECT SUM(f_val) FROM fact WHERE f_d2 = 7`,
		`SELECT d1_cat, COUNT(*) FROM fact, dim1 WHERE f_d1 = d1_id GROUP BY d1_cat`,
	} {
		qs = append(qs, MustPrepareQuery(fmt.Sprintf("q%d", i+1), sql))
	}
	return db, qs
}

func TestSnapshotIndependentClock(t *testing.T) {
	db, qs := snapDB(t)
	db.Clock().Advance(100)
	s := db.Snapshot()
	if got := s.Clock().Now(); got != 100 {
		t.Fatalf("snapshot clock starts at %v, want parent time 100", got)
	}
	s.RunQuery(qs[0], 1e9)
	if db.Clock().Now() != 100 {
		t.Fatalf("snapshot execution advanced the parent clock to %v", db.Clock().Now())
	}
	if s.Clock().Now() <= 100 {
		t.Fatal("snapshot execution did not advance the snapshot clock")
	}
}

func TestSnapshotSettingsIsolated(t *testing.T) {
	db, _ := snapDB(t)
	s := db.Snapshot()
	if err := s.ApplyConfig(&Config{ID: "c", Params: map[string]string{"work_mem": "256MB"}}); err != nil {
		t.Fatal(err)
	}
	if db.Settings()["work_mem"] == s.Settings()["work_mem"] {
		t.Fatalf("parent work_mem changed with the snapshot: %v", db.Settings()["work_mem"])
	}
}

func TestSnapshotIndexesIsolated(t *testing.T) {
	db, _ := snapDB(t)
	s := db.Snapshot()
	ix := IndexDef{Table: "dim1", Columns: "d1_id"}
	s.CreateIndex(ix)
	if !s.HasIndex(ix) {
		t.Fatal("index missing on the snapshot")
	}
	if db.HasIndex(ix) {
		t.Fatal("snapshot index leaked to the parent")
	}
	// And the other direction: parent indexes created after the snapshot
	// stay invisible to it.
	ix2 := IndexDef{Table: "dim2", Columns: "d2_id"}
	db.CreateIndex(ix2)
	if s.HasIndex(ix2) {
		t.Fatal("parent index leaked to the snapshot")
	}
}

func TestSnapshotInheritsLiveConfiguration(t *testing.T) {
	db, _ := snapDB(t)
	if err := db.ApplyConfig(&Config{ID: "c", Params: map[string]string{"work_mem": "512MB"}}); err != nil {
		t.Fatal(err)
	}
	ix := IndexDef{Table: "dim1", Columns: "d1_id"}
	db.CreateIndex(ix)
	s := db.Snapshot()
	if s.Settings()["work_mem"] != db.Settings()["work_mem"] {
		t.Fatal("snapshot did not inherit live settings")
	}
	if !s.HasIndex(ix) {
		t.Fatal("snapshot did not inherit live indexes")
	}
}
