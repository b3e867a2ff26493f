package runner

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
)

// TestTableOptionsAndBytes covers the memory-accounting contract: the
// runner builds tables with the configured backend, TableBytes tracks
// the memoized working set, and Release returns the bytes.
func TestTableOptionsAndBytes(t *testing.T) {
	inst := topo.MustLPS(11, 7)
	r := New(2)
	if b := r.TableBytes(); b != 0 {
		t.Fatalf("fresh runner reports %d table bytes", b)
	}
	dense := r.Table(inst.G)
	if dense.Store() != routing.StoreDense {
		t.Fatalf("default backend %v, want dense", dense.Store())
	}
	denseBytes := r.TableBytes()
	if denseBytes != dense.MemoryBytes() || denseBytes == 0 {
		t.Fatalf("TableBytes %d, table says %d", denseBytes, dense.MemoryBytes())
	}
	r.Release(inst.G)
	if b := r.TableBytes(); b != 0 {
		t.Fatalf("%d table bytes after Release", b)
	}

	r.SetTableOptions(routing.TableOptions{Store: routing.StorePacked})
	packed := r.Table(inst.G)
	if packed.Store() != routing.StorePacked {
		t.Fatalf("backend %v after SetTableOptions, want packed", packed.Store())
	}
	if pb := r.TableBytes(); pb*6 > denseBytes {
		t.Fatalf("packed memo %d bytes, not under 1/6 of dense %d", pb, denseBytes)
	}
	// Memoized: a second Table call returns the same table.
	if r.Table(inst.G) != packed {
		t.Fatal("packed table was rebuilt instead of memoized")
	}

	// Registered (repaired) tables are accounted too.
	rep := packed.Repair(inst.G.Edges()[:2])
	r.RegisterTable(rep.G, rep)
	want := packed.MemoryBytes() + rep.MemoryBytes()
	if b := r.TableBytes(); b != want {
		t.Fatalf("TableBytes %d with a registered repair, want %d", b, want)
	}
}
