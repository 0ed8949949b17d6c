package server

import (
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// TestSpecDefaultsPinned: testdata/spec.json is what a server stored for the
// submitted spec below, zero values resolved. A spec that leaves them zero
// must still build the same core.Config, the same report config block and
// the same stored spec, so a change to the defaults shows here.
func TestSpecDefaultsPinned(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := decodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	submitted := JobSpec{Nx: 16, Ny: 17, Nz: 16, Steps: 4, Threads: 2}
	if got, want := submitted.Config(nil, nil, nil), stored.Config(nil, nil, nil); got != want {
		t.Errorf("Config:\n got %+v\nwant %+v", got, want)
	}
	if got, want := submitted.ConfigMap(), stored.ConfigMap(); !maps.Equal(got, want) {
		t.Errorf("ConfigMap:\n got %v\nwant %v", got, want)
	}
	if got := submitted.withDefaults(); got != stored {
		t.Errorf("resolved spec:\n got %+v\nwant %+v", got, stored)
	}
}
