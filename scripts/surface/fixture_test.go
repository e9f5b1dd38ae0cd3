package surface

import (
	"reflect"
	"slices"
	"testing"
)

// TestSurfaceFixture runs the checker over testdata/fixture, a module
// with a second "benchmark" module beside it, where each exemption and
// each kind of finding appears once (see internal/lib/lib.go there). Each
// exemption and each finding is a subtest of its own.
func TestSurfaceFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	r, err := surfaceOf("testdata/fixture", "testdata/fixture/benchmark")
	if err != nil {
		t.Fatal(err)
	}
	want := report{
		Unreferenced: []string{"internal/lib.Dead", "internal/lib.WithLimit"},
		Unset:        []string{"internal/lib.Config.Debug", "internal/lib.WithLimit"},
		Local:        []string{"internal/lib.Local", "internal/lib.Option"},
	}
	t.Run("report", func(t *testing.T) {
		if !reflect.DeepEqual(r, want) {
			t.Errorf("fixture report:\n got %+v\nwant %+v", r, want)
		}
	})
	for _, tc := range []struct{ name, id string }{
		{"exempt/named interface", "internal/lib.Square.Area"},
		{"exempt/errors.As anonymous interface", "internal/lib.coded.Code"},
		{"exempt/generic instantiation", "internal/lib.Registry.Get"},
		{"exempt/benchmark module consumer", "internal/lib.OnlyBench"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, list := range [][]string{r.Unreferenced, r.Unset, r.Local} {
				if slices.Contains(list, tc.id) {
					t.Errorf("%s is reported: %+v", tc.id, r)
				}
			}
		})
	}
	for _, tc := range []struct {
		name string
		list []string
		id   string
	}{
		{"unreferenced/function", r.Unreferenced, "internal/lib.Dead"},
		{"unreferenced/functional option", r.Unreferenced, "internal/lib.WithLimit"},
		// Run reads Debug, but only lib_test.go sets it.
		{"unset/field only a test sets", r.Unset, "internal/lib.Config.Debug"},
		{"unset/functional option", r.Unset, "internal/lib.WithLimit"},
		{"local/function", r.Local, "internal/lib.Local"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !slices.Contains(tc.list, tc.id) {
				t.Errorf("%s is not reported in %v", tc.id, tc.list)
			}
		})
	}
	t.Run("at the ceilings", func(t *testing.T) {
		if over := r.over(ceilings{Unreferenced: 2, Unset: 2, Local: 2}); len(over) != 0 {
			t.Errorf("at the ceilings: %v", over)
		}
	})
	t.Run("over the ceilings", func(t *testing.T) {
		over := r.over(ceilings{Unreferenced: 1, Unset: 2, Local: 0})
		if want := []string{"unreferenced: 2 findings, ceiling 1", "local: 2 findings, ceiling 0"}; !reflect.DeepEqual(over, want) {
			t.Errorf("over the ceilings: %v, want %v", over, want)
		}
	})
}
