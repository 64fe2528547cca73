package server

import (
	"testing"

	"compactrouting/internal/core"
	"compactrouting/internal/nameind"
)

// TestSubstratesBuiltOnce pins substrate sharing: at eps = 0.25 a
// six-scheme build runs six constructors, not eight, and each
// name-independent scheme stands on the very labeled scheme the engine
// serves. At eps = 0.4 the Simple clamps differ (1/2 served, 1/3
// under the name-independent scheme), so those two stay two builds.
func TestSubstratesBuiltOnce(t *testing.T) {
	before := core.SchemeBuilds()
	eng := newTestEngine(t, SchemeNames, 0)
	if got := core.SchemeBuilds() - before; got != 6 {
		t.Fatalf("six-scheme build ran %d constructors, want 6", got)
	}
	st := eng.st.Load()
	impl := func(name string) any { return st.list[st.index[name]].impl }
	if u := impl("name-independent").(*nameind.Simple).UnderlyingScheme(); u != impl("simple-labeled") {
		t.Fatal("name-independent does not stand on the served simple-labeled scheme")
	}
	if u := impl("scale-free-name-independent").(*nameind.ScaleFree).UnderlyingScheme(); u != impl("scale-free-labeled") {
		t.Fatal("scale-free-name-independent does not stand on the served scale-free-labeled scheme")
	}

	before = core.SchemeBuilds()
	eng, err := New(Config{
		Build:   geometricBuild(80),
		Seed:    1,
		Eps:     0.4,
		Schemes: []string{"simple-labeled", "name-independent"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.SchemeBuilds() - before; got != 3 {
		t.Fatalf("eps 0.4 build ran %d constructors, want 3", got)
	}
	st = eng.st.Load()
	if u := impl("name-independent").(*nameind.Simple).UnderlyingScheme(); u == impl("simple-labeled") {
		t.Fatal("eps 0.4: name-independent shares simple-labeled's eps-1/2 build")
	}
}
