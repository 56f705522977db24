package fix

import "testing"

func apply(t *testing.T, src string, fixes ...Fix) Result {
	t.Helper()
	return Apply([]byte(src), fixes)
}

func TestSingleReplacement(t *testing.T) {
	r := apply(t, "abcdef", Fix{Edits: []Edit{{Start: 2, End: 4, New: "XY"}}})
	if string(r.Src) != "abXYef" || r.Applied != 1 || r.Dropped != 0 {
		t.Errorf("got %q applied=%d dropped=%d", r.Src, r.Applied, r.Dropped)
	}
}

func TestInsertion(t *testing.T) {
	r := apply(t, "f(x)", Fix{Edits: []Edit{{Start: 2, End: 2, New: "ctx, "}}})
	if string(r.Src) != "f(ctx, x)" {
		t.Errorf("got %q", r.Src)
	}
}

func TestDisjointFixes(t *testing.T) {
	r := apply(t, "aaa bbb ccc",
		Fix{Edits: []Edit{{Start: 0, End: 3, New: "AAA"}}},
		Fix{Edits: []Edit{{Start: 8, End: 11, New: "CCC"}}})
	if string(r.Src) != "AAA bbb CCC" || r.Applied != 2 {
		t.Errorf("got %q applied=%d", r.Src, r.Applied)
	}
}

func TestDuplicateFixCollapsed(t *testing.T) {
	f := Fix{Edits: []Edit{{Start: 0, End: 1, New: "Z"}}}
	r := apply(t, "abc", f, f, f)
	if string(r.Src) != "Zbc" || r.Applied != 1 || r.Dropped != 0 {
		t.Errorf("got %q applied=%d dropped=%d", r.Src, r.Applied, r.Dropped)
	}
}

func TestOverlapDropsLaterFix(t *testing.T) {
	r := apply(t, "abcdef",
		Fix{Message: "a", Edits: []Edit{{Start: 1, End: 4, New: "X"}}},
		Fix{Message: "b", Edits: []Edit{{Start: 3, End: 5, New: "Y"}}})
	if string(r.Src) != "aXef" || r.Applied != 1 || r.Dropped != 1 {
		t.Errorf("got %q applied=%d dropped=%d", r.Src, r.Applied, r.Dropped)
	}
}

func TestSameStartInsertConflicts(t *testing.T) {
	r := apply(t, "f(x)",
		Fix{Message: "a", Edits: []Edit{{Start: 2, End: 2, New: "ctx, "}}},
		Fix{Message: "b", Edits: []Edit{{Start: 2, End: 2, New: "id, "}}})
	if string(r.Src) != "f(ctx, x)" || r.Applied != 1 || r.Dropped != 1 {
		t.Errorf("got %q applied=%d dropped=%d", r.Src, r.Applied, r.Dropped)
	}
}

func TestMultiEditFixIsAtomic(t *testing.T) {
	// Fix "b" loses the conflict on its first edit; its second edit
	// [6,8) is unopposed but must not land either — fixes are atomic.
	r := apply(t, "0123456789",
		Fix{Message: "a", Edits: []Edit{{Start: 0, End: 2, New: "XX"}}},
		Fix{Message: "b", Edits: []Edit{{Start: 1, End: 3, New: "Y"}, {Start: 6, End: 8, New: "Z"}}})
	if string(r.Src) != "XX23456789" || r.Applied != 1 || r.Dropped != 1 {
		t.Errorf("got %q applied=%d dropped=%d", r.Src, r.Applied, r.Dropped)
	}
}

func TestMultiEditWithinFix(t *testing.T) {
	// One fix may rename a callee and insert its first argument.
	r := apply(t, "f.Step(1)", Fix{Edits: []Edit{
		{Start: 2, End: 6, New: "StepContext"},
		{Start: 7, End: 7, New: "ctx, "},
	}})
	if string(r.Src) != "f.StepContext(ctx, 1)" || r.Applied != 1 {
		t.Errorf("got %q applied=%d", r.Src, r.Applied)
	}
}

func TestInvalidFixDropped(t *testing.T) {
	r := apply(t, "abc",
		Fix{Message: "oob", Edits: []Edit{{Start: 1, End: 9, New: "X"}}},
		Fix{Message: "inverted", Edits: []Edit{{Start: 2, End: 1, New: "X"}}},
		Fix{Message: "self-overlap", Edits: []Edit{{Start: 0, End: 2, New: "X"}, {Start: 1, End: 3, New: "Y"}}})
	if string(r.Src) != "abc" || r.Applied != 0 || r.Dropped != 3 {
		t.Errorf("got %q applied=%d dropped=%d", r.Src, r.Applied, r.Dropped)
	}
}

func TestAdjacentEditsWithinFix(t *testing.T) {
	r := apply(t, "abcdef", Fix{Edits: []Edit{
		{Start: 0, End: 3, New: "X"},
		{Start: 3, End: 6, New: "Y"},
	}})
	if string(r.Src) != "XY" || r.Applied != 1 {
		t.Errorf("got %q applied=%d", r.Src, r.Applied)
	}
}

func TestEmptyAndNoFixes(t *testing.T) {
	r := apply(t, "abc")
	if string(r.Src) != "abc" || r.Applied != 0 || r.Dropped != 0 {
		t.Errorf("got %q applied=%d dropped=%d", r.Src, r.Applied, r.Dropped)
	}
	r = apply(t, "abc", Fix{Message: "no edits"})
	if string(r.Src) != "abc" || r.Applied != 0 || r.Dropped != 0 {
		t.Errorf("empty fix: got %q applied=%d dropped=%d", r.Src, r.Applied, r.Dropped)
	}
}
