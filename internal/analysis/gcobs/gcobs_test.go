package gcobs

import (
	"reflect"
	"testing"
)

// TestParse covers the check_bce stderr dialect: package headers,
// indented detail and other compiler notes are skipped, both bounds-check
// messages are kept, and relative paths are joined with the build
// directory.
func TestParse(t *testing.T) {
	stderr := "" +
		"# hetpnoc/internal/sim\n" +
		"internal/sim/bitset.go:10:6: can inline (*Bitset).Set\n" +
		"internal/fabric/fabric.go:42:9: &pending{...} escapes to heap\n" +
		"internal/router/router.go:201:14: Found IsInBounds\n" +
		"internal/router/router.go:203:10: Found IsSliceInBounds\n" +
		"/abs/elsewhere/hot.go:5:3: Found IsInBounds\n" +
		"\tindented continuation is skipped\n"

	got := Parse("/mod", []byte(stderr))
	want := []Fact{
		{File: "/mod/internal/router/router.go", Line: 201, Col: 14, Text: "Found IsInBounds"},
		{File: "/mod/internal/router/router.go", Line: 203, Col: 10, Text: "Found IsSliceInBounds"},
		{File: "/abs/elsewhere/hot.go", Line: 5, Col: 3, Text: "Found IsInBounds"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Parse mismatch:\n got: %#v\nwant: %#v", got, want)
	}
}
