package enum

import (
	"strings"
	"testing"
)

// TestWidePackedMatchesStringKeys pins counting enumeration between 40
// and 48 caches — a range that once took a string-key fallback — against
// the expansion reference (see referenceCases): counting Dragon and MESI
// at n=40 and n=48 must verify clean, and the Dragon mutants up to the
// first one refuted at n=40 must give identical Unique, Visits,
// TupleStates, verdicts and witness paths.
func TestWidePackedMatchesStringKeys(t *testing.T) {
	want := loadReference(t)
	var last referenceCase
	for _, c := range referenceCases(t) {
		if c.n != 40 && c.n != 48 {
			continue
		}
		w, ok := want[c.name]
		if !ok {
			t.Fatalf("%s: missing from the reference file", c.name)
		}
		if got := runReference(t, c); got != w {
			t.Fatalf("%s: diverges from the reference\n got: %.2000s\nwant: %.2000s", c.name, got, w)
		}
		last = c
	}
	if last.p == nil || !strings.Contains(want[last.name], "violation ") {
		t.Fatal("the wide cases end in no refuted Dragon mutant")
	}
}
