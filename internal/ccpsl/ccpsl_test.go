package ccpsl

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/randproto"
	"repro/internal/symbolic"
)

const msiSpec = `
# A minimal MSI protocol.
protocol MSI-spec
characteristic null

states {
  Invalid  initial
  Shared   valid readable clean
  Modified valid readable exclusive owner
}

rule read-hit-shared   { from Shared on R
                         next Shared
                         data keep }
rule read-hit-modified { from Modified on R
                         next Modified
                         data keep }
rule read-miss-owned   { from Invalid on R when any-other Modified
                         next Shared
                         observe Modified -> Shared
                         data from-cache Modified writeback-supplier }
rule read-miss-clean   { from Invalid on R when no-other Modified
                         next Shared
                         observe Modified -> Shared
                         data memory }
rule write-hit-mod     { from Modified on W
                         next Modified
                         data keep store }
rule write-hit-shared  { from Shared on W
                         next Modified
                         observe Shared -> Invalid, Modified -> Invalid
                         data keep store }
rule write-miss-owned  { from Invalid on W when any-other Modified
                         next Modified
                         observe Shared -> Invalid, Modified -> Invalid
                         data from-cache Modified writeback-supplier store }
rule write-miss-clean  { from Invalid on W when no-other Modified
                         next Modified
                         observe Shared -> Invalid, Modified -> Invalid
                         data memory store }
rule replace-modified  { from Modified on Z
                         next Invalid
                         data keep writeback-self drop }
rule replace-shared    { from Shared on Z
                         next Invalid
                         data keep drop }
`

func TestParseMSISpec(t *testing.T) {
	p, err := Parse(msiSpec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "MSI-spec" {
		t.Errorf("name = %s", p.Name)
	}
	if p.Characteristic != fsm.CharNull {
		t.Errorf("characteristic = %v", p.Characteristic)
	}
	if len(p.States) != 3 || len(p.Rules) != 10 {
		t.Errorf("%d states, %d rules", len(p.States), len(p.Rules))
	}
	if p.Initial != "Invalid" {
		t.Errorf("initial = %s", p.Initial)
	}
	if len(p.Inv.ValidCopy) != 2 || len(p.Inv.Exclusive) != 1 || len(p.Inv.Owners) != 1 {
		t.Errorf("invariants wrong: %+v", p.Inv)
	}
}

func TestParsedSpecVerifiesLikeBuiltin(t *testing.T) {
	p, err := Parse(msiSpec)
	if err != nil {
		t.Fatal(err)
	}
	specRes, err := symbolic.Expand(p, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	builtinRes, err := symbolic.Expand(protocols.MSI(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !specRes.OK() {
		t.Fatalf("spec MSI refuted: %v", specRes.Violations)
	}
	if len(specRes.Essential) != len(builtinRes.Essential) {
		t.Fatalf("spec gives %d essential states, builtin %d",
			len(specRes.Essential), len(builtinRes.Essential))
	}
}

func TestRoundTripAllBuiltins(t *testing.T) {
	for _, p := range protocols.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			spec := Format(p)
			q, err := Parse(spec)
			if err != nil {
				t.Fatalf("re-parse failed: %v\nspec:\n%s", err, spec)
			}
			// Formatting the parsed protocol must be a fixpoint.
			if spec2 := Format(q); spec2 != spec {
				t.Fatalf("Format∘Parse is not a fixpoint:\n--- first\n%s\n--- second\n%s", spec, spec2)
			}
			// And it must verify identically.
			a, err := symbolic.Expand(p, symbolic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := symbolic.Expand(q, symbolic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Essential) != len(b.Essential) || a.Visits != b.Visits || a.OK() != b.OK() {
				t.Fatalf("round-tripped protocol verifies differently: %d/%d vs %d/%d",
					len(a.Essential), a.Visits, len(b.Essential), b.Visits)
			}
		})
	}
}

// TestFormatParseRoundTripsEveryProtocol pins ccpsl as a lossless
// protocol format: for every built-in, every catalog mutant under its own
// name (which carries "!") and 300 seeded random protocols, Parse∘Format
// reproduces the protocol structurally and Format is a fixpoint.
func TestFormatParseRoundTripsEveryProtocol(t *testing.T) {
	var corpus []*fsm.Protocol
	for _, p := range protocols.All() {
		corpus = append(corpus, p)
		for _, m := range mutate.Catalog(p) {
			corpus = append(corpus, m.Protocol)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		corpus = append(corpus, randproto.New(rng, 1+rng.Intn(4)))
	}
	for i, p := range corpus {
		spec := Format(p)
		q, err := Parse(spec)
		if err != nil {
			t.Fatalf("#%d %s: re-parse failed: %v\nspec:\n%s", i, p.Name, err, spec)
		}
		// Clone drops the lazily built lookup indexes, which are not part
		// of the protocol's definition.
		if !reflect.DeepEqual(p.Clone(), q.Clone()) {
			t.Fatalf("#%d %s: parsed protocol differs structurally from the source", i, p.Name)
		}
		if again := Format(q); again != spec {
			t.Fatalf("#%d %s: Format∘Parse is not a fixpoint:\n--- first\n%s\n--- second\n%s", i, p.Name, spec, again)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"empty", "", `expected "protocol"`},
		{"missing states", "protocol P\n", `expected "states"`},
		{"bad characteristic", "protocol P\ncharacteristic magic\nstates {\n I initial\n V valid readable\n}\n", "characteristic must be"},
		{"no initial", "protocol P\nstates {\n I\n V valid readable\n}\n", "no state is marked initial"},
		{"duplicate initial", "protocol P\nstates {\n I initial\n V initial valid\n}\n", "duplicate initial"},
		{"unknown flag", "protocol P\nstates {\n I initial frozen\n}\n", "unknown state flag"},
		{"unknown clause", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n whence I\n}\n", "unknown clause"},
		{"missing from", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n next V\n data memory\n}\n", "missing from clause"},
		{"missing next", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n data memory\n}\n", "missing next clause"},
		{"missing data", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n next V\n}\n", "missing data clause"},
		{"bad guard kind", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R when somebody V\n next V\n data memory\n}\n", "guard must be"},
		{"bad data source", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n next V\n data teleport\n}\n", "data source must be"},
		{"bad data flag", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n next V\n data memory loudly\n}\n", "unknown data flag"},
		{"from-cache no suppliers", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n next V\n data from-cache store\n}\n", "at least one supplier"},
		{"duplicate observe", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n next V\n observe V -> I, V -> V\n data memory\n}\n", "duplicate observe"},
		{"duplicate from", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from I on R\n from I on W\n next V\n data memory\n}\n", "duplicate from"},
		{"stray character", "protocol P$\n", "unexpected character"},
		{"undeclared rule state", "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n from Q on R\n next V\n data memory\n}\n", "undeclared From state"},
		{"empty ops", "protocol P\nops\nstates {\n I initial\n V valid readable\n}\n", "at least one operation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	src := "protocol P\nstates {\n I initial\n V valid readable\n}\nrule r {\n whence I\n}\n"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 7") {
		t.Fatalf("error should point at line 7: %v", err)
	}
}

func TestParseComments(t *testing.T) {
	src := `# heading comment
protocol P  # trailing comment
characteristic null
# comment between declarations
states {
  I initial   # the invalid state
  V valid readable
}
rule miss { from I on R
            next V
            data memory }
rule hit  { from V on R
            next V
            data keep }
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.States) != 2 || len(p.Rules) != 2 {
		t.Fatalf("comments disturbed parsing: %d states, %d rules", len(p.States), len(p.Rules))
	}
}

func TestParseCustomOps(t *testing.T) {
	src := `protocol P
ops R F
states {
  I initial
  V valid readable
}
rule miss  { from I on R
             next V
             data memory }
rule flush { from V on F
             next I
             data keep drop }
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 2 || p.Ops[1] != "F" {
		t.Fatalf("ops = %v", p.Ops)
	}
}

func TestParseGuardLists(t *testing.T) {
	src := `protocol P
characteristic sharing
states {
  I initial
  A valid readable
  B valid readable
}
rule rm-any { from I on R when any-other A, B
              next A
              data from-cache A, B }
rule rm-no  { from I on R when no-other A, B
              next B
              data memory }
rule ha     { from A on R
              next A
              data keep }
rule hb     { from B on R
              next B
              data keep }
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.RulesFor("I", fsm.OpRead)[0]
	if r.Guard.Kind != fsm.GuardAnyOther || len(r.Guard.States) != 2 {
		t.Fatalf("guard = %+v", r.Guard)
	}
	if len(r.Data.Suppliers) != 2 {
		t.Fatalf("suppliers = %v", r.Data.Suppliers)
	}
}

func TestFormatStableOrdering(t *testing.T) {
	p := protocols.Illinois()
	a, b := Format(p), Format(p)
	if a != b {
		t.Fatal("Format must be deterministic (observe map ordering)")
	}
}

func TestLexerArrowVersusHyphen(t *testing.T) {
	toks, err := lex("Valid-Exclusive -> Shared-Dirty")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	if kinds[0] != tokIdent || texts[0] != "Valid-Exclusive" {
		t.Fatalf("first token %v %q", kinds[0], texts[0])
	}
	if kinds[1] != tokArrow {
		t.Fatalf("second token %v, want arrow", kinds[1])
	}
	if kinds[2] != tokIdent || texts[2] != "Shared-Dirty" {
		t.Fatalf("third token %v %q", kinds[2], texts[2])
	}
}

func TestParseRejectsSemanticErrorsViaValidate(t *testing.T) {
	// Syntactically fine, semantically broken: the initial state is a
	// valid copy. Parse must surface the fsm.Validate error.
	src := `protocol P
states {
  I initial valid readable
  V valid readable
}
rule hit { from V on R
           next V
           data keep }
`
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "must not be a valid-copy state") {
		t.Fatalf("want validation error, got %v", err)
	}
}

func TestSpinFlagRoundTrips(t *testing.T) {
	// The spin flag must survive Format → Parse: a lost spin flag would
	// silently turn a blocking lock acquire into a stale-read false
	// positive in the simulator.
	p, err := protocols.ByName("lock-msi")
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(Format(p))
	if err != nil {
		t.Fatal(err)
	}
	spins := 0
	for i := range q.Rules {
		if q.Rules[i].Data.Spin {
			spins++
			if q.Rules[i].Next != q.Rules[i].From {
				t.Errorf("rule %s: spin rule moved", q.Rules[i].Name)
			}
		}
	}
	if spins != 3 {
		t.Fatalf("round-tripped Lock-MSI has %d spin rules, want 3", spins)
	}
}
