package protocols

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsm"
)

func TestCanonicalName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"illinois", "illinois"},
		{"Illinois", "illinois"},
		{"  WRITE ONCE ", "write-once"},
		{"write_once", "write-once"},
		{"Lock-MSI", "lock-msi"},
	} {
		if got := canonicalName(tc.in); got != tc.want {
			t.Errorf("canonicalName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestByNameMixedCase pins the registration/lookup contract end to end:
// every registered protocol resolves under its display name, its upper-case
// form and underscore/space variants, to the same definition.
func TestByNameMixedCase(t *testing.T) {
	for _, name := range Names() {
		base, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []string{
			strings.ToUpper(name),
			" " + name + " ",
			strings.ReplaceAll(name, "-", "_"),
			strings.ReplaceAll(name, "-", " "),
		} {
			p, err := ByName(variant)
			if err != nil {
				t.Errorf("ByName(%q): %v", variant, err)
				continue
			}
			if p.Name != base.Name {
				t.Errorf("ByName(%q) = %s, want %s", variant, p.Name, base.Name)
			}
		}
	}
}

// unregister removes a runtime registration so tests leave the global
// registry as they found it regardless of execution order.
func unregister(t *testing.T, name string) {
	t.Helper()
	t.Cleanup(func() {
		mu.Lock()
		delete(registry, canonicalName(name))
		mu.Unlock()
	})
}

// registerTestProto builds a small valid protocol under a unique name and
// registers it, failing the test on error.
func registerTestProto(t *testing.T, name string) *fsm.Protocol {
	t.Helper()
	p, err := ByName("msi")
	if err != nil {
		t.Fatal(err)
	}
	p.Name = name
	if err := Register(p); err != nil {
		t.Fatal(err)
	}
	unregister(t, name)
	return p
}

func TestRegisterAndLookup(t *testing.T) {
	p := registerTestProto(t, "Registry-Test-MSI")
	got, err := ByName("registry_test_msi")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name {
		t.Errorf("name = %s, want %s", got.Name, p.Name)
	}
	// Builders must hand out independent copies.
	other, err := ByName("registry-test-msi")
	if err != nil {
		t.Fatal(err)
	}
	if got == other || &got.Rules[0] == &other.Rules[0] {
		t.Error("registered builder returned aliased instances")
	}
	if !reflect.DeepEqual(got.States, other.States) {
		t.Error("copies disagree")
	}
	// Names that are taken, built-in or registered, are refused.
	if err := Register(p); err == nil {
		t.Error("re-registering a taken name must error")
	}
	msi, _ := ByName("msi")
	if err := Register(msi); err == nil {
		t.Error("shadowing a built-in must error")
	}
	found := false
	for _, n := range Names() {
		if n == "registry-test-msi" {
			found = true
		}
	}
	if !found {
		t.Error("registered name missing from Names()")
	}
}
