package protocols

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/fsm"
)

// mustValidate panics when a built-in protocol definition is ill-formed.
// Built-in definitions are program constants, so a failure here is a bug in
// this package, not a runtime condition.
func mustValidate(p *fsm.Protocol) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("protocols: built-in definition invalid: %v", err))
	}
}

// Builder constructs a fresh protocol value.
type Builder func() *fsm.Protocol

// mu guards registry: the built-in table is extended at runtime by Register
// (e.g. ccserved -spec-dir), and read concurrently by lookups.
var mu sync.RWMutex

var registry = map[string]Builder{
	"illinois":      Illinois,
	"write-once":    WriteOnce,
	"write-through": WriteThrough,
	"synapse":       Synapse,
	"berkeley":      Berkeley,
	"firefly":       Firefly,
	"dragon":        Dragon,
	"msi":           MSI,
	"moesi":         MOESI,
	"mesif":         MESIF,
	"mesi":          MESI,
	"lock-msi":      LockMSI,
}

// canonicalName maps a protocol name to its registry key: lowercase,
// trimmed, with underscores and spaces folded to dashes. Registration and
// lookup share this mapping, so "Write-Once", "write_once" and
// "WRITE ONCE" all address the same entry.
func canonicalName(name string) string {
	key := strings.ToLower(strings.TrimSpace(name))
	key = strings.ReplaceAll(key, "_", "-")
	return strings.ReplaceAll(key, " ", "-")
}

// Names returns the registered protocol names in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByName returns a fresh instance of the named protocol. Lookup is
// case-insensitive and tolerates the conventional display names
// ("Illinois", "Write-Once").
func ByName(name string) (*fsm.Protocol, error) {
	mu.RLock()
	b, ok := registry[canonicalName(name)]
	mu.RUnlock()
	if ok {
		return b(), nil
	}
	return nil, fmt.Errorf("protocols: unknown protocol %q (have %s)", name, strings.Join(Names(), ", "))
}

// Register adds a protocol under its canonical name. The protocol is
// validated once up front; builders then return deep copies so callers can
// never alias each other's state. Registering a name that is already taken
// (built-in or previously registered) is an error — the built-in library is
// authoritative and silent shadowing would change verdicts.
func Register(p *fsm.Protocol) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("protocols: registering %q: %w", p.Name, err)
	}
	key := canonicalName(p.Name)
	if key == "" {
		return fmt.Errorf("protocols: protocol has no name")
	}
	// Keep a detached master copy; the builder clones it so callers can
	// never alias each other's state (or the registrant's).
	master := p.Clone()
	mu.Lock()
	defer mu.Unlock()
	if _, taken := registry[key]; taken {
		return fmt.Errorf("protocols: name %q already registered", key)
	}
	registry[key] = func() *fsm.Protocol { return master.Clone() }
	return nil
}

// All returns fresh instances of every registered protocol, sorted by name.
func All() []*fsm.Protocol {
	names := Names()
	mu.RLock()
	defer mu.RUnlock()
	out := make([]*fsm.Protocol, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n]())
	}
	return out
}
