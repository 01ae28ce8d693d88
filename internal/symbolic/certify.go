package symbolic

import (
	"fmt"

	"repro/internal/fsm"
)

// Certify checks a clean verdict independently of the run that produced
// it. It verifies that essential is a closed, permissible cover of the
// protocol's composite states:
//
//  1. the initial composite state is contained (⊆_F, Definition 9) in some
//     essential state;
//  2. every essential state passes Check;
//  3. every successor of every essential state is contained in some
//     essential state.
//
// By Lemmas 1–2 (expansion is monotonic under containment), 1 and 3 make
// the down-closure of essential an inductive invariant that holds in every
// reachable state, and 2 makes it permissible: Theorem 1 for this set. The
// check uses only Successors, Check and Contains. It does not use the
// worklist, the containment index or the record memo of Expand.
func Certify(p *fsm.Protocol, strict bool, essential []*CState) error {
	e, err := NewEngine(p)
	if err != nil {
		return err
	}
	if init := e.Initial(); !containedInAny(init, essential) {
		return fmt.Errorf("symbolic: certify %s: initial state %s is not contained in an essential state",
			p.Name, stateString(p, init))
	}
	for _, s := range essential {
		if v := e.Check(s, strict); len(v) > 0 {
			return fmt.Errorf("symbolic: certify %s: essential state %s is erroneous: %s",
				p.Name, stateString(p, s), v[0].Detail)
		}
		succs, errs := e.Successors(s)
		if len(errs) > 0 {
			return fmt.Errorf("symbolic: certify %s: expanding %s: %w", p.Name, stateString(p, s), errs[0])
		}
		for _, su := range succs {
			if !containedInAny(su.State, essential) {
				return fmt.Errorf("symbolic: certify %s: successor %s (%s) of essential state %s is not contained in an essential state",
					p.Name, stateString(p, su.State), su.Label, stateString(p, s))
			}
		}
	}
	return nil
}

// stateString renders a composite state with its context variables.
func stateString(p *fsm.Protocol, s *CState) string {
	return s.StructureString(p) + " " + s.ContextString(p)
}
