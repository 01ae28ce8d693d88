// Package symbolic implements the paper's primary contribution: symbolic
// expansion of the global state space of a cache coherence protocol
// (Pong & Dubois, SPAA 1993, Section 3.2).
//
// Instead of enumerating global states for a fixed number of caches, caches
// in the same state are grouped into classes annotated with repetition
// operators (Definition 6):
//
//	0  null instance        (no cache in the state)
//	1  singleton            (exactly one cache)
//	+  plus                 (at least one cache)
//	*  star                 (zero or more caches)
//
// A composite state (Definition 7) assigns one operator to every state
// symbol of the protocol and therefore describes systems with an ARBITRARY
// number of caches. For protocols whose transitions depend on the
// sharing-detection function, the composite state additionally carries the
// copy-count classification of Appendix A.1 (no copy / exactly one copy /
// two or more copies), which is the value of the characteristic function F.
//
// Composite states are ordered by structural covering (Definition 8) and
// containment ⊆_F (Definition 9: covering plus equal F value). Expansion is
// monotonic with respect to containment (Lemmas 1-2, Corollaries 1-2), so
// the worklist algorithm of Figure 3 (Expand in this package) can discard
// contained states in both directions and terminates with the protocol's
// essential states (Definition 10), which cover every state reachable by
// plain enumeration (Theorem 1).
//
// Each composite state also carries the context variables of Definition 4:
// an abstract data value per class (cdata ∈ {nodata, fresh, obsolete}) and
// one for memory (mdata), updated by the data effects declared on the
// protocol rules. Permissibility — compatibility of cache states, at most
// one owner, and Definition 3 data consistency (no readable obsolete copy)
// — is checked on every state the expansion generates, before any pruning,
// so pruning can never mask an erroneous state. A key generated again was
// checked at its first visit, and its verdict stands.
package symbolic
