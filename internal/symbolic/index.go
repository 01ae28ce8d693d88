package symbolic

// The containment index buckets composite states by structural signature —
// copy-count attribute plus class-occupancy pattern (CState.occAll) — so
// the worklist's containment queries (Figure 3's "is the new state
// contained in W or H" and "remove every state the new state contains")
// touch only the buckets whose signature is compatible instead of scanning
// the whole list:
//
//   - t Contains s forces s's occupied classes to be occupied in t
//     (1 ≤ 1,+,*; + ≤ +,*; * ≤ *) and t's definite classes (1, +) to be
//     occupied in s, and the attributes to be equal. So for
//     containedInAny(s) only buckets with sig.occ ⊇ s.occAll qualify, and
//     for removeContained(s) only buckets with s's definite classes
//     ⊆ sig.occ ⊆ s.occAll.
//
// The number of distinct signatures is tiny compared to the number of
// essential states as per-cache state counts grow (BenchmarkScalingSynthetic:
// one signature can hold many context/attr variants), which is what keeps
// the prefilter effective. Protocols with more than 64 state symbols have
// no masks; the index then degrades to a single linear list, matching the
// old behavior.
//
// The ordered work/hist slices of the expander remain the source of truth
// for iteration order; the index only answers membership and collects
// removal victims.

// csig is the bucketing signature.
type csig struct {
	attr Count
	occ  uint64
}

// cindex is a containment index over one of the expander's state lists.
// Membership scans walk buckets in the order their signatures first
// appeared; the map only locates a signature's bucket. A bucket that
// empties stays in place, since signatures are few and recur.
type cindex struct {
	slot    map[csig]int // signature -> index into buckets
	buckets []cbucket
	// flat is the fallback list for unmasked states (|Q| > 64).
	flat []*CState
}

type cbucket struct {
	sig    csig
	states []*CState
}

func newCIndex() *cindex {
	return &cindex{slot: make(map[csig]int)}
}

func (ix *cindex) add(s *CState) {
	if !s.masked {
		ix.flat = append(ix.flat, s)
		return
	}
	sig := csig{attr: s.attr, occ: s.occAll}
	i, ok := ix.slot[sig]
	if !ok {
		i = len(ix.buckets)
		ix.slot[sig] = i
		ix.buckets = append(ix.buckets, cbucket{sig: sig})
	}
	ix.buckets[i].states = append(ix.buckets[i].states, s)
}

// remove deletes one state (by pointer identity) from its bucket.
func (ix *cindex) remove(s *CState) {
	if !s.masked {
		ix.flat = removePtr(ix.flat, s)
		return
	}
	if i, ok := ix.slot[csig{attr: s.attr, occ: s.occAll}]; ok {
		ix.buckets[i].states = removePtr(ix.buckets[i].states, s)
	}
}

func removePtr(list []*CState, s *CState) []*CState {
	for i, t := range list {
		if t == s {
			last := len(list) - 1
			list[i] = list[last]
			list[last] = nil
			return list[:last]
		}
	}
	return list
}

// containedInAny reports whether any indexed state contains s.
func (ix *cindex) containedInAny(s *CState) bool {
	if containedInAny(s, ix.flat) {
		return true
	}
	if !s.masked {
		// An unmasked state can only be compared against unmasked ones
		// (Covers rejects length mismatches), which all live in flat.
		return false
	}
	for _, b := range ix.buckets {
		if b.sig.attr != s.attr || s.occAll&^b.sig.occ != 0 {
			continue
		}
		if containedInAny(s, b.states) {
			return true
		}
	}
	return false
}

// collectContained appends to out every indexed state that s contains.
func (ix *cindex) collectContained(s *CState, out []*CState) []*CState {
	for _, t := range ix.flat {
		if Contains(s, t) {
			out = append(out, t)
		}
	}
	if !s.masked {
		return out
	}
	def := s.maskOne | s.maskPlus
	for _, b := range ix.buckets {
		if b.sig.attr != s.attr || b.sig.occ&^s.occAll != 0 || def&^b.sig.occ != 0 {
			continue
		}
		for _, t := range b.states {
			if Contains(s, t) {
				out = append(out, t)
			}
		}
	}
	return out
}
