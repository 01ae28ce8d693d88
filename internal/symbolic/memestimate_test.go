package symbolic

import (
	"runtime"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
)

// TestCStateBytesEstimate pins the cstateBytes memory model against measured
// heap growth. The estimate drives the MaxBytes budget, so it must track what
// one listed composite state actually costs: the CState with its bitmask
// summaries, its key string (the only copy of the component vectors, shared
// with a map keyed by it), and its slots in the ordered list and the
// containment index. The test builds exactly those structures for a large
// population of distinct states and requires the estimate to stay within a
// factor of two of the allocator's per-state cost in either direction.
func TestCStateBytesEstimate(t *testing.T) {
	// A synthetic-protocol-sized class vector; digit strings in base 4 over
	// the first eight classes give 4^8 distinct states.
	const nq = 20
	const m = 1 << 16

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	list := make([]*CState, 0, m)
	ix := newCIndex()
	seen := make(map[string]struct{})
	var est int64
	for i := 0; i < m; i++ {
		reps := make([]Rep, nq)
		cdata := make([]Data, nq)
		for j, d := 0, i; j < 8; j, d = j+1, d/4 {
			reps[j] = Rep(d % 4)
			if reps[j] != RZero {
				cdata[j] = DFresh
			}
		}
		s := newCState(reps, cdata, CountOne, DFresh)
		list = append(list, s)
		ix.add(s)
		seen[s.Key()] = struct{}{}
		est += cstateBytes(s)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := float64(after.HeapAlloc-before.HeapAlloc) / float64(m)
	perState := float64(est) / float64(m)
	if measured < perState/2 || measured > perState*2 {
		t.Fatalf("cstateBytes = %.1f but measured %.1f B/state over %d states; estimate off by more than 2x",
			perState, measured, m)
	}
	t.Logf("cstateBytes = %.1f, measured %.1f B/state", perState, measured)
	runtime.KeepAlive(list)
	runtime.KeepAlive(ix)
	runtime.KeepAlive(seen)
}

// TestRecordBytesEstimate pins the per-record term of estBytes against
// measured heap growth. Every generated key keeps a record: the slab entry,
// its map slot, and the interned state (struct and key string, the key
// shared with the map). The test records a large population of distinct
// states the way processItem does and requires the estimate's per-record
// cost to stay within a factor of two of the allocator's in either
// direction.
func TestRecordBytesEstimate(t *testing.T) {
	p, err := protocols.Synthetic(18) // 20 classes, as above
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	const m = 1 << 16
	parent := e.Initial()
	label := Label{Op: fsm.OpRead, Origin: p.States[0]}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	x := newExpander(e, Options{})
	for i := 0; i < m; i++ {
		reps := make([]Rep, e.n)
		cdata := make([]Data, e.n)
		for j, d := 0, i; j < 8; j, d = j+1, d/4 {
			reps[j] = Rep(d % 4)
			if reps[j] != RZero {
				cdata[j] = DFresh
			}
		}
		s := newCState(reps, cdata, CountOne, DFresh)
		x.record(s.Key(), s, parent, label)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(x.recs) != m || x.listBytes != 0 {
		t.Fatalf("%d records and %d list bytes, want %d and 0", len(x.recs), x.listBytes, m)
	}
	measured := float64(after.HeapAlloc-before.HeapAlloc) / float64(m)
	perRecord := float64(x.estBytes()) / float64(m)
	if measured < perRecord/2 || measured > perRecord*2 {
		t.Fatalf("estBytes charges %.1f but measured %.1f B/record over %d records; estimate off by more than 2x",
			perRecord, measured, m)
	}
	t.Logf("estBytes charges %.1f, measured %.1f B/record", perRecord, measured)
	runtime.KeepAlive(x)
}
