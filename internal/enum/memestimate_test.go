package enum

import (
	"runtime"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/stateset"
)

// TestStateBytesEstimate pins the estBytes memory model against measured
// heap growth. The estimate drives the MaxBytes budget (and the spill
// threshold of out-of-core runs), so it must track what one admitted
// state actually costs: its key in the visited set, its tuple in the
// tuple set, its provenance record, and its representative and rank in
// the frontier slab. The test builds exactly the structures estBytes sums
// — for a large population of distinct states — and requires the
// estimate to stay within a factor of two of the allocator's per-state
// cost in either direction.
func TestStateBytesEstimate(t *testing.T) {
	p := protocols.Illinois()
	const n = 7
	kc, err := newKeyCodec(p, n, ModeStrict)
	if err != nil {
		t.Fatal(err)
	}

	// Every base-|Q| digit string of length n is a distinct state tuple, so
	// both the full keys and the tuple keys are unique.
	q := len(p.States)
	m := 1
	for i := 0; i < n; i++ {
		m *= q
	}
	mk := func(i int) *fsm.Config {
		c := fsm.NewConfig(p, n)
		for j := 0; j < n; j++ {
			c.States[j] = p.States[i%q]
			i /= q
		}
		return c
	}
	reps := make([][]byte, m)
	for i := range reps {
		reps[i] = kc.encode(mk(i), nil)
	}

	// The doubled GC drains sync.Pool victim caches left by earlier tests,
	// which otherwise release memory mid-measurement; the delta is signed
	// for the same reason.
	gc2 := func() { runtime.GC(); runtime.GC() }
	var before, after runtime.MemStats
	gc2()
	runtime.ReadMemStats(&before)

	visited, tuples := stateset.New(kc.w), stateset.New(kc.w-1)
	parents := make([]parentRec, 0, m)
	var f frontier
	var tuple []byte
	for i, rep := range reps {
		r := visited.Insert(rep)
		parents = append(parents, parentRec{parent: r, cache: uint16(i % n), op: 0})
		if tuple = kc.tupleOf(rep, tuple); !tuples.Has(tuple) {
			tuples.Insert(tuple)
		}
		f.push(rep, r)
	}

	gc2()
	runtime.ReadMemStats(&after)
	measured := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(m)
	est := float64(visited.Bytes()+tuples.Bytes()+
		int64(cap(parents))*parentRecBytes+
		int64(f.len())*frontierBytes(kc.w)) / float64(m)
	if measured < est/2 || measured > est*2 {
		t.Fatalf("estBytes model says %.1f B/state but measured %.1f B/state over %d states; estimate off by more than 2x",
			est, measured, m)
	}
	t.Logf("estBytes model %.1f B/state, measured %.1f B/state over %d states", est, measured, m)
	runtime.KeepAlive(visited)
	runtime.KeepAlive(parents)
	runtime.KeepAlive(tuples)
	runtime.KeepAlive(&f)
	runtime.KeepAlive(reps)
}

// TestCompactVisitedSetFootprint pins the headline of the compact store:
// at least 4× fewer resident bytes per state than the seed's map-based
// model (24n+560 for visited+parents+tuples+frontier bookkeeping, of
// which the three map entries were ~3×(48+overhead) ≈ 430 bytes at n=7).
// The compact layout stores n+5 bytes per visited entry plus 8 bytes of
// provenance, so the ratio is enormous; the test guards the 4× floor
// with real heap measurements rather than the model.
func TestCompactVisitedSetFootprint(t *testing.T) {
	p := protocols.Illinois()
	const n = 7
	kc, err := newKeyCodec(p, n, ModeStrict)
	if err != nil {
		t.Fatal(err)
	}
	q := len(p.States)
	m := 1
	for i := 0; i < n; i++ {
		m *= q
	}
	// legacyKey is the seed's 80-byte map key: a fixed packed array plus a
	// string for keys too wide to pack.
	type legacyKey struct {
		packed [64]byte
		str    string
	}
	keys := make([][]byte, 0, m)
	mk := func(i int) []byte {
		c := fsm.NewConfig(p, n)
		for j := 0; j < n; j++ {
			c.States[j] = p.States[i%q]
			i /= q
		}
		return kc.encode(c, nil)
	}
	for i := 0; i < m; i++ {
		keys = append(keys, mk(i))
	}

	// Both structures are built in sequence and held alive together, so
	// each delta measures only its own build (no interleaved frees). The
	// doubled GC drains sync.Pool victim caches left by earlier tests,
	// which otherwise release memory mid-measurement.
	gc2 := func() { runtime.GC(); runtime.GC() }
	var m0, m1, m2 runtime.MemStats
	gc2()
	runtime.ReadMemStats(&m0)
	legacyVis := make(map[legacyKey]bool)
	legacyPar := make(map[legacyKey]parentRec)
	for _, k := range keys {
		var lk legacyKey
		copy(lk.packed[:], k)
		legacyVis[lk] = true
		legacyPar[lk] = parentRec{}
	}
	gc2()
	runtime.ReadMemStats(&m1)
	cs := stateset.New(kc.w)
	compactPar := make([]parentRec, 0, m)
	for _, k := range keys {
		compactPar = append(compactPar, parentRec{parent: cs.Insert(k)})
	}
	gc2()
	runtime.ReadMemStats(&m2)

	legacy := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(m)
	compact := float64(int64(m2.HeapAlloc)-int64(m1.HeapAlloc)) / float64(m)
	runtime.KeepAlive(keys) // dies after the compact loop otherwise, skewing m2
	runtime.KeepAlive(legacyVis)
	runtime.KeepAlive(legacyPar)
	runtime.KeepAlive(cs)
	runtime.KeepAlive(compactPar)
	if compact <= 0 {
		t.Fatalf("implausible compact measurement: %.1f B/state", compact)
	}
	ratio := legacy / compact
	t.Logf("visited-set footprint: legacy map %.1f B/state, compact %.1f B/state (%.1fx)", legacy, compact, ratio)
	if ratio < 4 {
		t.Fatalf("compact visited set saves only %.1fx over the map path, want >= 4x", ratio)
	}
}
