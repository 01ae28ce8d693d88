package stateset

import (
	"fmt"
	"math/rand"
	"testing"
)

// setModel is the reference the model-based test checks a Set against:
// every key ever inserted with its rank (and, indexed by rank, the keys
// themselves), which of them are resident, and the spill blobs written
// so far with the keys each one holds.
type setModel struct {
	ranks    map[string]uint32
	byRank   []string
	resident map[string]bool
	blobs    []modelBlob
}

type modelBlob struct {
	data []byte
	keys map[string]uint32
}

// TestSetModel drives seeded random interleavings of Insert, Has, Rank,
// ForEach, Spill and Restore against a map[string]uint32 reference, at
// key widths 1, 3, 10 and 64 and at sizes large enough to cross several
// growths of the set's internal storage. After every operation Len and
// Resident must match the model; at the end every spilled key must be
// found, with its rank, by a BlobReader over the blob that holds it and
// by no other blob.
func TestSetModel(t *testing.T) {
	for _, tc := range []struct {
		width, ops int
	}{
		{1, 5000},
		{3, 40000},
		{10, 40000},
		{64, 12000},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("width=%d/seed=%d", tc.width, seed), func(t *testing.T) {
				runSetModel(t, tc.width, tc.ops, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func runSetModel(t *testing.T, width, ops int, rng *rand.Rand) {
	s := New(width)
	m := &setModel{ranks: map[string]uint32{}, resident: map[string]bool{}}
	// Keys are drawn from a pool bounded by the key space, so narrow
	// widths also exercise repeated probes of the same keys.
	pool := 1 << 20
	if width == 1 {
		pool = 256
	}
	randKey := func() []byte {
		k := make([]byte, width)
		if width <= 3 {
			v := rng.Intn(pool)
			for i := range k {
				k[i] = byte(v >> (8 * i))
			}
			return k
		}
		rng.Read(k)
		return k
	}
	for op := 0; op < ops; op++ {
		// Spills are rare so the resident set grows to thousands of
		// entries between them.
		switch r := rng.Intn(10000); {
		case r < 6000: // Insert a key that is not yet in the set.
			k := randKey()
			if _, dup := m.ranks[string(k)]; dup {
				continue
			}
			if s.Has(k) {
				t.Fatalf("op %d: Has(%x) before insert", op, k)
			}
			want := uint32(len(m.ranks))
			if got := s.Insert(k); got != want {
				t.Fatalf("op %d: Insert(%x) = rank %d, want %d", op, k, got, want)
			}
			m.ranks[string(k)] = want
			m.byRank = append(m.byRank, string(k))
			m.resident[string(k)] = true
		case r < 8000: // Has/Rank of a known key.
			if len(m.byRank) == 0 {
				continue
			}
			m.checkRank(t, s, []byte(m.byRank[rng.Intn(len(m.byRank))]), op)
		case r < 9970: // Has/Rank of a random probe, usually unknown.
			m.checkRank(t, s, randKey(), op)
		case r < 9997: // ForEach.
			m.checkForEach(t, s, op)
		case r < 9999: // Spill.
			m.spill(t, s, op)
		default: // Restore the newest blob.
			m.restore(t, s, op)
		}
		if s.Len() != len(m.ranks) || s.Resident() != len(m.resident) {
			t.Fatalf("op %d: Len=%d Resident=%d, model has %d and %d",
				op, s.Len(), s.Resident(), len(m.ranks), len(m.resident))
		}
	}
	m.checkForEach(t, s, ops)
	for k := range m.resident {
		m.checkRank(t, s, []byte(k), ops)
	}
	m.spill(t, s, ops)
	m.checkBlobs(t)
}

// checkRank compares Has and Rank of k with the model: resident keys
// report their rank; spilled and unknown keys report absence.
func (m *setModel) checkRank(t *testing.T, s *Set, k []byte, op int) {
	t.Helper()
	want, known := m.ranks[string(k)]
	wantOK := known && m.resident[string(k)]
	got, ok := s.Rank(k)
	if ok != wantOK || (ok && got != want) {
		t.Fatalf("op %d: Rank(%x) = %d,%v, model says %d,%v", op, k, got, ok, want, wantOK)
	}
	if s.Has(k) != wantOK {
		t.Fatalf("op %d: Has(%x) = %v, model says %v", op, k, !wantOK, wantOK)
	}
}

// checkForEach requires ForEach to yield exactly the resident keys,
// each once and with its rank.
func (m *setModel) checkForEach(t *testing.T, s *Set, op int) {
	t.Helper()
	seen := make(map[string]bool, len(m.resident))
	s.ForEach(func(k []byte, r uint32) {
		ks := string(k)
		if !m.resident[ks] || m.ranks[ks] != r {
			t.Fatalf("op %d: ForEach yielded %x rank %d, not a resident model entry", op, k, r)
		}
		if seen[ks] {
			t.Fatalf("op %d: ForEach yielded %x twice", op, k)
		}
		seen[ks] = true
	})
	if len(seen) != len(m.resident) {
		t.Fatalf("op %d: ForEach yielded %d keys, %d resident", op, len(seen), len(m.resident))
	}
}

// spill moves every resident key into a new blob, which must hold
// exactly those keys with their ranks.
func (m *setModel) spill(t *testing.T, s *Set, op int) {
	t.Helper()
	blob := s.Spill()
	if len(m.resident) == 0 {
		if blob != nil {
			t.Fatalf("op %d: Spill with nothing resident returned %d bytes", op, len(blob))
		}
		return
	}
	br, err := NewBlobReader(blob)
	if err != nil {
		t.Fatalf("op %d: NewBlobReader(Spill()): %v", op, err)
	}
	if br.Len() != len(m.resident) || br.Width() != s.Width() {
		t.Fatalf("op %d: blob Len=%d Width=%d, want %d and %d", op, br.Len(), br.Width(), len(m.resident), s.Width())
	}
	mb := modelBlob{data: blob, keys: make(map[string]uint32, len(m.resident))}
	for k := range m.resident {
		mb.keys[k] = m.ranks[k]
	}
	m.blobs = append(m.blobs, mb)
	m.resident = map[string]bool{}
}

// restore rolls the newest blob back into the set, as the enumeration
// does when a spill write fails; the blob then no longer counts as
// spilled.
func (m *setModel) restore(t *testing.T, s *Set, op int) {
	t.Helper()
	if len(m.blobs) == 0 {
		return
	}
	mb := m.blobs[len(m.blobs)-1]
	m.blobs = m.blobs[:len(m.blobs)-1]
	if err := s.Restore(mb.data); err != nil {
		t.Fatalf("op %d: Restore: %v", op, err)
	}
	for k := range mb.keys {
		m.resident[k] = true
	}
}

// checkBlobs looks up every spilled key in every blob: it must be found,
// with its rank, exactly in the blob that holds it.
func (m *setModel) checkBlobs(t *testing.T) {
	t.Helper()
	for i, mb := range m.blobs {
		br, err := NewBlobReader(mb.data)
		if err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
		n := 0
		br.ForEach(func(k []byte, r uint32) {
			if want, ok := mb.keys[string(k)]; !ok || want != r {
				t.Fatalf("blob %d: ForEach yielded %x rank %d, not in the blob's model", i, k, r)
			}
			n++
		})
		if n != len(mb.keys) {
			t.Fatalf("blob %d: ForEach yielded %d entries, model holds %d", i, n, len(mb.keys))
		}
		for j, other := range m.blobs {
			for k, want := range other.keys {
				got, ok := br.Rank([]byte(k))
				if inThis := i == j; ok != inThis || (ok && got != want) {
					t.Fatalf("blob %d: Rank(%x) = %d,%v; key belongs to blob %d with rank %d", i, k, got, ok, j, want)
				}
			}
		}
	}
}
