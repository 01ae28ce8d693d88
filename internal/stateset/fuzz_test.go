package stateset

import (
	"math/rand"
	"testing"
)

// FuzzNewBlobReader feeds arbitrary bytes to the spill-blob decoder,
// seeded from a real Spill blob and its truncations. Every input must
// either be rejected with an error or yield a reader whose Len matches
// the blob's framing and the entries ForEach visits, and whose ForEach
// and Rank do not panic.
func FuzzNewBlobReader(f *testing.F) {
	s := New(6)
	for _, k := range randomKeys(rand.New(rand.NewSource(1)), 6, 300) {
		s.Insert(k)
	}
	blob := s.Spill()
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:len(blobMagic)+1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		r, err := NewBlobReader(blob)
		if err != nil {
			return
		}
		header := len(blobMagic) + 1 + numShards*4
		if want := header + r.Len()*(r.Width()+4); want != len(blob) {
			t.Fatalf("reader claims %d entries of width %d: framing needs %d bytes, blob has %d",
				r.Len(), r.Width(), want, len(blob))
		}
		seen := 0
		r.ForEach(func(k []byte, _ uint32) {
			seen++
			if len(k) != r.Width() {
				t.Fatalf("ForEach key of %d bytes, width %d", len(k), r.Width())
			}
			r.Rank(k)
		})
		if seen != r.Len() {
			t.Fatalf("ForEach visited %d entries, Len is %d", seen, r.Len())
		}
		r.Has(make([]byte, r.Width()))
	})
}
