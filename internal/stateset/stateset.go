// Package stateset provides a compact set over fixed-width byte keys,
// built for the enumeration engine's visited and tuple-census sets where
// a Go map's ~100+ bytes of per-entry overhead dominates the footprint
// long before the state space itself does.
//
// Entries live in one flat slab in rank order, width+4 bytes each: the
// key plus its 32-bit insertion rank. An open-addressed hash index of
// uint32 slab positions (linear probing, at most half full) answers Has
// and Rank with O(1) expected probes. Slab and index hold no pointers,
// so the garbage collector never scans them, and they grow together:
// the slab's capacity is exactly the number of entries the index admits
// before it doubles.
//
// The set is insert-only (the engines never delete states) and keys are
// assumed distinct by contract: the caller deduplicates via Has/Rank
// before Insert, exactly as the engines deduplicate before admission.
//
// Spill support: Spill sorts the resident entries once, serializes them
// into a blob of 256 sorted sections (one per first key byte) and drops
// them from memory; a blob is "SSP2", the key width as a little-endian
// uint16, then the sections, each a uint32 entry count and its entries; BlobReader answers Has/Rank against such a blob with
// binary search and no decode step, so cold entries can live on disk
// (through any envelope the caller likes — the enumeration uses ckptio's
// CRC32 envelope) and stream back for dedup at level boundaries.
package stateset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// MaxWidth is the widest key a Set holds.
const MaxWidth = 1<<16 - 1

const (
	// numShards is the number of sections of a spill blob: its entries
	// are grouped by their key's first byte.
	numShards = 256

	// minSlots is the index size allocated by the first insertion.
	minSlots = 64

	// setOverhead is the fixed cost of the Set struct and its slice
	// headers, so Bytes stays honest for an empty set.
	setOverhead = 96
)

// blobMagic prefixes a spill blob: "SSP" + format version 2. Version 1
// stored the key width in one byte.
var blobMagic = [4]byte{'S', 'S', 'P', '2'}

// headerSize is the size of a blob's magic and width fields.
const headerSize = len(blobMagic) + 2

// VersionError reports a spill blob of another format version.
type VersionError struct {
	// Version is the blob's format version byte.
	Version byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("stateset: spill blob format version %q is not supported (this build reads %q)", e.Version, blobMagic[3])
}

// Set is a compact insert-only set of fixed-width byte keys. Not safe
// for concurrent mutation; concurrent Has/Rank calls are safe between
// mutations (the engines read lock-free during a BFS level and insert
// only at the reconcile barrier).
type Set struct {
	width int // key bytes
	esize int // entry bytes: width + 4-byte rank
	count int // total inserted, including spilled entries
	// slab holds the resident entries in rank order, each the key
	// followed by its little-endian rank.
	slab []byte
	// index is the open-addressed hash index over slab: 0 marks an
	// empty slot, v > 0 the slab entry v-1. Its length is a power of
	// two, at least twice the resident count.
	index []uint32
}

// New returns an empty set over keys of exactly width bytes
// (1..MaxWidth).
func New(width int) *Set {
	if width < 1 || width > MaxWidth {
		panic(fmt.Sprintf("stateset: key width %d out of range [1,%d]", width, MaxWidth))
	}
	return &Set{width: width, esize: width + 4}
}

// Width reports the key width the set was built with.
func (s *Set) Width() int { return s.width }

// Len reports the total number of keys ever inserted, including entries
// moved out of memory by Spill.
func (s *Set) Len() int { return s.count }

// Resident reports the number of keys currently held in memory.
func (s *Set) Resident() int { return len(s.slab) / s.esize }

// Bytes reports the resident heap footprint in bytes: the slab's
// capacity, four bytes per index slot, and the fixed struct cost.
func (s *Set) Bytes() int64 {
	return int64(cap(s.slab)) + 4*int64(len(s.index)) + setOverhead
}

// Insert adds k (which must not already be present — check with Has or
// Rank first) and returns its rank: a dense id equal to the number of
// keys inserted before it, stable across Spill.
func (s *Set) Insert(k []byte) uint32 {
	s.checkWidth(k)
	r := uint32(s.count)
	s.count++
	if 2*(s.Resident()+1) > len(s.index) {
		s.resize(max(minSlots, 2*len(s.index)))
	}
	s.slab = append(s.slab, k...)
	s.slab = binary.LittleEndian.AppendUint32(s.slab, r)
	s.place(k, uint32(s.Resident()))
	return r
}

// Has reports whether k is resident in the set. Spilled entries are not
// consulted — use a BlobReader over the spill blob for those.
func (s *Set) Has(k []byte) bool {
	_, ok := s.Rank(k)
	return ok
}

// Rank returns the insertion rank of a resident key.
func (s *Set) Rank(k []byte) (uint32, bool) {
	s.checkWidth(k)
	if len(s.index) == 0 {
		return 0, false
	}
	mask := uint64(len(s.index) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		v := s.index[i]
		if v == 0 {
			return 0, false
		}
		e := s.slab[int(v-1)*s.esize:][:s.esize]
		if bytes.Equal(e[:s.width], k) {
			return binary.LittleEndian.Uint32(e[s.width:]), true
		}
	}
}

// ForEach calls f for every resident key with its rank, in rank order.
// The key slice aliases internal storage: it is valid only for the
// duration of the call and must not be mutated or retained.
func (s *Set) ForEach(f func(key []byte, rank uint32)) {
	forEachEntry(s.slab, s.width, s.esize, f)
}

// Reset empties the set for reuse, keeping the capacity of its slab and
// index.
func (s *Set) Reset() {
	s.count = 0
	s.slab = s.slab[:0]
	clear(s.index)
}

// Spill serializes every resident entry into a self-describing sorted
// blob, drops them from memory, and returns the blob. Ranks keep
// increasing across spills, so a key's rank is unique over the union of
// the resident set and all spill blobs. Returns nil when nothing is
// resident.
func (s *Set) Spill() []byte {
	if len(s.slab) == 0 {
		return nil
	}
	sortEntries(s.slab, s.width, s.esize, false)
	blob := make([]byte, 0, headerSize+numShards*4+len(s.slab))
	blob = append(blob, blobMagic[:]...)
	blob = binary.LittleEndian.AppendUint16(blob, uint16(s.width))
	rest := s.slab
	for si := 0; si < numShards; si++ {
		size := 0
		for size < len(rest) && rest[size] == byte(si) {
			size += s.esize
		}
		blob = binary.LittleEndian.AppendUint32(blob, uint32(size/s.esize))
		blob = append(blob, rest[:size]...)
		rest = rest[size:]
	}
	s.slab, s.index = nil, nil
	return blob
}

// Restore re-adds the entries of a spill blob produced by this set's
// own Spill, preserving their recorded ranks (Len is unchanged — the
// entries were already counted when first inserted). It exists so a
// caller whose spill write failed can roll the entries back into memory
// instead of losing them.
func (s *Set) Restore(blob []byte) error {
	br, err := NewBlobReader(blob)
	if err != nil {
		return err
	}
	if br.width != s.width {
		return fmt.Errorf("stateset: restoring blob of width %d into set of width %d", br.width, s.width)
	}
	br.ForEach(func(k []byte, r uint32) {
		s.slab = append(s.slab, k...)
		s.slab = binary.LittleEndian.AppendUint32(s.slab, r)
	})
	sortEntries(s.slab, s.width, s.esize, true)
	slots := max(minSlots, len(s.index))
	for slots < 2*s.Resident() {
		slots *= 2
	}
	s.resize(slots)
	return nil
}

// resize gives the index the given number of slots and the slab room
// for the half of them the index admits, then re-indexes every entry.
func (s *Set) resize(slots int) {
	if cap(s.slab) != slots/2*s.esize {
		slab := make([]byte, len(s.slab), slots/2*s.esize)
		copy(slab, s.slab)
		s.slab = slab
	}
	s.index = make([]uint32, slots)
	for e := 0; e < s.Resident(); e++ {
		s.place(s.slab[e*s.esize:][:s.width], uint32(e+1))
	}
}

// place stores v in the first empty slot of k's probe sequence.
func (s *Set) place(k []byte, v uint32) {
	mask := uint64(len(s.index) - 1)
	i := hashKey(k) & mask
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = v
}

// hashKey mixes a key into an index slot selector: eight bytes at a
// time through a multiply-xorshift round, finished with the murmur3
// 64-bit mixer so every key byte reaches the low bits the index masks.
func hashKey(k []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(k))
	for ; len(k) >= 8; k = k[8:] {
		h = (h ^ binary.LittleEndian.Uint64(k)) * m
		h ^= h >> 32
	}
	var t uint64
	for i, b := range k {
		t |= uint64(b) << (8 * i)
	}
	h = (h ^ t) * m
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func (s *Set) checkWidth(k []byte) {
	if len(k) != s.width {
		panic(fmt.Sprintf("stateset: key length %d, set width %d", len(k), s.width))
	}
}

func forEachEntry(buf []byte, width, esize int, f func(key []byte, rank uint32)) {
	for i := 0; i+esize <= len(buf); i += esize {
		f(buf[i:i+width], binary.LittleEndian.Uint32(buf[i+width:i+esize]))
	}
}

// searchRun binary-searches a sorted blob section for key k.
func searchRun(run []byte, width, esize int, k []byte) (uint32, bool) {
	n := len(run) / esize
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(run[i*esize:i*esize+width], k) >= 0
	})
	if i < n && bytes.Equal(run[i*esize:i*esize+width], k) {
		return binary.LittleEndian.Uint32(run[i*esize+width : i*esize+esize]), true
	}
	return 0, false
}

// sortEntries sorts width+4-byte entries in buf in place, by key bytes
// or, with byRank, by rank.
func sortEntries(buf []byte, width, esize int, byRank bool) {
	sort.Sort(&entrySorter{buf: buf, width: width, esize: esize, byRank: byRank, tmp: make([]byte, esize)})
}

type entrySorter struct {
	buf    []byte
	width  int
	esize  int
	byRank bool
	tmp    []byte // one entry
}

func (e *entrySorter) Len() int { return len(e.buf) / e.esize }

func (e *entrySorter) Less(i, j int) bool {
	a, b := e.buf[i*e.esize:][:e.esize], e.buf[j*e.esize:][:e.esize]
	if e.byRank {
		return binary.LittleEndian.Uint32(a[e.width:]) < binary.LittleEndian.Uint32(b[e.width:])
	}
	return bytes.Compare(a[:e.width], b[:e.width]) < 0
}

func (e *entrySorter) Swap(i, j int) {
	a := e.buf[i*e.esize : (i+1)*e.esize]
	b := e.buf[j*e.esize : (j+1)*e.esize]
	copy(e.tmp, a)
	copy(a, b)
	copy(b, e.tmp)
}

// BlobReader answers membership and rank queries against a spill blob
// produced by Spill, without decoding it into per-entry structures.
type BlobReader struct {
	width    int
	esize    int
	count    int
	sections [numShards][]byte // sorted entries per shard, aliasing blob
}

// NewBlobReader validates blob framing and returns a reader over it.
// The reader aliases blob; the caller must keep blob alive and
// unmodified.
func NewBlobReader(blob []byte) (*BlobReader, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("stateset: spill blob too short (%d bytes)", len(blob))
	}
	if !bytes.Equal(blob[:len(blobMagic)], blobMagic[:]) {
		if bytes.Equal(blob[:3], blobMagic[:3]) {
			return nil, &VersionError{Version: blob[3]}
		}
		return nil, fmt.Errorf("stateset: bad spill blob magic %q", blob[:len(blobMagic)])
	}
	r := &BlobReader{width: int(binary.LittleEndian.Uint16(blob[len(blobMagic):]))}
	if r.width < 1 {
		return nil, fmt.Errorf("stateset: spill blob key width %d out of range", r.width)
	}
	r.esize = r.width + 4
	rest := blob[headerSize:]
	for si := 0; si < numShards; si++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("stateset: spill blob truncated at shard %d header", si)
		}
		n := int(binary.LittleEndian.Uint32(rest[:4]))
		rest = rest[4:]
		size := n * r.esize
		if n < 0 || size < 0 || size > len(rest) {
			return nil, fmt.Errorf("stateset: spill blob truncated at shard %d (%d entries)", si, n)
		}
		r.sections[si] = rest[:size]
		r.count += n
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("stateset: %d trailing bytes after spill blob shards", len(rest))
	}
	return r, nil
}

// Width reports the key width the blob was written with.
func (r *BlobReader) Width() int { return r.width }

// Len reports the number of entries in the blob.
func (r *BlobReader) Len() int { return r.count }

// Has reports whether k is present in the blob.
func (r *BlobReader) Has(k []byte) bool {
	_, ok := r.Rank(k)
	return ok
}

// Rank returns the insertion rank recorded for k in the blob.
func (r *BlobReader) Rank(k []byte) (uint32, bool) {
	if len(k) != r.width {
		panic(fmt.Sprintf("stateset: key length %d, blob width %d", len(k), r.width))
	}
	return searchRun(r.sections[k[0]], r.width, r.esize, k)
}

// ForEach calls f for every entry in the blob with its rank. The key
// slice aliases the blob and must not be mutated or retained.
func (r *BlobReader) ForEach(f func(key []byte, rank uint32)) {
	for si := range r.sections {
		forEachEntry(r.sections[si], r.width, r.esize, f)
	}
}
