package enum

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/randproto"
	"repro/internal/runctl"
)

// TestPackedKeyPartitionMatchesLegacy is the correctness property of the
// packed keys: over random well-formed protocols and random walks through
// their concrete state spaces, the packed keys must induce exactly the
// same partition as the canonical strings in both equivalence modes — two
// configurations collide under keyOf(encode) if and only if they collide
// under strictKey/countingKey. Alongside the partition the test pins the
// rendering (render must reproduce the string byte for byte, since
// checkpoints store it), the parse round-trip, and that encoding a raw
// successor equals encoding it canonicalized.
func TestPackedKeyPartitionMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randproto.New(rng, 1+rng.Intn(4))
		n := 2 + rng.Intn(3)
		for _, mode := range []string{ModeStrict, ModeCounting} {
			checkKeyPartition(t, p, n, mode, rng, 200)
		}
	}
}

// checkKeyPartition walks steps random fsm.Step moves from the initial
// configuration and checks the packed keys of every configuration reached
// against the canonical strings.
func checkKeyPartition(t *testing.T, p *fsm.Protocol, n int, mode string, rng *rand.Rand, steps int) {
	t.Helper()
	kc, err := newKeyCodec(p, n, mode)
	if err != nil {
		t.Fatal(err)
	}
	legacy := func(c *fsm.Config) string {
		s, err := CanonicalKey(c, mode)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	byLegacy := map[string]string{}
	byKey := map[string]string{}
	c := fsm.NewConfig(p, n)
	Canonicalize(c)
	for step := 0; step < steps; step++ {
		if _, err := fsm.Step(p, c, rng.Intn(n), p.Ops[rng.Intn(len(p.Ops))]); err != nil {
			t.Fatalf("%s n=%d mode %s: step: %v", p.Name, n, mode, err)
		}
		raw := kc.encode(c, nil)
		Canonicalize(c)
		rep := kc.encode(c, nil)
		k := string(kc.keyOf(rep, nil))
		lk := legacy(c)
		if !bytes.Equal(raw, rep) {
			t.Fatalf("%s n=%d mode %s: the raw successor encodes differently from %q", p.Name, n, mode, lk)
		}
		if prev, ok := byLegacy[lk]; ok && prev != k {
			t.Fatalf("%s n=%d mode %s: canonical key %q maps to two packed keys", p.Name, n, mode, lk)
		}
		byLegacy[lk] = k
		if prev, ok := byKey[k]; ok && prev != lk {
			t.Fatalf("%s n=%d mode %s: packed key of %q collides with %q", p.Name, n, mode, lk, prev)
		}
		byKey[k] = lk

		if got := kc.render([]byte(k)); got != lk {
			t.Fatalf("%s n=%d mode %s: render = %q, legacy = %q", p.Name, n, mode, got, lk)
		}
		rk, err := kc.parse(lk)
		if err != nil {
			t.Fatalf("%s n=%d mode %s: parse: %v", p.Name, n, mode, err)
		}
		if string(rk) != k {
			t.Fatalf("%s n=%d mode %s: parse(render) changed key of %q", p.Name, n, mode, lk)
		}
		if got := kc.decode(rep).Key(); got != c.Key() {
			t.Fatalf("%s n=%d mode %s: decode(encode) = %q, want %q", p.Name, n, mode, got, c.Key())
		}

		tk := kc.tupleOf(rep, nil)
		if got := kc.renderTuple(tk); got != c.StateKey() {
			t.Fatalf("%s n=%d mode %s: renderTuple = %q, StateKey = %q", p.Name, n, mode, got, c.StateKey())
		}
		rtk, err := kc.parseTuple(c.StateKey())
		if err != nil {
			t.Fatalf("%s n=%d mode %s: parseTuple: %v", p.Name, n, mode, err)
		}
		if !bytes.Equal(rtk, tk) {
			t.Fatalf("%s n=%d mode %s: parseTuple(renderTuple) changed key", p.Name, n, mode)
		}
	}
}

// TestWideKeyLargeN checks the widened keys where the engine used to fall
// back to strings: 64 and 70 caches (past the old 63-cache limit) and
// Synthetic(64), whose 66 states need two-byte cells. The packed keys must
// still induce the canonical strings' partition and render them exactly.
func TestWideKeyLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wide, err := protocols.Synthetic(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p  *fsm.Protocol
		n  int
		cb int
	}{{protocols.Illinois(), 64, 1}, {protocols.Dragon(), 70, 1}, {wide, 3, 2}} {
		for _, mode := range []string{ModeStrict, ModeCounting} {
			kc, err := newKeyCodec(tc.p, tc.n, mode)
			if err != nil {
				t.Fatal(err)
			}
			if kc.cb != tc.cb || kc.w != tc.n*tc.cb+1 {
				t.Fatalf("%s n=%d: %d-byte cells and %d-byte keys, want %d-byte cells", tc.p.Name, tc.n, kc.cb, kc.w, tc.cb)
			}
			checkKeyPartition(t, tc.p, tc.n, mode, rng, 300)
		}
	}
}

// TestOldCheckpointVersionRejected pins the failure mode for checkpoints
// written by builds that keyed states with raw strings (version 1): both the
// decoder and the resume path must fail loudly, naming the found and the
// supported version, instead of misreading the old format.
func TestOldCheckpointVersionRejected(t *testing.T) {
	p := protocols.Illinois()
	partial, err := Run(cancelAtLevel(t, 2), p, 4, Options{RunConfig: runctl.RunConfig{CheckpointOnStop: true}})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Checkpoint == nil {
		t.Fatal("CheckpointOnStop run carries no checkpoint")
	}

	cp := *partial.Checkpoint
	cp.Version = 1

	if _, err := Run(context.Background(), p, 0, Options{Resume: &cp}); err == nil {
		t.Fatal("resume accepted a version-1 checkpoint")
	} else if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("resume error must name both versions, got: %v", err)
	}

	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(data); err == nil {
		t.Fatal("decoder accepted a version-1 checkpoint")
	} else if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("decode error must name both versions, got: %v", err)
	}
}
