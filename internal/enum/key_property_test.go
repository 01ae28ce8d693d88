package enum

import (
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
// packed state-identity layer: over random well-formed protocols and random
// walks through their concrete state spaces, the packed Keys must induce
// exactly the same partition as the legacy canonical strings in both
// equivalence modes — two configurations collide under kc.key if and only if
// they collide under strictKey/countingKey. Alongside the partition the test
// pins the rendering (render must reproduce the legacy string byte for byte,
// since checkpoints store it) and the parse round-trip.
func TestPackedKeyPartitionMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randproto.New(rng, 1+rng.Intn(4))
		n := 2 + rng.Intn(3)
		for _, mode := range []string{ModeStrict, ModeCounting} {
			kc := newKeyCodec(p, n, mode)
			if !kc.packed {
				t.Fatalf("seed %d: codec unexpectedly unpacked for |Q|=%d n=%d", seed, p.NumStates(), n)
			}
			legacy := func(c *fsm.Config) string {
				if mode == ModeCounting {
					return countingKey(c)
				}
				return strictKey(c)
			}
			byLegacy := map[string]Key{}
			byKey := map[Key]string{}

			c := fsm.NewConfig(p, n)
			Canonicalize(c)
			for step := 0; step < 200; step++ {
				if _, err := fsm.Step(p, c, rng.Intn(n), p.Ops[rng.Intn(len(p.Ops))]); err != nil {
					t.Fatalf("seed %d mode %s: step: %v", seed, mode, err)
				}
				Canonicalize(c)
				k := kc.key(c)
				lk := legacy(c)

				if prev, ok := byLegacy[lk]; ok && prev != k {
					t.Fatalf("seed %d mode %s: legacy key %q maps to two packed keys", seed, mode, lk)
				}
				byLegacy[lk] = k
				if prev, ok := byKey[k]; ok && prev != lk {
					t.Fatalf("seed %d mode %s: packed key of %q collides with %q", seed, mode, lk, prev)
				}
				byKey[k] = lk

				if got := kc.render(k); got != lk {
					t.Fatalf("seed %d mode %s: render = %q, legacy = %q", seed, mode, got, lk)
				}
				rk, err := kc.parse(kc.render(k))
				if err != nil {
					t.Fatalf("seed %d mode %s: parse: %v", seed, mode, err)
				}
				if rk != k {
					t.Fatalf("seed %d mode %s: parse(render) changed key of %q", seed, mode, lk)
				}

				tk := kc.tupleKey(c)
				if got := kc.renderTuple(tk); got != c.StateKey() {
					t.Fatalf("seed %d mode %s: renderTuple = %q, StateKey = %q", seed, mode, got, c.StateKey())
				}
				rtk, err := kc.parseTuple(kc.renderTuple(tk))
				if err != nil {
					t.Fatalf("seed %d mode %s: parseTuple: %v", seed, mode, err)
				}
				if rtk != tk {
					t.Fatalf("seed %d mode %s: parseTuple(renderTuple) changed key", seed, mode)
				}
			}
		}
	}
}

// TestPackedKeyFallbackLargeN checks the transparent fallback: above the
// packed cache limit the codec must still produce the legacy partition (it
// IS the legacy string in that regime).
func TestPackedKeyFallbackLargeN(t *testing.T) {
	p := protocols.Illinois()
	n := maxPackedCaches + 1
	for _, mode := range []string{ModeStrict, ModeCounting} {
		kc := newKeyCodec(p, n, mode)
		if kc.packed {
			t.Fatalf("codec must fall back for n=%d", n)
		}
		c := fsm.NewConfig(p, n)
		Canonicalize(c)
		k := kc.key(c)
		want := strictKey(c)
		if mode == ModeCounting {
			want = countingKey(c)
		}
		if kc.render(k) != want {
			t.Fatalf("fallback render = %q, want %q", kc.render(k), want)
		}
	}
}

// TestOldCheckpointVersionRejected pins the failure mode for checkpoints
// written by builds that keyed states with raw strings (version 1): both the
// decoder and the resume path must fail loudly, naming the found and the
// supported version, instead of misreading the old format.
func TestOldCheckpointVersionRejected(t *testing.T) {
	p := protocols.Illinois()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testItemHook = func(expanded int) {
		if expanded == 5 {
			cancel()
		}
	}
	partial, err := Run(ctx, p, 4, Options{RunConfig: runctl.RunConfig{CheckpointOnStop: true}})
	testItemHook = nil
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
