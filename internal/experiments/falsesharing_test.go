package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestFalseSharingBlockSizeEffect(t *testing.T) {
	rows, err := FalseSharingSweep(context.Background(), []string{"illinois", "firefly"},
		4, 4, 30000, 11, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	get := func(proto string, wpb int) FalseSharingRow {
		for _, r := range rows {
			if r.Protocol == proto && r.WordsPerBlock == wpb {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", proto, wpb)
		return FalseSharingRow{}
	}

	// One word per block: processors never share a block, so there is no
	// coherence traffic at all (only cold misses).
	for _, proto := range []string{"Illinois", "Firefly"} {
		r := get(proto, 1)
		if r.Stats.Invalidations != 0 || r.Stats.Updates != 0 {
			t.Errorf("%s wpb=1: coherence traffic without sharing (%d inv, %d upd)",
				proto, r.Stats.Invalidations, r.Stats.Updates)
		}
	}

	// Invalidation protocol: false sharing turns into invalidations and
	// misses, growing with the block size.
	i2, i4 := get("Illinois", 2), get("Illinois", 4)
	if !(i4.Stats.Invalidations > i2.Stats.Invalidations && i2.Stats.Invalidations > 0) {
		t.Errorf("Illinois invalidations must grow with block size: %d then %d",
			i2.Stats.Invalidations, i4.Stats.Invalidations)
	}
	ill4, ill1 := get("Illinois", 4).Stats, get("Illinois", 1).Stats
	if ill4.MissRatio() <= ill1.MissRatio() {
		t.Error("Illinois miss ratio must degrade under false sharing")
	}

	// Update protocol: no invalidations ever; update traffic grows instead,
	// and the miss ratio stays flat.
	f2, f4 := get("Firefly", 2), get("Firefly", 4)
	if f2.Stats.Invalidations != 0 || f4.Stats.Invalidations != 0 {
		t.Error("Firefly must not invalidate")
	}
	if !(f4.Stats.Updates > f2.Stats.Updates && f2.Stats.Updates > 0) {
		t.Errorf("Firefly updates must grow with block size: %d then %d",
			f2.Stats.Updates, f4.Stats.Updates)
	}
	f4s, f1s := f4.Stats, get("Firefly", 1).Stats
	if f4s.MissRatio() > 2*f1s.MissRatio()+0.01 {
		t.Error("Firefly miss ratio must stay flat under false sharing")
	}
}

func TestRenderFalseSharing(t *testing.T) {
	var b bytes.Buffer
	if err := RenderFalseSharing(context.Background(), &b, 4, 4, 5000, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "false sharing") {
		t.Error("render incomplete")
	}
}
