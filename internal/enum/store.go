package enum

import (
	"fmt"

	"repro/internal/fsm"
)

// parentRec is the provenance of one admitted state, indexed by its
// rank in the visited set (internal/stateset, where a key's rank is its
// admission order): the admission rank of the state it was first reached
// from, the acting cache, and the operation (an index into Protocol.Ops).
// 8 bytes per state, vs the old map[Key]parent's ~130.
type parentRec struct {
	parent uint32
	cache  uint16
	op     uint8
}

// noParent marks the initial state's record.
const noParent = ^uint32(0)

// parentRecBytes is the slice cost per provenance record.
const parentRecBytes = 8

// buildOpIndex maps each operation to its index in p.Ops for the uint8
// op field of parentRec.
func buildOpIndex(p *fsm.Protocol) (map[fsm.Op]uint8, error) {
	if len(p.Ops) > 256 {
		return nil, fmt.Errorf("enum: protocol has %d operations, provenance records support at most 256", len(p.Ops))
	}
	ix := make(map[fsm.Op]uint8, len(p.Ops))
	for i, op := range p.Ops {
		ix[op] = uint8(i)
	}
	return ix, nil
}
