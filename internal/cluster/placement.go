package cluster

import (
	"fmt"
	"slices"
	"sort"

	"indep"
	"indep/internal/hashkey"
)

// Placement maps every relation — and every hash range of a partitionable
// relation — to its owning shard. It is computed once at router startup
// from the schema analysis and the membership, is identical on every router
// over the same inputs, and never changes while the process runs.
type Placement struct {
	parts  int
	shards []string // member names in membership order; owner indices index it
	rels   map[string]*relPlace
	byRel  []*relPlace // the same placements by relation index
}

type relPlace struct {
	// key lists the partition-key attributes in schema order; nil means the
	// relation is unpartitionable (no FDs with a common LHS attribute, or a
	// non-independent schema) and lives whole on owners[0].
	key    []string
	pos    []int // each key attribute's position in the relation's tuples
	owners []int // one shard index per hash range; length 1 when key is nil
}

// PlanPlacement computes the placement. parts is the number of hash ranges
// a partitionable relation is split into (more ranges spread a hot relation
// over more shards; parts below the shard count caps the spread). When the
// analysis is not independent every relation is pinned whole to the ring
// owner of the empty name — one designated shard — because validation then
// needs the entire state in one place; the router reports this as fallback
// mode.
func PlanPlacement(sch *indep.Schema, an *indep.Analysis, members []Member, parts, vnodes int) *Placement {
	if parts < 1 {
		parts = 1
	}
	ring := NewRing(members, vnodes)
	p := &Placement{parts: parts, rels: make(map[string]*relPlace)}
	shard := make(map[string]int, len(members))
	for i, m := range members {
		p.shards = append(p.shards, m.Name)
		shard[m.Name] = i
	}
	owner := func(h uint64) int { return shard[ring.Owner(h)] }
	for _, rel := range sch.Relations() {
		rp := &relPlace{}
		switch key := an.PartitionKeys[rel]; {
		case !an.Independent:
			rp.owners = []int{owner(hashkey.Str(hashkey.Init, ""))}
		case len(key) == 0:
			rp.owners = []int{owner(hashkey.Str(hashkey.Init, rel))}
		default:
			attrs, _ := sch.RelationAttrs(rel)
			rp.key, rp.owners = key, make([]int, parts)
			for _, a := range key {
				rp.pos = append(rp.pos, slices.Index(attrs, a))
			}
			for i := range rp.owners {
				rp.owners[i] = owner(hashkey.Mix(hashkey.Str(hashkey.Init, rel), uint64(i)))
			}
		}
		p.rels[rel] = rp
		p.byRel = append(p.byRel, rp)
	}
	return p
}

// part returns the hash range of rp's row whose k-th key attribute holds
// key(k). Owner and route both place rows through it, so a row placed by
// names and the same row placed by its payload bytes land together.
func part[S ~string | ~[]byte](p *Placement, rp *relPlace, key func(k int) S) int {
	if rp.key == nil {
		return 0
	}
	h := hashkey.Init
	for k := range rp.key {
		h = hashkey.Str(h, key(k))
	}
	return hashkey.Range(h, p.parts)
}

// Owner returns the shard owning the row of the relation: the owner of the
// hash range the row's partition-key values fall into. The row must hold a
// value for every key attribute (a full row always does).
func (p *Placement) Owner(rel string, row map[string]string) (string, error) {
	rp := p.rels[rel]
	if rp == nil {
		return "", fmt.Errorf("cluster: unknown relation %q", rel)
	}
	missing := ""
	i := part(p, rp, func(k int) string {
		v, ok := row[rp.key[k]]
		if !ok && missing == "" {
			missing = rp.key[k]
		}
		return v
	})
	if missing != "" {
		return "", fmt.Errorf("cluster: row of %s misses partition-key attribute %s", rel, missing)
	}
	return p.shards[rp.owners[i]], nil
}

// route returns the index, in membership order, of the shard owning a row
// of relation index rel whose j-th tuple value is named name(j) — the
// placement Owner computes, read off a binary batch payload without a row
// (see indep.Schema.SplitBinBatch). rel must be a relation index of the
// schema.
func (p *Placement) route(rel int, name func(j int) []byte) int {
	rp := p.byRel[rel]
	return rp.owners[part(p, rp, func(k int) []byte { return name(rp.pos[k]) })]
}

// Owners returns the distinct shards holding any fragment of the relation —
// the gather set for that relation — in sorted order.
func (p *Placement) Owners(rel string) []string {
	rp := p.rels[rel]
	if rp == nil {
		return nil
	}
	seen := make(map[int]bool, len(rp.owners))
	var out []string
	for _, o := range rp.owners {
		if !seen[o] {
			seen[o] = true
			out = append(out, p.shards[o])
		}
	}
	sort.Strings(out)
	return out
}

// PartitionKey returns the partition-key attributes of the relation (nil
// when it is unpartitioned), for status reporting.
func (p *Placement) PartitionKey(rel string) []string { return p.rels[rel].key }

// Parts returns the number of hash ranges per partitionable relation.
func (p *Placement) Parts() int { return p.parts }
