// Package cluster is the sharded serving tier: a routing layer that spreads
// an independent schema's relations — and hash ranges of their tuples —
// across shard daemons, with no cross-shard coordination on the write path.
//
// The placement rule is the paper's independence theorem read as a
// distribution theorem. In an independent schema every insert is validated
// by a per-relation guard that only compares tuples agreeing on the
// left-hand side of some cover FD. The partition key of a relation is the
// intersection of those left-hand sides (Analysis.PartitionKeys): any two
// tuples that could ever interact under the guard agree on the key, so
// hashing the key's value names sends every potential conflict to the same
// shard, and each shard validates its fragment with only local state. The
// global state is consistent iff every shard's fragment is — which is
// exactly what independence (LSAT = WSAT) guarantees. A relation whose
// left-hand sides share no attribute cannot be split this way and lives
// whole on one shard; a non-independent schema cannot be split at all and
// falls back to a single serialized node behind the router.
//
// Reads use the same theorem in the other direction. A window plan knows
// precisely which relations an evaluation consults
// (Schema.WindowFetches): the contributing relations plus those the
// extension tableaux of the window's attributes take valuations against,
// and the answer is a pure function of those relations' contents. A
// relation that could only repeat rows of a contributor holding the whole
// window is no contributor, so a star schema's dimension point window
// consults the dimension alone. Two read paths follow:
//   - A window consulting one relation distributes over that relation's
//     fragments, so the router sends the query to the owners and merges
//     their answers on name ranks: sorted column by column and cut to Limit,
//     with duplicates dropped and counted once when the owners' answers can
//     overlap (a partition-key attribute neither output nor bound by
//     Where). A Where binding the whole partition key goes to the one owner
//     of that hash range.
//   - A window consulting several relations is evaluated on the router: of
//     each relation R it gathers the window over R's scheme that Where's
//     share of R selects (Schema.WindowFetches; the share may be empty)
//     through the owners' window endpoint, and evaluates over the assembled
//     state.
//
// Either way the answer is identical to a single node's, in IWIN1 byte for
// byte: the encoding binds names in ascending order under ids 1..n.
//
// Membership is static: a parsed -shards list placed on a consistent-hash
// ring with virtual nodes, so adding a shard to the list moves only the
// ranges it takes over. There is no failover or rebalancing; an unreachable
// shard makes its ranges unavailable (503 with Retry-After) until it
// returns.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"indep/internal/hashkey"
)

// Member is one shard of the static membership: a short name (the label on
// metrics and reports) and the base URL its daemon listens on.
type Member struct {
	Name string
	URL  string
}

// ParseMembers parses a -shards flag value: comma-separated name=url pairs,
// e.g. "shard1=http://10.0.0.1:8080,shard2=http://10.0.0.2:8080". Names
// must be unique and non-empty; order is irrelevant (placement depends only
// on the name set).
func ParseMembers(s string) ([]Member, error) {
	var out []Member
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad shard %q (want name=url)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", name)
		}
		seen[name] = true
		out = append(out, Member{Name: name, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty shard list")
	}
	return out, nil
}

// Ring is a consistent-hash ring over the member names: each member
// projects vnodes points onto the 64-bit hash circle, and a key is owned by
// the first point at or clockwise of its hash. Placement depends only on
// the name set, so every router over the same membership computes the same
// ring, and removing a member moves only the keys it owned.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	owner string
}

// NewRing builds the ring. vnodes points per member smooth the load split;
// 64 keeps the largest/smallest member spread within a few percent.
func NewRing(members []Member, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = 1
	}
	r := &Ring{points: make([]ringPoint, 0, len(members)*vnodes)}
	for _, m := range members {
		h := hashkey.Str(hashkey.Init, m.Name)
		for v := 0; v < vnodes; v++ {
			h = hashkey.Mix(h, uint64(v)+1)
			r.points = append(r.points, ringPoint{hash: h, owner: m.Name})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.owner < b.owner // deterministic on (vanishingly rare) ties
	})
	return r
}

// Owner returns the member name owning the hash.
func (r *Ring) Owner(h uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point
	}
	return r.points[i].owner
}
