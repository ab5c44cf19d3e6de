package replt

// The cluster-side half of the harness: ShardInjector wraps a
// cluster.Transport the way Injector wraps a ReplSource, modeling the
// faults a routing tier actually sees — shards that refuse connections,
// forwards delivered twice, and a shard killed outright mid-batch. The
// claim under test is again the independence theorem: shard-local
// admission is idempotent and order-free across shards, so a router
// retrying whole payloads through this adversary converges to exactly the
// state a single node computes.

import (
	"context"
	"math/rand"
	"sync"

	"indep"
	"indep/internal/cluster"
)

// ShardFaults sets per-call fault probabilities for one shard's transport.
// Zero is a clean transport.
type ShardFaults struct {
	Disconnect float64 // the call fails as unreachable before touching the shard
	Duplicate  float64 // an ApplyPartial is forwarded twice (duplicated forward)
}

// ShardInjectorStats counts calls and the faults actually delivered.
type ShardInjectorStats struct {
	Calls, Disconnects, Duplicates, Killed int
}

// ShardInjector is a cluster.Transport that misbehaves. Kill simulates a
// kill -9: every call fails as unreachable until Revive, with no draining
// or goodbye — exactly what the router sees when a shard process dies.
type ShardInjector struct {
	Shard string
	Next  cluster.Transport

	mu     sync.Mutex
	rng    *rand.Rand
	faults ShardFaults
	killed bool
	stats  ShardInjectorStats
}

// NewShardInjector wraps next with the given fault rates, drawing from rng
// (which the injector then owns).
func NewShardInjector(shard string, next cluster.Transport, faults ShardFaults, rng *rand.Rand) *ShardInjector {
	return &ShardInjector{Shard: shard, Next: next, faults: faults, rng: rng}
}

// Kill makes every subsequent call fail as unreachable, as if the shard
// process were killed -9 mid-flight.
func (in *ShardInjector) Kill() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.killed = true
}

// Revive brings the shard back (the process was restarted; its state is
// whatever the wrapped transport's store holds).
func (in *ShardInjector) Revive() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.killed = false
}

// Stats returns the faults delivered so far.
func (in *ShardInjector) Stats() ShardInjectorStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// roll decides one call's fate: dead, disconnected, or (for ApplyPartial)
// duplicated.
func (in *ShardInjector) roll(allowDup bool) (drop, dup bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Calls++
	if in.killed {
		in.stats.Killed++
		return true, false
	}
	if in.rng.Float64() < in.faults.Disconnect {
		in.stats.Disconnects++
		return true, false
	}
	if allowDup && in.rng.Float64() < in.faults.Duplicate {
		in.stats.Duplicates++
		return false, true
	}
	return false, false
}

func (in *ShardInjector) dead() error {
	return &cluster.ShardError{Shard: in.Shard, Err: ErrInjected}
}

// ApplyPartial forwards the payload through the fault model. A duplicated
// forward applies the payload twice and returns the second report —
// shard-local admission is idempotent, so the duplicate must be invisible;
// the oracle catches it if it is not.
func (in *ShardInjector) ApplyPartial(ctx context.Context, payload []byte) (*indep.BatchReport, error) {
	drop, dup := in.roll(true)
	if drop {
		return nil, in.dead()
	}
	rep, err := in.Next.ApplyPartial(ctx, payload)
	if err != nil || !dup {
		return rep, err
	}
	return in.Next.ApplyPartial(ctx, payload)
}

// Window evaluates a window on the shard through the fault model.
func (in *ShardInjector) Window(ctx context.Context, q indep.WindowQuery) (*indep.WindowResult, error) {
	if drop, _ := in.roll(false); drop {
		return nil, in.dead()
	}
	return in.Next.Window(ctx, q)
}

// Ping reports shard health through the fault model.
func (in *ShardInjector) Ping(ctx context.Context) error {
	if drop, _ := in.roll(false); drop {
		return in.dead()
	}
	return in.Next.Ping(ctx)
}
