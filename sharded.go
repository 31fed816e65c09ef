package qjoin

import (
	"errors"

	"github.com/quantilejoins/qjoin/internal/shard"
)

// ErrNoShardKey is returned by PrepareSharded for queries with no join
// variable to partition on (Boolean queries). Run those through Prepare.
var ErrNoShardKey = shard.ErrNoKey

// ErrCyclicSharded is returned by PrepareSharded for cyclic queries. Hash
// partitioning on one join variable does not commute with the hypertree
// decomposition a cyclic query is answered through (a bag join recombines
// rows across shard boundaries), so sharding such a query would silently
// drop answers. Run cyclic queries through Prepare, which routes them
// through a single decomposed engine.
var ErrCyclicSharded = errors.New("qjoin: cyclic query cannot be sharded; use Prepare for a single decomposed plan")

// ErrShardedPlan is returned by the operations that walk a single engine's
// structures — SampleAnswers, RankedEnumerate, Enumerate and
// BaselineQuantile — on a plan with more than one shard. (ModeSample
// reports the same refusal as an *ArgError on the mode field.)
var ErrShardedPlan = errors.New("qjoin: operation needs a single engine; the plan has more than one shard")

// ShardOf returns the shard owning a join-key value under the engine's
// deterministic hash routing. Exposed so operators can predict (and tests
// can assert) where a row lands; the same function routes rows at
// PrepareSharded time and delta ops at Update time.
func ShardOf(v Value, shards int) int { return shard.Of(v, shards) }

// PrepareSharded compiles a query against a hash-partitioned database: the
// input relations are split on a join key into N shard engines (prepared
// concurrently), and every query runs the paper's pivot loop globally across
// them — per-shard pivot candidates merge by weighted median, per-shard
// partition counts are summed, and the λ-trim broadcasts to every shard.
// Answers are exact and byte-identical to Prepare on the same database, for
// every shard count. (RunStats describing the run path — iterations,
// materialization size — are deterministic per shard count but differ
// across shard counts: the merged pivot sequence is a different, equally
// valid descent.)
//
// What sharding buys is operational: Prepare parallelizes across shards,
// and a delta routes to the shards owning its key hashes, so Update touches
// ~1/N of the compiled state.
//
// shards is the partition count (0 selects 1; validated by ValidateShards);
// the partitioning key is chosen automatically — the join variable occurring
// in the most atoms — and relations not containing the key are replicated to
// every shard. Shard engines compile concurrently on the Options
// Parallelism budget. PrepareSharded(q, db, 1) answers exactly like Prepare.
//
// Boolean queries (no variables) cannot be sharded (ErrNoShardKey), and
// neither can cyclic queries (ErrCyclicSharded); use Prepare for both.
func PrepareSharded(q *Query, db *DB, shards int, opts ...Options) (*Prepared, error) {
	if err := ValidateShards(shards); err != nil {
		return nil, err
	}
	if !IsAcyclic(q) {
		return nil, ErrCyclicSharded
	}
	if shards == 0 {
		shards = 1
	}
	o := oneOpt(opts)
	sh, err := shard.New(q, db.inner, shards, o.Parallelism)
	if err != nil {
		return nil, err
	}
	return &Prepared{q: q, db: db, engs: sh.Engines(), sh: sh, opts: o}, nil
}

// Shards returns the shard count (1 on a plan Prepare built).
func (p *Prepared) Shards() int { return len(p.engs) }

// Key returns the join variable the relations are partitioned on, or the
// empty Var on a plan Prepare built.
func (p *Prepared) Key() Var {
	if p.sh == nil {
		return ""
	}
	return p.sh.Key()
}

// Touched returns, ascending, the shards the delta's ops route to — the
// shards Update would rebuild. Ops on replicated relations (and on
// relations outside the query) route to every shard. A plan Prepare built
// has the one shard 0.
func (p *Prepared) Touched(d *Delta) []int {
	if p.sh != nil {
		return p.sh.Touched(d)
	}
	if d.Len() == 0 {
		return []int{}
	}
	return []int{0}
}
