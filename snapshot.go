package qjoin

// Plan snapshots: Prepared.Snapshot serializes a compiled plan — raw
// database, dictionary, the compiled engine artifact(s) and warm sketch
// summaries — into the versioned, checksummed container of internal/snap,
// and LoadPlan restores it without re-running Prepare's hash passes. See
// doc.go ("Durability") for the contract: what a snapshot captures, what it
// rebuilds lazily, and the byte-identity guarantee.

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/shard"
	"github.com/quantilejoins/qjoin/internal/sketch"
	"github.com/quantilejoins/qjoin/internal/snap"
)

// Typed snapshot errors (re-exported internal/snap sentinels; test with
// errors.Is). Loaders never return a partially decoded plan: any of these
// means no plan was produced.
var (
	// ErrNotSnapshot means the stream is not a qjoin snapshot at all.
	ErrNotSnapshot = snap.ErrBadMagic
	// ErrSnapshotVersion means the snapshot was written by a different
	// format revision. Re-Prepare from source data and re-save.
	ErrSnapshotVersion = snap.ErrVersion
	// ErrSnapshotChecksum means a section failed its CRC.
	ErrSnapshotChecksum = snap.ErrChecksum
	// ErrSnapshotTruncated means the stream ended before its end marker.
	ErrSnapshotTruncated = snap.ErrTruncated
	// ErrSnapshotCorrupt means the stream decoded to structurally invalid
	// data.
	ErrSnapshotCorrupt = snap.ErrCorrupt
)

// corruptf builds an ErrSnapshotCorrupt with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCorrupt}, args...)...)
}

// Snapshot writes the plan to w in the versioned binary snapshot format:
// the raw database (with its dictionary), the compiled engine artifact of
// every shard, and every warm (non-stale) sketch summary. LoadPlan restores
// a plan whose answers — including run statistics — are byte-identical to
// the receiver's at the moment of the call. On a plan derived by Update the
// delta chain is materialized first, so the snapshot is self-contained at
// the current generation.
//
// A plan PrepareSharded built is written as the sharded kind, whose meta
// section carries the shard count and whose sketch sections carry every
// per-shard part; a plan Prepare built is written as the unsharded kind.
func (p *Prepared) Snapshot(w io.Writer) error {
	raw := p.DB()
	kind := snap.KindPrepared
	if p.sh != nil {
		kind = snap.KindSharded
	}
	sw := snap.NewWriter(w, kind)

	var e snap.Enc
	snap.EncodeQuery(&e, p.q)
	if p.sh != nil {
		e.U32(uint32(len(p.engs)))
	}
	if err := sw.Section(snap.SecMeta, e.Bytes()); err != nil {
		return err
	}
	rw, err := writeRawDB(sw, raw)
	if err != nil {
		return err
	}
	for _, eng := range p.engs {
		e = snap.Enc{}
		snap.EncodeEngine(&e, rw, eng)
		if err := sw.Section(snap.SecEngine, e.Bytes()); err != nil {
			return err
		}
	}
	for _, s := range p.snapshotSketches() {
		e = snap.Enc{}
		e.Str(s.spec)
		if p.sh != nil {
			e.F64(s.entry.merged.Res)
			e.U32(uint32(len(s.entry.parts)))
		}
		for _, part := range s.entry.parts {
			snap.EncodeSummary(&e, part)
		}
		if err := sw.Section(snap.SecSketch, e.Bytes()); err != nil {
			return err
		}
	}
	return sw.Close()
}

// specSketch is one serializable sketch entry: wire spec plus entry.
type specSketch struct {
	spec  string
	entry *sketchEntry
}

// snapshotSketches collects the plan's serializable sketch entries: those
// certified against the current engine vector (anything else would need
// re-certification the loader cannot perform) with a wire-formattable
// ranking, sorted by spec so snapshots are byte-deterministic.
func (p *Prepared) snapshotSketches() []specSketch {
	p.skMu.Lock()
	defer p.skMu.Unlock()
	var out []specSketch
	for _, en := range p.sketches {
		if !sameEngines(en.engs, p.engs) {
			continue
		}
		spec, err := FormatRanking(en.rank)
		if err != nil {
			continue
		}
		out = append(out, specSketch{spec, en})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec < out[j].spec })
	return out
}

// LoadPlan restores a plan saved by Prepared.Snapshot, of either kind. The
// expensive compile passes (dedup hashing, node materialization, group
// indexing, counting) are skipped — only the cheap pure-function state is
// recomputed — so restoring is roughly an order of magnitude faster than
// Prepare on the same data. An optional Options value becomes the restored
// plan's defaults, exactly as with Prepare; answers are byte-identical for
// every Parallelism value and to the plan that was saved.
func LoadPlan(r io.Reader, opts ...Options) (Plan, error) {
	sr, err := snap.NewReader(r)
	if err != nil {
		return nil, err
	}
	return loadPlan(sr, oneOpt(opts))
}

// LoadPlanBytes is LoadPlan over an in-memory snapshot, skipping the stream
// copy: the restored plan's columns alias b (zero copy), so b must not be
// modified while the plan is alive. This is the fast path for blue/green
// handoff and mmap'd snapshot files.
func LoadPlanBytes(b []byte, opts ...Options) (Plan, error) {
	sr, err := snap.NewReaderBytes(b)
	if err != nil {
		return nil, err
	}
	return loadPlan(sr, oneOpt(opts))
}

// loadPlan decodes a plan while the section checksum pass runs concurrently
// (snap.Reader.Sections); the verify join gates every exit, and a checksum
// failure wins over whatever the decode made of the bad bytes.
func loadPlan(sr *snap.Reader, o Options) (*Prepared, error) {
	if sr.Kind() != snap.KindPrepared && sr.Kind() != snap.KindSharded {
		return nil, corruptf("stream holds kind %d, not a plan snapshot", sr.Kind())
	}
	secs, verify, err := sr.Sections()
	if err != nil {
		return nil, err
	}
	p, err := decodePlan(secs, sr.Kind() == snap.KindSharded, o)
	if verr := verify(); verr != nil {
		return nil, verr
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// planSections validates the fixed section sequence of a plan snapshot —
// Meta, Dict, RawDB, nEngines× Engine, any number of Sketch — and splits it.
func planSections(secs []snap.Section, nEngines int) (meta, dict, rawdb []byte, engs [][]byte, sks [][]byte, err error) {
	want := []uint32{snap.SecMeta, snap.SecDict, snap.SecRawDB}
	if len(secs) < len(want)+nEngines {
		return nil, nil, nil, nil, nil, corruptf("plan snapshot has %d sections", len(secs))
	}
	for i, id := range want {
		if secs[i].ID != id {
			return nil, nil, nil, nil, nil, corruptf("section %d has id %d, want %d", i, secs[i].ID, id)
		}
	}
	meta, dict, rawdb = secs[0].Payload, secs[1].Payload, secs[2].Payload
	rest := secs[3:]
	for i := 0; i < nEngines; i++ {
		if rest[i].ID != snap.SecEngine {
			return nil, nil, nil, nil, nil, corruptf("expected engine section, got id %d", rest[i].ID)
		}
		engs = append(engs, rest[i].Payload)
	}
	for _, s := range rest[nEngines:] {
		if s.ID != snap.SecSketch {
			return nil, nil, nil, nil, nil, corruptf("unexpected section id %d", s.ID)
		}
		sks = append(sks, s.Payload)
	}
	return meta, dict, rawdb, engs, sks, nil
}

// decodePlan decodes a plan of either kind. The two layouts differ only in
// the shard count the sharded meta section carries and in the sharded
// sketch sections' resolution and part count; the sharded kind replays the
// partition through shard.Restore.
func decodePlan(secs []snap.Section, sharded bool, o Options) (*Prepared, error) {
	if len(secs) < 1 || secs[0].ID != snap.SecMeta {
		return nil, corruptf("missing meta section")
	}
	d := snap.NewDec(secs[0].Payload)
	src := snap.DecodeQuery(d)
	shards := 1
	if sharded {
		shards = int(d.U32())
	}
	if d.Err() != nil || !d.Done() {
		return nil, corruptf("bad meta section")
	}
	if shards < 1 || shards > MaxShards {
		return nil, corruptf("shard count %d", shards)
	}
	_, dictPl, rawPl, engPls, skPls, err := planSections(secs, shards)
	if err != nil {
		return nil, err
	}
	db, rd, err := decodeRawDB(dictPl, rawPl)
	if err != nil {
		return nil, err
	}
	p := &Prepared{q: src, db: db, opts: o}
	if sharded {
		sh, err := shard.Restore(src, db.inner, shards, o.Parallelism,
			func(i int, q *Query, sdb *relation.Database, per int) (*engine.Engine, error) {
				d := snap.NewDec(engPls[i])
				eng, err := snap.DecodeEngine(d, rd, sdb, per)
				if err != nil {
					return nil, err
				}
				if !d.Done() {
					return nil, corruptf("trailing bytes in engine section %d", i)
				}
				if eng.Query().String() != q.String() {
					return nil, corruptf("shard %d engine query %s does not match partition query %s", i, eng.Query(), q)
				}
				return eng, nil
			})
		if err != nil {
			return nil, asSnapshotErr(err)
		}
		p.sh, p.engs = sh, sh.Engines()
	} else {
		d = snap.NewDec(engPls[0])
		eng, err := snap.DecodeEngine(d, rd, db.inner, o.Parallelism)
		if err != nil {
			return nil, err
		}
		if !d.Done() {
			return nil, corruptf("trailing bytes in engine section")
		}
		if eng.Source().String() != src.String() {
			return nil, corruptf("engine query %s does not match plan query %s", eng.Source(), src)
		}
		p.engs = []*engine.Engine{eng}
	}
	for _, pl := range skPls {
		d := snap.NewDec(pl)
		spec := d.Str()
		if sharded {
			d.F64() // the resolution, which every part also records
			if nparts := int(d.U32()); d.Err() == nil && nparts != shards {
				return nil, corruptf("sketch %q has %d parts, plan has %d shards", spec, nparts, shards)
			}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		parts := make([]*sketch.Summary, shards)
		for i := range parts {
			if parts[i], err = snap.DecodeSummary(d); err != nil {
				return nil, err
			}
		}
		if !d.Done() {
			return nil, corruptf("trailing bytes in sketch section")
		}
		f, err := ParseRanking(spec)
		if err != nil {
			return nil, corruptf("sketch ranking %q: %v", spec, err)
		}
		if err := f.Validate(p.q); err != nil {
			return nil, corruptf("sketch ranking %q does not fit query: %v", spec, err)
		}
		if p.sketches == nil {
			p.sketches = make(map[ranking.Key]*sketchEntry)
		}
		p.sketches[f.Key()] = newSketchEntry(parts, p.engs, f)
	}
	return p, nil
}

// writeRawDB writes the dictionary and raw database sections that plan and
// dataset snapshots share. The returned RelWriter carries the relation
// backref registry into the engine sections.
func writeRawDB(sw *snap.Writer, db *DB) (*snap.RelWriter, error) {
	var e snap.Enc
	snap.EncodeDict(&e, db.inner.Dict())
	if err := sw.Section(snap.SecDict, e.Bytes()); err != nil {
		return nil, err
	}
	rw := snap.NewRelWriter()
	e = snap.Enc{}
	snap.EncodeDatabase(&e, rw, db.inner)
	return rw, sw.Section(snap.SecRawDB, e.Bytes())
}

// decodeRawDB decodes the dictionary and raw database sections, attaching
// the dictionary. The returned RelReader carries the relation backref
// registry into the engine sections.
func decodeRawDB(dictPl, rawPl []byte) (*DB, *snap.RelReader, error) {
	d := snap.NewDec(dictPl)
	dict, err := snap.DecodeDict(d)
	if err != nil {
		return nil, nil, err
	}
	if !d.Done() {
		return nil, nil, corruptf("trailing bytes in dictionary section")
	}
	rd := snap.NewRelReader()
	d = snap.NewDec(rawPl)
	inner, err := snap.DecodeDatabase(d, rd)
	if err != nil {
		return nil, nil, err
	}
	if !d.Done() {
		return nil, nil, corruptf("trailing bytes in database section")
	}
	inner.SetDict(dict)
	return &DB{inner: inner}, rd, nil
}

// DatasetMeta is the identity block of a dataset snapshot: the serving-layer
// state that must survive a restart alongside the data itself. Gen is the
// registry generation the snapshot captures; recovery reinstalls the dataset
// at exactly this generation (plus any WAL records beyond it) so responses
// after a crash report the same generation numbers as before.
type DatasetMeta struct {
	Name      string
	Gen       uint64
	Shards    int
	ShardGens []uint64
}

// SnapshotDataset writes a dataset — raw database, dictionary and the
// serving-layer identity in meta — to w in the versioned snapshot container.
// Unlike a plan snapshot it carries no compiled engine artifact: the serving
// layer recompiles plans on demand through its cache, so the dataset snapshot
// stays small and load-shaped. LoadDataset restores it.
func SnapshotDataset(w io.Writer, db *DB, meta DatasetMeta) error {
	if meta.Shards != 0 && len(meta.ShardGens) != 0 && len(meta.ShardGens) != meta.Shards {
		return fmt.Errorf("qjoin: dataset meta has %d shard generations for %d shards", len(meta.ShardGens), meta.Shards)
	}
	sw := snap.NewWriter(w, snap.KindDataset)
	var e snap.Enc
	e.Str(meta.Name)
	e.U64(meta.Gen)
	e.U32(uint32(meta.Shards))
	e.U64s(meta.ShardGens)
	if err := sw.Section(snap.SecMeta, e.Bytes()); err != nil {
		return err
	}
	if _, err := writeRawDB(sw, db); err != nil {
		return err
	}
	return sw.Close()
}

// LoadDataset restores a dataset snapshot written by SnapshotDataset.
func LoadDataset(r io.Reader) (*DB, DatasetMeta, error) {
	sr, err := snap.NewReader(r)
	if err != nil {
		return nil, DatasetMeta{}, err
	}
	return loadDataset(sr)
}

// LoadDatasetBytes is LoadDataset over an in-memory snapshot (see
// LoadPlanBytes for the aliasing contract).
func LoadDatasetBytes(b []byte) (*DB, DatasetMeta, error) {
	sr, err := snap.NewReaderBytes(b)
	if err != nil {
		return nil, DatasetMeta{}, err
	}
	return loadDataset(sr)
}

func loadDataset(sr *snap.Reader) (*DB, DatasetMeta, error) {
	if sr.Kind() != snap.KindDataset {
		return nil, DatasetMeta{}, corruptf("stream holds kind %d, want a dataset snapshot", sr.Kind())
	}
	secs, verify, err := sr.Sections()
	if err != nil {
		return nil, DatasetMeta{}, err
	}
	db, meta, err := decodeDataset(secs)
	if verr := verify(); verr != nil {
		return nil, DatasetMeta{}, verr
	}
	if err != nil {
		return nil, DatasetMeta{}, err
	}
	return db, meta, nil
}

func decodeDataset(secs []snap.Section) (*DB, DatasetMeta, error) {
	if len(secs) != 3 || secs[0].ID != snap.SecMeta || secs[1].ID != snap.SecDict || secs[2].ID != snap.SecRawDB {
		return nil, DatasetMeta{}, corruptf("dataset snapshot has the wrong section sequence")
	}
	d := snap.NewDec(secs[0].Payload)
	meta := DatasetMeta{Name: d.Str(), Gen: d.U64(), Shards: int(d.U32()), ShardGens: d.U64s()}
	if d.Err() != nil || !d.Done() {
		return nil, DatasetMeta{}, corruptf("bad dataset meta section")
	}
	if meta.Shards < 0 || meta.Shards > MaxShards {
		return nil, DatasetMeta{}, corruptf("dataset shard count %d", meta.Shards)
	}
	if len(meta.ShardGens) != 0 && len(meta.ShardGens) != meta.Shards {
		return nil, DatasetMeta{}, corruptf("dataset has %d shard generations for %d shards", len(meta.ShardGens), meta.Shards)
	}
	db, _, err := decodeRawDB(secs[1].Payload, secs[2].Payload)
	if err != nil {
		return nil, DatasetMeta{}, err
	}
	return db, meta, nil
}

// asSnapshotErr maps non-sentinel errors surfacing from structural replay
// (shard.Restore validation) onto ErrSnapshotCorrupt: during a load, a
// database that fails validation IS corruption.
func asSnapshotErr(err error) error {
	for _, sentinel := range []error{ErrNotSnapshot, ErrSnapshotVersion, ErrSnapshotChecksum, ErrSnapshotTruncated, ErrSnapshotCorrupt} {
		if errors.Is(err, sentinel) {
			return err
		}
	}
	return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
}
