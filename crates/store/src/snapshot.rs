//! Snapshot codec: the full engine state in one checksummed file.
//!
//! ## File format
//!
//! ```text
//! snapshot := magic "PDBSNAP2" (8 bytes) · body · crc32 u32 (over body)
//! body     := lsn u64 · probdb · views
//! probdb   := relations · extra_domain u64s · versions (name,u64)s ·
//!             domain_version u64
//! relation := name str · arity u32 · tuples (constants u64×arity · prob f64)s
//! views    := ViewState s (definition text, version vector, rows with
//!             their compiled programs)
//! program  := flat nodes (⊤, ⊥, decisions and products; children
//!             first, root last) · mentioned relations (name str ·
//!             count u64)s · domain u64? · leaves (aux | relation u32 ·
//!             position u32, each with its prob f64)s · negated bool ·
//!             scale f64
//! ```
//!
//! Tuples are emitted in relation-name order and insertion order within a
//! relation, so decoding rebuilds an identical [`TupleDb`] — the same
//! tuples at the same positions, which is what the persisted programs'
//! `(relation, position)` leaves refer to. Probabilities are stored as
//! IEEE-754 bit patterns: a snapshot round-trip is bit-identical, never
//! "close".
//!
//! The snapshot deliberately persists each view row's **compiled
//! program**, not just the view's definition — recovery resumes
//! incremental maintenance instead of recompiling (the circuit is the
//! artifact worth keeping; cf. Monet & Olteanu in PAPERS.md). A program is
//! rebuilt through [`FlatBuilder`], which rejects a forward or missing
//! child reference; a node kind the decision-DNNF lowering never emits, a
//! program reading past its leaf table, or an image of the older
//! `PDBSNAP1` format (whose views carried decision-DNNF arenas over global
//! tuple ids), is [`StoreError::Corrupt`] too.

use crate::codec::{CodecError, Dec, Enc};
use crate::crc::crc32;
use crate::wal::{decode_view_def, encode_view_def};
use crate::StoreError;
use pdb_core::{CompiledQuery, Leaf, Method, ProbDb};
use pdb_data::{Tuple, TupleDb};
use pdb_kernel::{FlatBuilder, FlatNode};
use pdb_views::persist::{CircuitState, RowState, ViewState};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"PDBSNAP2";

fn corrupt(e: CodecError) -> StoreError {
    StoreError::Corrupt {
        what: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// ProbDb
// ---------------------------------------------------------------------------

fn encode_db(e: &mut Enc, db: &ProbDb) {
    let tdb = db.tuple_db();
    let rels: Vec<_> = tdb.relations().collect();
    e.u32(rels.len() as u32);
    for rel in rels {
        e.str(rel.name());
        e.u32(rel.arity() as u32);
        e.u32(rel.len() as u32);
        for (t, p) in rel.iter() {
            for &c in t.values() {
                e.u64(c);
            }
            e.f64(p);
        }
    }
    let extra: Vec<u64> = tdb.extra_domain().iter().copied().collect();
    e.u32(extra.len() as u32);
    for c in extra {
        e.u64(c);
    }
    let versions: Vec<(&str, u64)> = db.relation_versions().collect();
    e.u32(versions.len() as u32);
    for (name, v) in versions {
        e.str(name);
        e.u64(v);
    }
    e.u64(db.domain_version());
}

fn decode_db(d: &mut Dec<'_>) -> Result<ProbDb, CodecError> {
    let mut tdb = TupleDb::new();
    let nrels = d.seq_len(9, "relation count")?;
    for _ in 0..nrels {
        let name = d.str("relation name")?;
        let arity = d.u32("relation arity")? as usize;
        let ntuples = d.seq_len(8 * arity + 8, "tuple count")?;
        let rel = tdb.relation_mut(&name, arity);
        for _ in 0..ntuples {
            let mut vals = Vec::with_capacity(arity);
            for _ in 0..arity {
                vals.push(d.u64("tuple constant")?);
            }
            let p = d.f64("tuple prob")?;
            rel.insert(Tuple::new(vals), p);
        }
    }
    let nextra = d.seq_len(8, "extra domain count")?;
    let mut extra = Vec::with_capacity(nextra);
    for _ in 0..nextra {
        extra.push(d.u64("extra domain constant")?);
    }
    tdb.extend_domain(extra);
    let nversions = d.seq_len(12, "version count")?;
    let mut versions = BTreeMap::new();
    for _ in 0..nversions {
        let name = d.str("version relation")?;
        let v = d.u64("version value")?;
        versions.insert(name, v);
    }
    let domain_version = d.u64("domain version")?;
    Ok(ProbDb::from_snapshot(tdb, versions, domain_version))
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

fn method_tag(m: Method) -> u8 {
    match m {
        Method::Lifted => 0,
        Method::SafePlan => 1,
        Method::Grounded => 2,
        Method::Approximate => 3,
    }
}

fn method_from(tag: u8, at: usize) -> Result<Method, CodecError> {
    match tag {
        0 => Ok(Method::Lifted),
        1 => Ok(Method::SafePlan),
        2 => Ok(Method::Grounded),
        3 => Ok(Method::Approximate),
        _ => Err(CodecError {
            at,
            what: "unknown method tag",
        }),
    }
}

fn encode_circuit(e: &mut Enc, c: &CircuitState) {
    let q = &c.query;
    e.u32(q.program().len() as u32);
    for node in q.program().iter() {
        match node {
            FlatNode::False => e.u8(0),
            FlatNode::True => e.u8(1),
            FlatNode::Decision { var, hi, lo } => {
                e.u8(4);
                e.u32(var);
                e.u32(hi);
                e.u32(lo);
            }
            FlatNode::Mul(kids) => {
                e.u8(5);
                e.u32(kids.len() as u32);
                for &k in kids {
                    e.u32(k);
                }
            }
            // The decision-DNNF lowering never emits these, so only a
            // corrupt image carries one: restore rejects the tag.
            FlatNode::Leaf(_) | FlatNode::NegLeaf(_) | FlatNode::Add(_) => e.u8(u8::MAX),
        }
    }
    e.u32(q.relations().len() as u32);
    for (name, count) in q.relations() {
        e.str(name);
        e.u64(*count as u64);
    }
    e.bool(q.domain().is_some());
    if let Some(n) = q.domain() {
        e.u64(n as u64);
    }
    e.u32(q.leaves().len() as u32);
    for (leaf, &p) in q.leaves().iter().zip(&c.probs) {
        e.bool(*leaf != Leaf::Aux);
        if let Leaf::Tuple { relation, position } = *leaf {
            e.u32(relation);
            e.u32(position);
        }
        e.f64(p);
    }
    e.bool(q.negated());
    e.f64(q.scale());
}

fn decode_circuit(d: &mut Dec<'_>) -> Result<CircuitState, CodecError> {
    let at = d.pos();
    let nnodes = d.seq_len(1, "program node count")?;
    let mut b = FlatBuilder::new();
    for _ in 0..nnodes {
        let at = d.pos();
        match d.u8("program node tag")? {
            0 => b.push_const(false),
            1 => b.push_const(true),
            4 => {
                let var = d.u32("decision var")?;
                let hi = d.u32("decision hi")?;
                b.push_decision(var, hi, d.u32("decision lo")?)
            }
            5 => {
                let n = d.seq_len(4, "span length")?;
                let kids = (0..n)
                    .map(|_| d.u32("span child"))
                    .collect::<Result<Vec<_>, _>>()?;
                b.push_mul(&kids)
            }
            _ => {
                return Err(CodecError {
                    at,
                    what: "unknown program node tag",
                })
            }
        };
    }
    let program = b.finish().map_err(|_| CodecError {
        at,
        what: "row program is malformed",
    })?;
    let nrels = d.seq_len(12, "program relation count")?;
    let mut relations = Vec::with_capacity(nrels);
    for _ in 0..nrels {
        let name = d.str("program relation")?;
        relations.push((name, d.u64("program relation count")? as usize));
    }
    let domain = match d.bool("program domain tag")? {
        true => Some(d.u64("program domain")? as usize),
        false => None,
    };
    let nleaves = d.seq_len(9, "leaf count")?;
    let mut leaves = Vec::with_capacity(nleaves);
    let mut probs = Vec::with_capacity(nleaves);
    for _ in 0..nleaves {
        leaves.push(match d.bool("leaf tag")? {
            true => Leaf::Tuple {
                relation: d.u32("leaf relation")?,
                position: d.u32("leaf position")?,
            },
            false => Leaf::Aux,
        });
        probs.push(d.f64("leaf prob")?);
    }
    let negated = d.bool("program negated")?;
    let scale = d.f64("program scale")?;
    let query = CompiledQuery::restore(program, relations, domain, leaves, negated, scale).ok_or(
        CodecError {
            at,
            what: "row program reads past its leaf table",
        },
    )?;
    Ok(CircuitState {
        query: Arc::new(query),
        probs,
    })
}

fn encode_view(e: &mut Enc, v: &ViewState) {
    e.str(&v.name);
    encode_view_def(e, &v.def);
    e.u32(v.applied.len() as u32);
    for (name, ver) in &v.applied {
        e.str(name);
        e.u64(*ver);
    }
    e.bool(v.stale);
    e.u64(v.rebuilds);
    e.u64(v.incremental_updates);
    e.u32(v.rows.len() as u32);
    for row in &v.rows {
        e.u32(row.values.len() as u32);
        for &c in &row.values {
            e.u64(c);
        }
        e.f64(row.probability);
        e.bool(row.bounds.is_some());
        if let Some((lo, hi)) = row.bounds {
            e.f64(lo);
            e.f64(hi);
        }
        e.u8(method_tag(row.method));
        e.bool(row.circuit.is_some());
        if let Some(c) = &row.circuit {
            encode_circuit(e, c);
        }
    }
}

fn decode_view(d: &mut Dec<'_>) -> Result<ViewState, CodecError> {
    let name = d.str("view name")?;
    let def = decode_view_def(d)?;
    let napplied = d.seq_len(12, "applied count")?;
    let mut applied = Vec::with_capacity(napplied);
    for _ in 0..napplied {
        let rel = d.str("applied relation")?;
        let ver = d.u64("applied version")?;
        applied.push((rel, ver));
    }
    let stale = d.bool("view stale")?;
    let rebuilds = d.u64("view rebuilds")?;
    let incremental_updates = d.u64("view incremental updates")?;
    let nrows = d.seq_len(1, "row count")?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let nvals = d.seq_len(8, "row values")?;
        let mut values = Vec::with_capacity(nvals);
        for _ in 0..nvals {
            values.push(d.u64("row constant")?);
        }
        let probability = d.f64("row prob")?;
        let bounds = match d.bool("row bounds tag")? {
            true => Some((d.f64("row lower")?, d.f64("row upper")?)),
            false => None,
        };
        let mat = d.pos();
        let method = method_from(d.u8("row method")?, mat)?;
        let circuit = match d.bool("row program tag")? {
            true => Some(decode_circuit(d)?),
            false => None,
        };
        rows.push(RowState {
            values,
            probability,
            bounds,
            method,
            circuit,
        });
    }
    Ok(ViewState {
        name,
        def,
        applied,
        stale,
        rebuilds,
        incremental_updates,
        rows,
    })
}

// ---------------------------------------------------------------------------
// Whole snapshots
// ---------------------------------------------------------------------------

/// Encodes a full snapshot: everything at LSN `lsn` (all ops `< lsn`
/// applied), trailing CRC over the body.
pub fn encode_snapshot(lsn: u64, db: &ProbDb, views: &[ViewState]) -> Vec<u8> {
    let mut body = Enc::new();
    body.u64(lsn);
    encode_db(&mut body, db);
    body.u32(views.len() as u32);
    for v in views {
        encode_view(&mut body, v);
    }
    let body = body.into_bytes();
    let mut out = SNAP_MAGIC.to_vec();
    out.extend_from_slice(&body);
    let mut tail = Enc::new();
    tail.u32(crc32(&body));
    out.extend_from_slice(&tail.into_bytes());
    out
}

/// Decodes a snapshot file, verifying magic and CRC.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, ProbDb, Vec<ViewState>), StoreError> {
    let magic = bytes.get(..8).ok_or_else(|| StoreError::Corrupt {
        what: "snapshot shorter than its magic".to_string(),
    })?;
    if magic != SNAP_MAGIC {
        return Err(StoreError::Corrupt {
            what: "bad snapshot magic".to_string(),
        });
    }
    let rest = bytes.get(8..).unwrap_or(&[]);
    if rest.len() < 4 {
        return Err(StoreError::Corrupt {
            what: "snapshot shorter than its checksum".to_string(),
        });
    }
    let split = rest.len() - 4;
    let body = rest.get(..split).unwrap_or(&[]);
    let crc_bytes = rest.get(split..).unwrap_or(&[]);
    let mut cd = Dec::new(crc_bytes);
    let expect = cd.u32("snapshot crc").map_err(corrupt)?;
    if crc32(body) != expect {
        return Err(StoreError::Corrupt {
            what: "snapshot checksum mismatch".to_string(),
        });
    }
    let mut d = Dec::new(body);
    let lsn = d.u64("snapshot lsn").map_err(corrupt)?;
    let db = decode_db(&mut d).map_err(corrupt)?;
    let nviews = d.seq_len(1, "view count").map_err(corrupt)?;
    let mut views = Vec::with_capacity(nviews);
    for _ in 0..nviews {
        views.push(decode_view(&mut d).map_err(corrupt)?);
    }
    if !d.finished() {
        return Err(StoreError::Corrupt {
            what: "snapshot has trailing bytes".to_string(),
        });
    }
    Ok((lsn, db, views))
}

// Exercised further by the crate-level store tests and
// `tests/store_recovery.rs`; the round-trip below pins the codec itself.
#[cfg(test)]
mod tests {
    use super::*;
    use pdb_views::{ViewDef, ViewManager};

    fn sample_state() -> (ProbDb, ViewManager) {
        let mut db = ProbDb::new();
        db.insert("R", [1], 0.5);
        db.insert("R", [2], 0.7);
        db.insert("S", [1, 2], 0.25);
        db.extend_domain([9]);
        let mut views = ViewManager::new();
        views
            .create(
                "v",
                ViewDef::boolean("exists x. exists y. R(x) & S(x,y)").unwrap(),
                &db,
            )
            .unwrap();
        views
            .create("a", ViewDef::answers(&["x".into()], "R(x)").unwrap(), &db)
            .unwrap();
        let t = Tuple::from([1]);
        let ver = db.update_prob("R", &t, 0.6).unwrap();
        views.on_update_prob("R", &t, 0.6, ver);
        (db, views)
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let (db, views) = sample_state();
        let bytes = encode_snapshot(17, &db, &views.export_states());
        let (lsn, db2, states) = decode_snapshot(&bytes).unwrap();
        assert_eq!(lsn, 17);
        assert_eq!(db2.version(), db.version());
        assert_eq!(db2.domain_version(), db.domain_version());
        assert_eq!(db2.relation_version("R"), db.relation_version("R"));
        assert_eq!(db2.tuple_db().tuple_count(), db.tuple_db().tuple_count());
        assert_eq!(
            db2.tuple_db().domain(),
            db.tuple_db().domain(),
            "extra domain must survive"
        );
        let t = Tuple::from([1]);
        assert_eq!(
            db2.tuple_db().prob("R", &t).to_bits(),
            db.tuple_db().prob("R", &t).to_bits()
        );
        let mut views2 = ViewManager::import_states(states, &db2).unwrap();
        assert_eq!(views2.len(), 2);
        assert_eq!(views2.recompiles(), 0);
        for (orig, back) in views.iter().zip(views2.iter()) {
            assert_eq!(orig.name(), back.name());
            for (r1, r2) in orig.rows().iter().zip(back.rows()) {
                assert_eq!(r1.probability.to_bits(), r2.probability.to_bits());
            }
        }
        // The restored state re-encodes to the same bytes.
        assert_eq!(encode_snapshot(17, &db2, &views2.export_states()), bytes);
        // Restored rows keep absorbing updates, without recompiling.
        let mut db2 = db2;
        let t = Tuple::from([2]);
        let ver = db2.update_prob("R", &t, 0.15).unwrap();
        assert_eq!(views2.on_update_prob("R", &t, 0.15, ver), 2);
        assert_eq!(views2.recompiles(), 0);
        let got = views2.get("v").unwrap().boolean_answer().unwrap();
        let want = db2.query("exists x. exists y. R(x) & S(x,y)").unwrap();
        assert!((got.probability - want.probability).abs() < 1e-12);
    }

    /// The image of `db` and `views` with its last view's last row program
    /// replaced by the bytes `program` (that program ends the body).
    fn with_program(db: &ProbDb, views: &[ViewState], program: &[u8]) -> Vec<u8> {
        let last = views.last().and_then(|v| v.rows.last()?.circuit.as_ref());
        let mut own = Enc::new();
        encode_circuit(&mut own, last.unwrap());
        let image = encode_snapshot(0, db, views);
        let mut body = image[8..image.len() - 4 - own.len()].to_vec();
        body.extend_from_slice(program);
        let mut out = SNAP_MAGIC.to_vec();
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// A program deciding `var` between ⊤ (node 0) and ⊥ (node 1), whose
    /// one leaf reads position `position` of `R`.
    fn program(var: u32, hi: u32, position: u32) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(3);
        e.u8(1);
        e.u8(0);
        e.u8(4);
        e.u32(var);
        e.u32(hi);
        e.u32(1);
        e.u32(1);
        e.str("R");
        e.u64(2);
        e.u8(0);
        e.u32(1);
        e.u8(1);
        e.u32(0);
        e.u32(position);
        e.f64(0.5);
        e.bool(false);
        e.f64(1.0);
        e.into_bytes()
    }

    fn corrupt(bytes: &[u8]) -> String {
        match decode_snapshot(bytes) {
            Err(StoreError::Corrupt { what }) => what,
            other => panic!("expected a corrupt image, got {:?}", other.map(|r| r.0)),
        }
    }

    #[test]
    fn malformed_view_programs_are_typed_errors() {
        let (db, views) = sample_state();
        let states = views.export_states();
        // The hand-written program restores: the failures below are its
        // defects, not the harness's.
        let (_, db2, ok) = decode_snapshot(&with_program(&db, &states, &program(0, 0, 1))).unwrap();
        let restored = ViewManager::import_states(ok, &db2).unwrap();
        assert_eq!(restored.get("v").unwrap().rows()[0].probability, 0.5);
        // An image of the previous format.
        let mut old = encode_snapshot(0, &db, &states);
        old[..8].copy_from_slice(b"PDBSNAP1");
        assert_eq!(corrupt(&old), "bad snapshot magic");
        // A forward child reference.
        let forward = with_program(&db, &states, &program(0, 5, 1));
        assert!(corrupt(&forward).contains("row program is malformed"));
        // A leaf variable beyond the leaf table.
        let beyond = with_program(&db, &states, &program(1, 0, 1));
        assert!(corrupt(&beyond).contains("reads past its leaf table"));
        // A positive or negative literal, or a disjoint sum: node kinds the
        // decision-DNNF lowering never emits, so corrupt input.
        for tag in [2, 3, 6] {
            let mut other = program(0, 0, 1);
            other[6] = tag;
            let image = with_program(&db, &states, &other);
            assert!(corrupt(&image).contains("unknown program node tag"));
        }
        // A leaf position past its relation's end: decodes, then the
        // import resolves it against the image's own database.
        let past = with_program(&db, &states, &program(0, 0, 2));
        let (_, db2, states2) = decode_snapshot(&past).unwrap();
        assert!(matches!(
            ViewManager::import_states(states2, &db2),
            Err(pdb_core::EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn views_share_of_a_snapshot_ignores_relations_they_do_not_read() {
        let share = |db: &ProbDb| {
            let mut views = ViewManager::new();
            for (name, def) in [
                ("v", ViewDef::boolean("exists x. exists y. R(x) & S(x,y)")),
                ("a", ViewDef::answers(&["x".into()], "R(x), S(x,y)")),
            ] {
                views.create(name, def.unwrap(), db).unwrap();
            }
            encode_snapshot(0, db, &views.export_states()).len() - encode_snapshot(0, db, &[]).len()
        };
        let (db, _) = sample_state();
        let mut wider = db.clone();
        for i in 0..1000u64 {
            wider.insert("Unread", [100 + i], 0.5);
        }
        assert_eq!(share(&wider), share(&db));
    }

    #[test]
    fn every_truncation_of_a_snapshot_is_rejected() {
        let (db, views) = sample_state();
        let bytes = encode_snapshot(3, &db, &views.export_states());
        // Cuts at a sample of offsets (every byte is slow for big files).
        for cut in (0..bytes.len()).step_by(7) {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_sampled_bit_flip_is_rejected() {
        let (db, views) = sample_state();
        let bytes = encode_snapshot(3, &db, &views.export_states());
        for byte in (8..bytes.len()).step_by(11) {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x40;
            assert!(decode_snapshot(&bad).is_err(), "flip at {byte} undetected");
        }
    }
}
