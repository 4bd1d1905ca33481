//! Snapshot codec: the full engine state in one checksummed file.
//!
//! ## File format
//!
//! ```text
//! snapshot := magic "PDBSNAP1" (8 bytes) · body · crc32 u32 (over body)
//! body     := lsn u64 · probdb · views
//! probdb   := relations · extra_domain u64s · versions (name,u64)s ·
//!             domain_version u64
//! relation := name str · arity u32 · tuples (constants u64×arity · prob f64)s
//! views    := ViewState s (definition text, version vector, leaf index,
//!             rows with their decision-DNNF circuits)
//! ```
//!
//! Tuples are emitted in relation-name order and insertion order within a
//! relation, so decoding rebuilds an identical [`TupleDb`] — including its
//! [`TupleIndex`](pdb_data::TupleIndex) numbering, which the persisted view
//! circuits' leaf variables refer to. Probabilities are stored as IEEE-754
//! bit patterns: a snapshot round-trip is bit-identical, never "close".
//!
//! The snapshot deliberately persists each view's **compiled circuit**, not
//! just its definition — recovery resumes incremental maintenance instead
//! of recompiling (the circuit is the artifact worth keeping; cf. Monet &
//! Olteanu in PAPERS.md).

use crate::codec::{CodecError, Dec, Enc};
use crate::crc::crc32;
use crate::wal::{decode_view_def, encode_view_def};
use crate::StoreError;
use pdb_compile::ddnnf::DdnnfNode;
use pdb_core::{Method, ProbDb};
use pdb_data::{Tuple, TupleDb};
use pdb_views::persist::{CircuitState, RowState, ViewState};
use std::collections::BTreeMap;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"PDBSNAP1";

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
    e.u32(c.nodes.len() as u32);
    for node in &c.nodes {
        match node {
            DdnnfNode::True => e.u8(0),
            DdnnfNode::False => e.u8(1),
            DdnnfNode::Decision { var, hi, lo } => {
                e.u8(2);
                e.u32(*var);
                e.u32(*hi);
                e.u32(*lo);
            }
            DdnnfNode::And { children } => {
                e.u8(3);
                e.u32(children.len() as u32);
                for &ch in children {
                    e.u32(ch);
                }
            }
        }
    }
    e.u32(c.root);
    e.u32(c.probs.len() as u32);
    for &p in &c.probs {
        e.f64(p);
    }
    e.bool(c.negated);
    e.f64(c.scale);
}

fn decode_circuit(d: &mut Dec<'_>) -> Result<CircuitState, CodecError> {
    let nnodes = d.seq_len(1, "circuit node count")?;
    let mut nodes = Vec::with_capacity(nnodes);
    for _ in 0..nnodes {
        let at = d.pos();
        let node = match d.u8("circuit node tag")? {
            0 => DdnnfNode::True,
            1 => DdnnfNode::False,
            2 => DdnnfNode::Decision {
                var: d.u32("decision var")?,
                hi: d.u32("decision hi")?,
                lo: d.u32("decision lo")?,
            },
            3 => {
                let nch = d.seq_len(4, "and children")?;
                let mut children = Vec::with_capacity(nch);
                for _ in 0..nch {
                    children.push(d.u32("and child")?);
                }
                DdnnfNode::And { children }
            }
            _ => {
                return Err(CodecError {
                    at,
                    what: "unknown circuit node tag",
                })
            }
        };
        nodes.push(node);
    }
    let root = d.u32("circuit root")?;
    let nprobs = d.seq_len(8, "circuit prob count")?;
    let mut probs = Vec::with_capacity(nprobs);
    for _ in 0..nprobs {
        probs.push(d.f64("circuit prob")?);
    }
    Ok(CircuitState {
        nodes,
        root,
        probs,
        negated: d.bool("circuit negated")?,
        scale: d.f64("circuit scale")?,
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
    e.u32(v.leaves.len() as u32);
    for (rel, tuple, var) in &v.leaves {
        e.str(rel);
        e.u32(tuple.values().len() as u32);
        for &c in tuple.values() {
            e.u64(c);
        }
        e.u32(*var);
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
        match row.bounds {
            Some((lo, hi)) => {
                e.u8(1);
                e.f64(lo);
                e.f64(hi);
            }
            None => e.u8(0),
        }
        e.u8(method_tag(row.method));
        match &row.circuit {
            Some(c) => {
                e.u8(1);
                encode_circuit(e, c);
            }
            None => e.u8(0),
        }
    }
}

fn decode_view(d: &mut Dec<'_>) -> Result<ViewState, CodecError> {
    let name = d.str("view name")?;
    let at = d.pos();
    let def = decode_view_def(d)?;
    let napplied = d.seq_len(12, "applied count")?;
    let mut applied = Vec::with_capacity(napplied);
    for _ in 0..napplied {
        let rel = d.str("applied relation")?;
        let ver = d.u64("applied version")?;
        applied.push((rel, ver));
    }
    let nleaves = d.seq_len(12, "leaf count")?;
    let mut leaves = Vec::with_capacity(nleaves);
    for _ in 0..nleaves {
        let rel = d.str("leaf relation")?;
        let arity = d.seq_len(8, "leaf tuple")?;
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..arity {
            vals.push(d.u64("leaf constant")?);
        }
        let var = d.u32("leaf var")?;
        leaves.push((rel, Tuple::new(vals), var));
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
        let bounds = match d.u8("row bounds tag")? {
            0 => None,
            1 => Some((d.f64("row lower")?, d.f64("row upper")?)),
            _ => {
                return Err(CodecError {
                    at,
                    what: "unknown bounds tag",
                })
            }
        };
        let mat = d.pos();
        let method = method_from(d.u8("row method")?, mat)?;
        let circuit = match d.u8("row circuit tag")? {
            0 => None,
            1 => Some(decode_circuit(d)?),
            _ => {
                return Err(CodecError {
                    at,
                    what: "unknown circuit tag",
                })
            }
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
        leaves,
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
        let views2 = ViewManager::import_states(states).unwrap();
        assert_eq!(views2.len(), 2);
        assert_eq!(views2.recompiles(), 0);
        for (orig, back) in views.iter().zip(views2.iter()) {
            assert_eq!(orig.name(), back.name());
            for (r1, r2) in orig.rows().iter().zip(back.rows()) {
                assert_eq!(r1.probability.to_bits(), r2.probability.to_bits());
            }
        }
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
