//! The write-ahead log: record format, encode/decode, prefix-consistent
//! reads.
//!
//! ## File format
//!
//! ```text
//! header   := magic "PDBWAL01" (8 bytes) · base_lsn u64
//! record   := len u32 · crc32 u32 · payload (len bytes)
//! payload  := lsn u64 · op
//! op       := tag u8 · fields (see WalOp)
//! ```
//!
//! `base_lsn` is the LSN the log starts at — everything below it lives in
//! `snapshot-<base_lsn>.pdb`. Record LSNs are dense: the first record
//! carries `base_lsn`, each next one +1. [`read_wal`] stops at the first
//! record that is short, fails its CRC, or breaks LSN continuity, and
//! reports the byte length of the valid prefix so the caller can truncate
//! the tail — a torn or bit-flipped suffix costs only unacknowledged
//! writes, never the prefix.

use crate::codec::{CodecError, Dec, Enc};
use crate::crc::crc32;
use crate::StoreError;
use pdb_views::persist::ViewDefState;

/// Magic bytes opening every WAL file (8 bytes, versioned).
pub const WAL_MAGIC: &[u8; 8] = b"PDBWAL01";

/// Header length: magic + base LSN.
pub const WAL_HEADER_LEN: u64 = 16;

/// One logged mutation. Exactly the five write paths of the engine; query
/// commands are never logged.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// `insert R t p` — adds a possible tuple (or overwrites its
    /// probability, matching [`pdb_core::ProbDb::insert`] semantics).
    Insert {
        /// Relation name.
        relation: String,
        /// The tuple's constants.
        tuple: Vec<u64>,
        /// Marginal probability.
        prob: f64,
    },
    /// `update R t p` — changes an existing tuple's probability.
    UpdateProb {
        /// Relation name.
        relation: String,
        /// The tuple's constants.
        tuple: Vec<u64>,
        /// New marginal probability.
        prob: f64,
    },
    /// `domain c…` — extends `DOM` beyond the active domain.
    ExtendDomain {
        /// The added constants.
        consts: Vec<u64>,
    },
    /// `view create` — registers a materialized view.
    ViewCreate {
        /// The view's name.
        name: String,
        /// Its definition, in re-parseable textual form.
        def: ViewDefState,
    },
    /// `view drop`.
    ViewDrop {
        /// The view's name.
        name: String,
    },
}

const TAG_INSERT: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_DOMAIN: u8 = 3;
const TAG_VIEW_CREATE: u8 = 4;
const TAG_VIEW_DROP: u8 = 5;

fn encode_u64s(e: &mut Enc, vals: &[u64]) {
    e.u32(vals.len() as u32);
    for &v in vals {
        e.u64(v);
    }
}

fn decode_u64s(d: &mut Dec<'_>, what: &'static str) -> Result<Vec<u64>, CodecError> {
    let n = d.seq_len(8, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.u64(what)?);
    }
    Ok(out)
}

/// Encodes a view definition — one layout, shared by `view create` records
/// and the views inside a snapshot.
pub(crate) fn encode_view_def(e: &mut Enc, def: &ViewDefState) {
    match def {
        ViewDefState::Boolean(text) => {
            e.u8(0);
            e.str(text);
        }
        ViewDefState::Answers { head, body } => {
            e.u8(1);
            e.u32(head.len() as u32);
            for h in head {
                e.str(h);
            }
            e.str(body);
        }
    }
}

/// Decodes a view definition (see [`encode_view_def`]).
pub(crate) fn decode_view_def(d: &mut Dec<'_>) -> Result<ViewDefState, CodecError> {
    let at = d.pos();
    match d.u8("view def tag")? {
        0 => Ok(ViewDefState::Boolean(d.str("view query")?)),
        1 => {
            let n = d.seq_len(4, "view head")?;
            let mut head = Vec::with_capacity(n);
            for _ in 0..n {
                head.push(d.str("view head var")?);
            }
            Ok(ViewDefState::Answers {
                head,
                body: d.str("view body")?,
            })
        }
        _ => Err(CodecError {
            at,
            what: "unknown view def tag",
        }),
    }
}

/// Encodes one op (tag + fields) into `e`.
pub fn encode_op(e: &mut Enc, op: &WalOp) {
    match op {
        WalOp::Insert {
            relation,
            tuple,
            prob,
        } => {
            e.u8(TAG_INSERT);
            e.str(relation);
            encode_u64s(e, tuple);
            e.f64(*prob);
        }
        WalOp::UpdateProb {
            relation,
            tuple,
            prob,
        } => {
            e.u8(TAG_UPDATE);
            e.str(relation);
            encode_u64s(e, tuple);
            e.f64(*prob);
        }
        WalOp::ExtendDomain { consts } => {
            e.u8(TAG_DOMAIN);
            encode_u64s(e, consts);
        }
        WalOp::ViewCreate { name, def } => {
            e.u8(TAG_VIEW_CREATE);
            e.str(name);
            encode_view_def(e, def);
        }
        WalOp::ViewDrop { name } => {
            e.u8(TAG_VIEW_DROP);
            e.str(name);
        }
    }
}

/// Decodes one op (tag + fields).
pub fn decode_op(d: &mut Dec<'_>) -> Result<WalOp, CodecError> {
    let at = d.pos();
    match d.u8("op tag")? {
        TAG_INSERT => Ok(WalOp::Insert {
            relation: d.str("insert relation")?,
            tuple: decode_u64s(d, "insert tuple")?,
            prob: d.f64("insert prob")?,
        }),
        TAG_UPDATE => Ok(WalOp::UpdateProb {
            relation: d.str("update relation")?,
            tuple: decode_u64s(d, "update tuple")?,
            prob: d.f64("update prob")?,
        }),
        TAG_DOMAIN => Ok(WalOp::ExtendDomain {
            consts: decode_u64s(d, "domain consts")?,
        }),
        TAG_VIEW_CREATE => {
            let name = d.str("view name")?;
            let def = decode_view_def(d)?;
            Ok(WalOp::ViewCreate { name, def })
        }
        TAG_VIEW_DROP => Ok(WalOp::ViewDrop {
            name: d.str("view name")?,
        }),
        _ => Err(CodecError {
            at,
            what: "unknown op tag",
        }),
    }
}

/// Encodes the WAL file header.
pub fn encode_header(base_lsn: u64) -> Vec<u8> {
    let mut e = Enc::new();
    let mut out = WAL_MAGIC.to_vec();
    e.u64(base_lsn);
    out.extend_from_slice(&e.into_bytes());
    out
}

/// Encodes one full record: `len · crc · (lsn · op)`.
pub fn encode_record(lsn: u64, op: &WalOp) -> Vec<u8> {
    let mut payload = Enc::new();
    payload.u64(lsn);
    encode_op(&mut payload, op);
    let payload = payload.into_bytes();
    let mut e = Enc::new();
    e.u32(payload.len() as u32);
    e.u32(crc32(&payload));
    let mut out = e.into_bytes();
    out.extend_from_slice(&payload);
    out
}

/// One decoded record.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The logged mutation.
    pub op: WalOp,
}

/// What [`read_wal`] recovered.
#[derive(Debug)]
pub struct WalContents {
    /// The LSN the log starts at (snapshot boundary).
    pub base_lsn: u64,
    /// The valid record prefix, LSNs dense from `base_lsn`.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + intact records); anything
    /// beyond it is a torn/corrupt tail the caller should truncate away.
    pub valid_len: u64,
    /// True when a tail had to be dropped.
    pub truncated: bool,
}

/// Parses a WAL file, stopping at the first short, corrupt, or
/// LSN-discontinuous record (see the module docs). A bad *header* is
/// unrecoverable ([`StoreError::Corrupt`]) — headers are only ever written
/// via atomic tmp-file renames, so a damaged one means real corruption, not
/// a crash artifact.
pub fn read_wal(bytes: &[u8]) -> Result<WalContents, StoreError> {
    let magic = bytes.get(..8).ok_or_else(|| StoreError::Corrupt {
        what: "wal shorter than its magic".to_string(),
    })?;
    if magic != WAL_MAGIC {
        return Err(StoreError::Corrupt {
            what: "bad wal magic".to_string(),
        });
    }
    let mut d = Dec::new(bytes.get(8..).unwrap_or(&[]));
    let base_lsn = d.u64("wal base lsn").map_err(|e| StoreError::Corrupt {
        what: e.to_string(),
    })?;

    let mut records = Vec::new();
    let mut next_lsn = base_lsn;
    let mut valid_len = WAL_HEADER_LEN;
    loop {
        if d.finished() {
            return Ok(WalContents {
                base_lsn,
                records,
                valid_len,
                truncated: false,
            });
        }
        let intact = read_record(&mut d, next_lsn);
        match intact {
            Some((record, consumed)) => {
                valid_len += consumed;
                next_lsn += 1;
                records.push(record);
            }
            None => {
                return Ok(WalContents {
                    base_lsn,
                    records,
                    valid_len,
                    truncated: true,
                })
            }
        }
    }
}

/// Reads one record expecting `expected_lsn`; `None` on any damage
/// (short, CRC mismatch, undecodable op, LSN discontinuity, trailing
/// payload junk).
fn read_record(d: &mut Dec<'_>, expected_lsn: u64) -> Option<(WalRecord, u64)> {
    let len = d.u32("record len").ok()? as usize;
    let crc = d.u32("record crc").ok()?;
    let payload = d.raw(len, "record payload").ok()?;
    if crc32(payload) != crc {
        return None;
    }
    let mut pd = Dec::new(payload);
    let lsn = pd.u64("record lsn").ok()?;
    if lsn != expected_lsn {
        return None;
    }
    let op = decode_op(&mut pd).ok()?;
    if !pd.finished() {
        return None;
    }
    Some(((WalRecord { lsn, op }), 8 + len as u64))
}

/// A positioned reader over a WAL image: parses the valid prefix once, then
/// iterates the records at or above a requested LSN. This is the read-side
/// primitive replication catch-up and `probdb-cli wal inspect` share: it
/// exposes where the log starts ([`base_lsn`](Self::base_lsn) — anything
/// below it lives only in the snapshot, so a follower asking for less must
/// re-bootstrap), where the valid tail ends
/// ([`next_lsn`](Self::next_lsn)), and whether a torn/corrupt suffix was
/// dropped ([`truncated`](Self::truncated) /
/// [`valid_len`](Self::valid_len)).
#[derive(Debug)]
pub struct WalFollower {
    base_lsn: u64,
    next_lsn: u64,
    valid_len: u64,
    truncated: bool,
    records: std::vec::IntoIter<WalRecord>,
}

impl WalFollower {
    /// Opens a follower over a full WAL image, positioned at `from_lsn`.
    /// Records below `from_lsn` are skipped; if `from_lsn` precedes
    /// [`base_lsn`](Self::base_lsn) the iterator starts at `base_lsn`
    /// instead and the caller should notice the gap and re-bootstrap from a
    /// snapshot. Fails only on an unrecoverable header
    /// ([`StoreError::Corrupt`]); a damaged *tail* merely ends the
    /// iteration early with [`truncated`](Self::truncated) set.
    pub fn from_bytes(bytes: &[u8], from_lsn: u64) -> Result<WalFollower, StoreError> {
        let wal = read_wal(bytes)?;
        let next_lsn = wal.base_lsn + wal.records.len() as u64;
        let mut records = wal.records;
        if from_lsn > wal.base_lsn {
            let skip = (from_lsn - wal.base_lsn).min(records.len() as u64) as usize;
            records.drain(..skip);
        }
        Ok(WalFollower {
            base_lsn: wal.base_lsn,
            next_lsn,
            valid_len: wal.valid_len,
            truncated: wal.truncated,
            records: records.into_iter(),
        })
    }

    /// The LSN the log file starts at (its snapshot boundary). A follower
    /// positioned below this has a gap: the records it wants were
    /// checkpointed away.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// One past the last valid record's LSN — where the next append goes.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Byte length of the valid prefix (header + intact records). When
    /// [`truncated`](Self::truncated) is true this is the truncation
    /// point: everything beyond it is torn/corrupt tail.
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// True when a damaged suffix was dropped from the iteration.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// How many records remain to iterate.
    pub fn remaining(&self) -> usize {
        self.records.len()
    }
}

impl Iterator for WalFollower {
    type Item = WalRecord;

    fn next(&mut self) -> Option<WalRecord> {
        self.records.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                relation: "R".into(),
                tuple: vec![1],
                prob: 0.5,
            },
            WalOp::UpdateProb {
                relation: "R".into(),
                tuple: vec![1],
                prob: 0.25,
            },
            WalOp::ExtendDomain { consts: vec![7, 9] },
            WalOp::ViewCreate {
                name: "v".into(),
                def: ViewDefState::Boolean("exists x. R(x)".into()),
            },
            WalOp::ViewCreate {
                name: "a".into(),
                def: ViewDefState::Answers {
                    head: vec!["x".into()],
                    body: "R(x), S(x,y)".into(),
                },
            },
            WalOp::ViewDrop { name: "v".into() },
        ]
    }

    fn full_log(base: u64) -> Vec<u8> {
        let mut bytes = encode_header(base);
        for (i, op) in ops().iter().enumerate() {
            bytes.extend_from_slice(&encode_record(base + i as u64, op));
        }
        bytes
    }

    #[test]
    fn ops_round_trip() {
        for op in ops() {
            let mut e = Enc::new();
            encode_op(&mut e, &op);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(decode_op(&mut d).unwrap(), op);
            assert!(d.finished());
        }
    }

    #[test]
    fn full_log_reads_back() {
        let bytes = full_log(42);
        let wal = read_wal(&bytes).unwrap();
        assert_eq!(wal.base_lsn, 42);
        assert!(!wal.truncated);
        assert_eq!(wal.valid_len, bytes.len() as u64);
        assert_eq!(wal.records.len(), ops().len());
        assert_eq!(wal.records[0].lsn, 42);
        assert_eq!(wal.records[5].lsn, 47);
        for (rec, op) in wal.records.iter().zip(ops()) {
            assert_eq!(rec.op, op);
        }
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut() {
        let bytes = full_log(0);
        let whole = read_wal(&bytes).unwrap();
        for cut in 16..bytes.len() {
            let wal = read_wal(&bytes[..cut]).unwrap();
            assert!(wal.records.len() <= whole.records.len());
            assert!(wal.valid_len <= cut as u64);
            // The surviving records are an exact prefix.
            for (got, want) in wal.records.iter().zip(&whole.records) {
                assert_eq!(got, want);
            }
            // valid_len always points at a record boundary.
            let again = read_wal(&bytes[..wal.valid_len as usize]).unwrap();
            assert!(!again.truncated);
            assert_eq!(again.records.len(), wal.records.len());
        }
    }

    #[test]
    fn bit_flips_truncate_from_the_damaged_record() {
        let bytes = full_log(0);
        // Flip one bit in the middle of the 3rd record's payload.
        let whole = read_wal(&bytes).unwrap();
        for flip_byte in [30usize, 60, 90, 120] {
            let mut bad = bytes.clone();
            bad[flip_byte] ^= 0x10;
            let wal = read_wal(&bad).unwrap();
            assert!(wal.truncated, "flip at {flip_byte} undetected");
            for (got, want) in wal.records.iter().zip(&whole.records) {
                assert_eq!(got, want, "prefix diverged after flip at {flip_byte}");
            }
        }
    }

    #[test]
    fn lsn_discontinuity_stops_the_read() {
        let mut bytes = encode_header(0);
        bytes.extend_from_slice(&encode_record(0, &WalOp::ExtendDomain { consts: vec![1] }));
        // A record claiming lsn 5 instead of 1: valid CRC, wrong sequence.
        bytes.extend_from_slice(&encode_record(5, &WalOp::ExtendDomain { consts: vec![2] }));
        let wal = read_wal(&bytes).unwrap();
        assert!(wal.truncated);
        assert_eq!(wal.records.len(), 1);
    }

    #[test]
    fn bad_headers_are_corrupt_not_recoverable() {
        assert!(read_wal(b"PDBWAL9").is_err());
        assert!(read_wal(b"PDBWAL99\x01\x02").is_err());
        assert!(read_wal(&[]).is_err());
    }

    #[test]
    fn empty_log_is_valid() {
        let wal = read_wal(&encode_header(9)).unwrap();
        assert_eq!(wal.base_lsn, 9);
        assert!(wal.records.is_empty());
        assert!(!wal.truncated);
    }

    #[test]
    fn follower_yields_the_tail_from_every_position() {
        let bytes = full_log(10);
        let n = ops().len() as u64;
        for from in 0..(10 + n + 3) {
            let f = WalFollower::from_bytes(&bytes, from).unwrap();
            assert_eq!(f.base_lsn(), 10);
            assert_eq!(f.next_lsn(), 10 + n);
            assert!(!f.truncated());
            let start = from.max(10).min(10 + n);
            assert_eq!(f.remaining() as u64, 10 + n - start);
            let got: Vec<WalRecord> = f.collect();
            for (i, rec) in got.iter().enumerate() {
                assert_eq!(rec.lsn, start + i as u64);
                assert_eq!(rec.op, ops()[(rec.lsn - 10) as usize]);
            }
        }
    }

    #[test]
    fn follower_surfaces_the_truncation_point() {
        let mut bytes = full_log(0);
        let whole = read_wal(&bytes).unwrap();
        // Tear the last record in half.
        let cut = bytes.len() - 5;
        bytes.truncate(cut);
        let f = WalFollower::from_bytes(&bytes, 0).unwrap();
        assert!(f.truncated());
        assert!(f.valid_len() < cut as u64);
        assert_eq!(f.next_lsn(), whole.records.len() as u64 - 1);
        // The truncation point is a clean record boundary.
        let again = WalFollower::from_bytes(&bytes[..f.valid_len() as usize], 0).unwrap();
        assert!(!again.truncated());
        assert_eq!(again.remaining(), f.remaining());
    }

    #[test]
    fn follower_rejects_a_damaged_header() {
        assert!(WalFollower::from_bytes(b"PDBWAL99\0\0\0\0\0\0\0\0", 0).is_err());
        assert!(WalFollower::from_bytes(&[], 3).is_err());
    }
}
