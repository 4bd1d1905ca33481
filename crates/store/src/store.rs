//! The durable store: open/recover, append, checkpoint.
//!
//! ## Recovery protocol
//!
//! 1. Delete stray `*.tmp` files (interrupted atomic writes).
//! 2. Read `wal`; a missing file is initialized (empty, `base_lsn = 0`)
//!    via tmp-file + rename, so a WAL header is always complete on disk.
//! 3. Truncate any torn/corrupt tail ([`crate::wal::read_wal`]).
//! 4. If `base_lsn > 0`, load `snapshot-<base_lsn>.pdb` (checksummed);
//!    its embedded LSN must equal `base_lsn`. Views resume from their
//!    persisted programs — no recompilation.
//! 5. Replay the WAL records through [`crate::apply::apply_op`].
//! 6. Delete snapshots other than `base_lsn` (leftovers of checkpoints
//!    that crashed between their two renames).
//!
//! ## Checkpoint protocol (compaction)
//!
//! 1. Serialize state at `lsn = next_lsn` to `snapshot-<lsn>.pdb.tmp`;
//!    sync; rename.
//! 2. Write a fresh `wal.tmp` with `base_lsn = lsn`; sync; rename over
//!    `wal`; reopen the append handle.
//! 3. Delete superseded snapshots.
//!
//! A crash between steps 1 and 2 leaves the old WAL (whose `base_lsn`
//! still names the old snapshot, which is only deleted in step 3) — either
//! way recovery finds a matching snapshot/WAL pair. This is why the WAL
//! header carries `base_lsn`: the log itself names the snapshot it
//! continues from, and orphaned snapshots are harmless.

use crate::apply::apply_op;
use crate::fs::{StoreFile, StoreFs};
use crate::snapshot::{decode_snapshot, encode_snapshot};
use crate::wal::{encode_header, encode_record, read_wal, WalFollower, WalOp, WAL_HEADER_LEN};
use crate::StoreError;
use pdb_core::ProbDb;
use pdb_views::persist::ViewState;
use pdb_views::ViewManager;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When WAL appends reach the disk platter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FsyncPolicy {
    /// fsync after every record: an `Ok` append is durable. The default.
    Always,
    /// fsync when at least this much time has passed since the last sync;
    /// a crash may lose the most recent acknowledged writes (bounded by
    /// the interval), never earlier ones.
    Interval(Duration),
    /// Never fsync record appends (structural writes — headers, snapshots
    /// — are always synced); a crash may lose any unsynced suffix.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag syntax: `always`, `never`, `interval:MS`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => {
                let ms: u64 = s.strip_prefix("interval:")?.parse().ok()?;
                Some(FsyncPolicy::Interval(Duration::from_millis(ms)))
            }
        }
    }
}

/// Store tuning knobs.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// WAL durability policy.
    pub fsync: FsyncPolicy,
    /// Checkpoint (snapshot + log truncation) once this many records have
    /// accumulated since the last one. `0` disables automatic checkpoints.
    pub checkpoint_every: u64,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 1024,
        }
    }
}

/// What recovery found.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryInfo {
    /// LSN of the snapshot the state resumed from (0 = none).
    pub snapshot_lsn: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_ops: u64,
    /// Bytes of torn/corrupt WAL tail dropped.
    pub truncated_bytes: u64,
    /// The LSN the next mutation will get.
    pub next_lsn: u64,
}

/// The recovered engine state plus how it was obtained.
pub struct Recovered {
    /// The database at the end of the logged prefix.
    pub db: ProbDb,
    /// The views, resumed from their persisted programs.
    pub views: ViewManager,
    /// Recovery details (for logs and tests).
    pub info: RecoveryInfo,
}

/// A durable store rooted at one directory: an open WAL append handle plus
/// the bookkeeping to decide when to checkpoint. All methods take `&mut
/// self`; concurrent callers serialize through a mutex (see
/// `pdb-server`'s integration).
pub struct Store {
    fs: Arc<dyn StoreFs>,
    dir: PathBuf,
    opts: StoreOptions,
    wal: Box<dyn StoreFile>,
    base_lsn: u64,
    next_lsn: u64,
    last_sync: Instant,
    wedged: bool,
}

impl Store {
    /// Opens (and recovers) the store in `dir`, creating it if needed.
    /// Returns the store plus the recovered state; the caller owns the
    /// state and must log every further mutation through
    /// [`Store::append`].
    pub fn open(
        fs: Arc<dyn StoreFs>,
        dir: &Path,
        opts: StoreOptions,
    ) -> Result<(Store, Recovered), StoreError> {
        fs.create_dir_all(dir)?;
        // 1. Stray tmp files are interrupted atomic writes: discard.
        for p in fs.list(dir)? {
            if p.extension().and_then(|e| e.to_str()) == Some("tmp") {
                fs.remove_file(&p)?;
            }
        }
        // 2. A WAL always exists with a complete header (tmp + rename).
        let wal_path = dir.join("wal");
        if !fs.exists(&wal_path) {
            let tmp = dir.join("wal.tmp");
            let mut f = fs.create(&tmp)?;
            f.write_all(&encode_header(0))?;
            f.sync()?;
            drop(f);
            fs.rename(&tmp, &wal_path)?;
        }
        let bytes = fs.read(&wal_path)?;
        let contents = read_wal(&bytes)?;
        // 3. Drop any torn tail.
        let mut truncated_bytes = 0;
        if contents.valid_len < bytes.len() as u64 {
            truncated_bytes = bytes.len() as u64 - contents.valid_len;
            fs.truncate(&wal_path, contents.valid_len)?;
        }
        // 4. The snapshot the WAL continues from.
        let (mut db, mut views) = if contents.base_lsn == 0 {
            (ProbDb::new(), ViewManager::new())
        } else {
            let snap = dir.join(format!("snapshot-{}.pdb", contents.base_lsn));
            let sbytes = fs.read(&snap).map_err(|e| StoreError::Corrupt {
                what: format!(
                    "wal continues from snapshot lsn {} but it cannot be read: {e}",
                    contents.base_lsn
                ),
            })?;
            let (lsn, db, states) = decode_snapshot(&sbytes)?;
            if lsn != contents.base_lsn {
                return Err(StoreError::Corrupt {
                    what: format!(
                        "snapshot file for lsn {} carries lsn {lsn}",
                        contents.base_lsn
                    ),
                });
            }
            let views = ViewManager::import_states(states, &db)?;
            (db, views)
        };
        // 5. Replay the logged prefix.
        let mut replayed_ops = 0;
        for rec in &contents.records {
            apply_op(&rec.op, &mut db, &mut views)?;
            replayed_ops += 1;
        }
        // 6. Snapshots other than base_lsn are checkpoint leftovers.
        for p in fs.list(dir)? {
            if let Some(name) = p.file_name().and_then(|n| n.to_str()) {
                if name.starts_with("snapshot-")
                    && name != format!("snapshot-{}.pdb", contents.base_lsn)
                {
                    fs.remove_file(&p)?;
                }
            }
        }
        let next_lsn = contents.base_lsn + contents.records.len() as u64;
        let wal = fs.open_append(&wal_path)?;
        let info = RecoveryInfo {
            snapshot_lsn: contents.base_lsn,
            replayed_ops,
            truncated_bytes,
            next_lsn,
        };
        Ok((
            Store {
                fs,
                dir: dir.to_path_buf(),
                opts,
                wal,
                base_lsn: contents.base_lsn,
                next_lsn,
                last_sync: Instant::now(),
                wedged: false,
            },
            Recovered { db, views, info },
        ))
    }

    /// Logs one mutation, returning its LSN. The caller must have already
    /// applied the op to the in-memory state (apply-then-log, after a
    /// passing [`Store::ensure_ok`]): a failed append wedges the store and
    /// the op is reported as an error to the client, so the logged prefix
    /// is always a prefix of the acknowledged sequence. Under
    /// [`FsyncPolicy::Always`] the record is durable when this returns `Ok`.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, StoreError> {
        self.ensure_ok()?;
        let lsn = self.next_lsn;
        let record = encode_record(lsn, op);
        if let Err(e) = self.wal.write_all(&record) {
            self.wedged = true;
            return Err(StoreError::Io(e));
        }
        self.next_lsn = lsn + 1;
        crate::metrics::WAL_APPENDS.inc();
        match self.opts.fsync {
            FsyncPolicy::Always => self.sync_wal()?,
            FsyncPolicy::Interval(d) => {
                if self.last_sync.elapsed() >= d {
                    self.sync_wal()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(lsn)
    }

    /// Forces the WAL to disk regardless of policy (graceful shutdown).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.ensure_ok()?;
        self.sync_wal()
    }

    /// True when enough records have accumulated that the caller should
    /// snapshot its state and call [`Store::checkpoint`].
    pub fn should_checkpoint(&self) -> bool {
        !self.wedged
            && self.opts.checkpoint_every > 0
            && self.next_lsn - self.base_lsn >= self.opts.checkpoint_every
    }

    /// Snapshots `db` + `views` at the current LSN and truncates the log
    /// (see the module docs for the crash-safe protocol). The caller must
    /// pass the state that reflects exactly the ops logged so far — hold
    /// whatever lock serializes [`Store::append`] while exporting it.
    pub fn checkpoint(&mut self, db: &ProbDb, views: &[ViewState]) -> Result<u64, StoreError> {
        self.ensure_ok()?;
        let started = Instant::now();
        let lsn = self.next_lsn;
        let snap_path = self.dir.join(format!("snapshot-{lsn}.pdb"));
        let snap_tmp = self.dir.join(format!("snapshot-{lsn}.pdb.tmp"));
        let bytes = encode_snapshot(lsn, db, views);
        {
            let mut f = self.fs.create(&snap_tmp)?;
            f.write_all(&bytes)?;
            f.sync()?;
        }
        self.fs.rename(&snap_tmp, &snap_path)?;
        let wal_tmp = self.dir.join("wal.tmp");
        {
            let mut f = self.fs.create(&wal_tmp)?;
            f.write_all(&encode_header(lsn))?;
            f.sync()?;
        }
        // Up to here every failure is harmless: the old WAL (+ its
        // snapshot) is untouched and stays authoritative. From the rename
        // on, the new WAL is authoritative, and failing to switch the
        // append handle over must wedge the store — the old handle points
        // at the unlinked file.
        self.fs.rename(&wal_tmp, &self.dir.join("wal"))?;
        match self.fs.open_append(&self.dir.join("wal")) {
            Ok(f) => self.wal = f,
            Err(e) => {
                self.wedged = true;
                return Err(StoreError::Io(e));
            }
        }
        self.base_lsn = lsn;
        self.last_sync = Instant::now();
        crate::metrics::CHECKPOINTS.inc();
        crate::metrics::CHECKPOINT_US.record_duration(started.elapsed());
        for p in self.fs.list(&self.dir)? {
            if let Some(name) = p.file_name().and_then(|n| n.to_str()) {
                if name.starts_with("snapshot-") && name != format!("snapshot-{lsn}.pdb") {
                    self.fs.remove_file(&p)?;
                }
            }
        }
        Ok(lsn)
    }

    /// Opens a [`WalFollower`] over the current on-disk log, positioned at
    /// `from_lsn`. Appends are plain unbuffered writes, so the follower
    /// sees every record acknowledged so far (synced or not); hold
    /// whatever lock serializes [`Store::append`] to get a consistent
    /// cut at [`Store::next_lsn`]. If `from_lsn` is below
    /// [`Store::base_lsn`] the requested records were checkpointed away —
    /// the caller must restart from a snapshot instead.
    pub fn follow(&self, from_lsn: u64) -> Result<WalFollower, StoreError> {
        let bytes = self.fs.read(&self.dir.join("wal"))?;
        WalFollower::from_bytes(&bytes, from_lsn)
    }

    /// The LSN the next mutation will get (== ops logged since genesis).
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The LSN of the snapshot the current WAL continues from.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// Records in the WAL since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.next_lsn - self.base_lsn
    }

    /// `Err(Wedged)` after a failed write: every further mutation is refused
    /// until the store is reopened (recovery re-establishes a consistent
    /// prefix). The caller applies before it logs, so it asks first: a
    /// mutation the log can no longer take must not reach memory either.
    pub fn ensure_ok(&self) -> Result<(), StoreError> {
        if self.wedged {
            Err(StoreError::Wedged)
        } else {
            Ok(())
        }
    }

    /// Expected on-disk WAL length (for tests / observability): header
    /// plus every record appended since the last checkpoint.
    pub fn wal_header_len() -> u64 {
        WAL_HEADER_LEN
    }

    fn sync_wal(&mut self) -> Result<(), StoreError> {
        let started = Instant::now();
        match self.wal.sync() {
            Ok(()) => {
                crate::metrics::FSYNC_US.record_duration(started.elapsed());
                crate::metrics::WAL_SYNCS.inc();
                self.last_sync = Instant::now();
                Ok(())
            }
            Err(e) => {
                // An errored fsync leaves the durable suffix unknown
                // (fsyncgate): refuse further appends until recovery.
                self.wedged = true;
                Err(StoreError::Io(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FailpointFs, Fault, MemFs};
    use pdb_views::persist::ViewDefState;

    fn opts(every: u64) -> StoreOptions {
        StoreOptions {
            fsync: FsyncPolicy::Always,
            checkpoint_every: every,
        }
    }

    fn dir() -> PathBuf {
        PathBuf::from("data")
    }

    fn workload() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                relation: "R".into(),
                tuple: vec![1],
                prob: 0.5,
            },
            WalOp::Insert {
                relation: "S".into(),
                tuple: vec![1, 2],
                prob: 0.8,
            },
            WalOp::ViewCreate {
                name: "v".into(),
                def: ViewDefState::Boolean("exists x. exists y. R(x) & S(x,y)".into()),
            },
            WalOp::UpdateProb {
                relation: "S".into(),
                tuple: vec![1, 2],
                prob: 0.4,
            },
            WalOp::ExtendDomain { consts: vec![7] },
            WalOp::Insert {
                relation: "R".into(),
                tuple: vec![2],
                prob: 0.25,
            },
            WalOp::UpdateProb {
                relation: "R".into(),
                tuple: vec![2],
                prob: 0.75,
            },
        ]
    }

    /// Replays `ops` fresh — the reference state recovery must equal.
    fn reference(ops: &[WalOp]) -> (ProbDb, ViewManager) {
        let mut db = ProbDb::new();
        let mut views = ViewManager::new();
        for op in ops {
            apply_op(op, &mut db, &mut views).unwrap();
        }
        (db, views)
    }

    fn assert_equals_reference(db: &ProbDb, views: &ViewManager, ops: &[WalOp]) {
        let (rdb, rviews) = reference(ops);
        assert_eq!(db.version(), rdb.version());
        assert_eq!(db.domain_version(), rdb.domain_version());
        assert_eq!(db.tuple_db().tuple_count(), rdb.tuple_db().tuple_count());
        for rel in rdb.tuple_db().relations() {
            for (t, p) in rel.iter() {
                let got = db.tuple_db().prob(rel.name(), t);
                assert_eq!(got.to_bits(), p.to_bits(), "{}({t})", rel.name());
            }
        }
        assert_eq!(views.len(), rviews.len());
        for (v, rv) in views.iter().zip(rviews.iter()) {
            assert_eq!(v.name(), rv.name());
            assert_eq!(v.is_stale(), rv.is_stale());
            assert_eq!(v.rows().len(), rv.rows().len());
            for (a, b) in v.rows().iter().zip(rv.rows()) {
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            }
        }
    }

    #[test]
    fn fresh_open_then_reopen_replays_everything() {
        let fs = Arc::new(MemFs::new());
        let ops = workload();
        {
            let (mut store, rec) = Store::open(fs.clone(), &dir(), opts(0)).unwrap();
            assert_eq!(rec.info.next_lsn, 0);
            let mut db = rec.db;
            let mut views = rec.views;
            for op in &ops {
                apply_op(op, &mut db, &mut views).unwrap();
                store.append(op).unwrap();
            }
            assert_eq!(store.next_lsn(), ops.len() as u64);
        }
        let (_store, rec) = Store::open(fs, &dir(), opts(0)).unwrap();
        assert_eq!(rec.info.replayed_ops, ops.len() as u64);
        assert_eq!(rec.info.snapshot_lsn, 0);
        assert_equals_reference(&rec.db, &rec.views, &ops);
    }

    #[test]
    fn checkpoint_truncates_log_and_recovery_skips_recompilation() {
        let fs = Arc::new(MemFs::new());
        let ops = workload();
        {
            let (mut store, rec) = Store::open(fs.clone(), &dir(), opts(0)).unwrap();
            let mut db = rec.db;
            let mut views = rec.views;
            for op in &ops {
                apply_op(op, &mut db, &mut views).unwrap();
                store.append(op).unwrap();
            }
            store.checkpoint(&db, &views.export_states()).unwrap();
            assert_eq!(store.base_lsn(), ops.len() as u64);
            assert_eq!(store.records_since_checkpoint(), 0);
            // The WAL is now just a header.
            let wal = fs.contents(&dir().join("wal")).unwrap();
            assert_eq!(wal.len() as u64, Store::wal_header_len());
        }
        let (_store, rec) = Store::open(fs, &dir(), opts(0)).unwrap();
        assert_eq!(rec.info.snapshot_lsn, ops.len() as u64);
        assert_eq!(rec.info.replayed_ops, 0);
        assert_equals_reference(&rec.db, &rec.views, &ops);
        // The view came back from its circuit, not from a compile.
        assert_eq!(rec.views.recompiles(), 0);
        assert!(rec.views.get("v").unwrap().rows()[0].is_circuit());
    }

    #[test]
    fn kill_minus_nine_after_ack_loses_nothing_under_fsync_always() {
        let fs = Arc::new(MemFs::new());
        let ops = workload();
        {
            let (mut store, rec) = Store::open(fs.clone(), &dir(), opts(0)).unwrap();
            let mut db = rec.db;
            let mut views = rec.views;
            for op in &ops {
                apply_op(op, &mut db, &mut views).unwrap();
                store.append(op).unwrap(); // acknowledged
            }
            // No graceful close: the store is just dropped.
        }
        fs.crash();
        let (_store, rec) = Store::open(fs, &dir(), opts(0)).unwrap();
        assert_equals_reference(&rec.db, &rec.views, &ops);
    }

    #[test]
    fn fsync_never_crash_recovers_a_consistent_prefix() {
        let fs = Arc::new(MemFs::new());
        let ops = workload();
        let o = StoreOptions {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0,
        };
        {
            let (mut store, rec) = Store::open(fs.clone(), &dir(), o.clone()).unwrap();
            let mut db = rec.db;
            let mut views = rec.views;
            for op in &ops {
                apply_op(op, &mut db, &mut views).unwrap();
                store.append(op).unwrap();
            }
        }
        fs.crash(); // everything since the header is unsynced
        let (_store, rec) = Store::open(fs, &dir(), o).unwrap();
        let survived = rec.info.replayed_ops as usize;
        assert!(survived <= ops.len());
        assert_equals_reference(&rec.db, &rec.views, &ops[..survived]);
    }

    #[test]
    fn halt_at_every_write_boundary_recovers_the_acked_prefix() {
        // The core fault matrix: for every global write ordinal, halt
        // there, crash, recover, and check the recovered state equals a
        // fresh replay of exactly the acknowledged ops.
        let ops = workload();
        let mut boundary = 0;
        loop {
            let mem = MemFs::new();
            let fs = FailpointFs::new(Arc::new(mem.clone()));
            fs.inject(Fault::Halt { at: boundary });
            let mut acked = Vec::new();
            let opened = Store::open(Arc::new(fs.clone()), &dir(), opts(4));
            if let Ok((mut store, rec)) = opened {
                let mut db = rec.db;
                let mut views = rec.views;
                for op in &ops {
                    apply_op(op, &mut db, &mut views).unwrap();
                    match store.append(op) {
                        Ok(_) => acked.push(op.clone()),
                        Err(_) => break,
                    }
                    if store.should_checkpoint() {
                        let _ = store.checkpoint(&db, &views.export_states());
                    }
                }
            }
            let done = !fs.triggered();
            // Crash, then recover on the bare filesystem (the halted
            // wrapper models the dead process and stays dead).
            mem.crash();
            let (_s, rec) =
                Store::open(Arc::new(mem.clone()), &dir(), opts(0)).expect("recovery failed");
            assert!(
                rec.info.replayed_ops + rec.info.snapshot_lsn >= acked.len() as u64,
                "boundary {boundary}: acked {} ops but only {} recovered",
                acked.len(),
                rec.info.replayed_ops + rec.info.snapshot_lsn
            );
            let recovered = (rec.info.snapshot_lsn + rec.info.replayed_ops) as usize;
            assert!(recovered <= ops.len(), "boundary {boundary}");
            assert_equals_reference(&rec.db, &rec.views, &ops[..recovered]);
            if done {
                break; // the fault never fired: the workload is exhausted
            }
            boundary += 1;
        }
        assert!(
            boundary > 5,
            "expected several write boundaries, saw {boundary}"
        );
    }

    #[test]
    fn torn_append_wedges_and_recovery_drops_the_tail() {
        let fs_mem = MemFs::new();
        let fs = FailpointFs::new(Arc::new(fs_mem.clone()));
        let ops = workload();
        // Write 0 is the WAL header — record i is write ordinal i + 1, so
        // this tears record 2 after 5 bytes.
        fs.inject(Fault::TornWrite { at: 3, keep: 5 });
        let (mut store, rec) = Store::open(Arc::new(fs.clone()), &dir(), opts(0)).unwrap();
        let mut db = rec.db;
        let mut views = rec.views;
        let mut acked = 0;
        for op in &ops {
            apply_op(op, &mut db, &mut views).unwrap();
            match store.append(op) {
                Ok(_) => acked += 1,
                Err(_) => break,
            }
        }
        assert!(fs.triggered());
        // Once wedged, everything is refused.
        assert!(matches!(store.ensure_ok(), Err(StoreError::Wedged)));
        assert!(matches!(store.append(&ops[0]), Err(StoreError::Wedged)));
        assert!(matches!(store.flush(), Err(StoreError::Wedged)));
        drop(store);
        fs.disarm();
        // Process restart without power loss: the torn bytes are still in
        // the file (page cache survives a dead process) and must be
        // detected and dropped by the CRC/length scan.
        let (_s, rec) = Store::open(Arc::new(fs), &dir(), opts(0)).unwrap();
        assert_eq!(rec.info.replayed_ops, acked);
        assert!(rec.info.truncated_bytes > 0, "torn tail must be dropped");
        assert_equals_reference(&rec.db, &rec.views, &ops[..acked as usize]);
    }

    #[test]
    fn bit_flipped_record_truncates_from_the_flip() {
        let fs_mem = MemFs::new();
        let fs = FailpointFs::new(Arc::new(fs_mem.clone()));
        let ops = workload();
        // Flip a bit inside record 3's payload (write 0 is the header, so
        // record i is write ordinal i + 1; bit 77 lands in the LSN field).
        fs.inject(Fault::BitFlip { at: 4, bit: 77 });
        let (mut store, rec) = Store::open(Arc::new(fs.clone()), &dir(), opts(0)).unwrap();
        let mut db = rec.db;
        let mut views = rec.views;
        for op in &ops {
            apply_op(op, &mut db, &mut views).unwrap();
            store.append(op).unwrap(); // silent corruption: still acked!
        }
        assert!(fs.triggered());
        drop(store);
        fs.disarm();
        let (_s, rec) = Store::open(Arc::new(fs), &dir(), opts(0)).unwrap();
        // The flip hit record 3 (0-based): records 0-2 survive, the rest
        // of the log is dropped at the CRC mismatch.
        assert_eq!(rec.info.replayed_ops, 3);
        assert!(rec.info.truncated_bytes > 0);
        assert_equals_reference(&rec.db, &rec.views, &ops[..3]);
    }

    #[test]
    fn failed_fsync_wedges_the_store() {
        let fs = FailpointFs::new(Arc::new(MemFs::new()));
        let (mut store, _rec) = Store::open(Arc::new(fs.clone()), &dir(), opts(0)).unwrap();
        fs.inject(Fault::FailSync { at: 0 });
        let op = WalOp::ExtendDomain { consts: vec![1] };
        assert!(store.append(&op).is_err());
        assert!(matches!(store.ensure_ok(), Err(StoreError::Wedged)));
    }

    #[test]
    fn interval_and_never_policies_parse() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Some(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert_eq!(FsyncPolicy::parse("interval:"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn follow_reads_the_live_tail_and_reports_checkpoint_gaps() {
        let fs = Arc::new(MemFs::new());
        let ops = workload();
        let (mut store, rec) = Store::open(fs, &dir(), opts(0)).unwrap();
        let mut db = rec.db;
        let mut views = rec.views;
        for op in &ops {
            apply_op(op, &mut db, &mut views).unwrap();
            store.append(op).unwrap();
        }
        // Unsynced appends are already visible to a follower.
        let f = store.follow(3).unwrap();
        assert_eq!(f.base_lsn(), 0);
        assert_eq!(f.next_lsn(), ops.len() as u64);
        let tail: Vec<WalOp> = f.map(|r| r.op).collect();
        assert_eq!(tail, ops[3..].to_vec());
        // After a checkpoint the old records are gone: a follower asking
        // for LSN 3 sees base_lsn above its position — the re-bootstrap
        // signal.
        store.checkpoint(&db, &views.export_states()).unwrap();
        let f = store.follow(3).unwrap();
        assert_eq!(f.base_lsn(), ops.len() as u64);
        assert_eq!(f.remaining(), 0);
    }

    #[test]
    fn crash_between_checkpoint_renames_recovers_from_the_old_pair() {
        // Halt right after the snapshot rename, before the WAL rewrite:
        // recovery must fall back to the old snapshot + full WAL.
        let ops = workload();
        let mem = MemFs::new();
        let fs = FailpointFs::new(Arc::new(mem.clone()));
        let (mut store, rec) = Store::open(Arc::new(fs.clone()), &dir(), opts(0)).unwrap();
        let mut db = rec.db;
        let mut views = rec.views;
        for op in &ops {
            apply_op(op, &mut db, &mut views).unwrap();
            store.append(op).unwrap();
        }
        // `inject` resets the write counter: within the checkpoint, write 0
        // is the snapshot body and write 1 the new WAL header. Halt on the
        // header, i.e. after the snapshot rename but before the WAL one.
        fs.inject(Fault::Halt { at: 1 });
        assert!(store.checkpoint(&db, &views.export_states()).is_err());
        assert!(fs.triggered());
        drop(store);
        mem.crash();
        let (_s, rec) = Store::open(Arc::new(mem), &dir(), opts(0)).unwrap();
        // The old WAL still names snapshot 0 (none) and holds all records.
        assert_eq!(rec.info.snapshot_lsn, 0);
        assert_eq!(rec.info.replayed_ops, ops.len() as u64);
        assert_equals_reference(&rec.db, &rec.views, &ops);
    }
}
