//! Applying one [`WalOp`] to the engine state — the only place the fold
//! `op history → (ProbDb, ViewManager)` is written. A live command, a
//! replica applying its stream, crash recovery and the shell all run an op
//! through the same three steps, which is what makes "same history ⇒
//! bit-identical state" an identity:
//!
//! 1. [`apply_db`] mutates the database and returns what is [`Pending`];
//! 2. [`Pending::compile`] builds the view if the op creates one, leaving
//!    the [`ViewEvent`] — the versioned message the view manager has to see;
//! 3. [`ViewEvent::deliver`] hands it to the manager.
//!
//! The steps are split where a server's locks need them: the database write
//! lock is released before the manager lock is taken, and a view is built
//! with neither held — an unbuilt view is not a [`ViewEvent`], so no build
//! can run under the manager lock. [`apply_op`] runs them back to back.

use crate::wal::WalOp;
use crate::StoreError;
use pdb_core::{EngineError, ProbDb};
use pdb_data::Tuple;
use pdb_views::persist::ViewDefState;
use pdb_views::{View, ViewDef, ViewManager, ViewOptions};
use std::ops::Deref;

/// Why an op was not applied. In every case the state is exactly as it was
/// before the call, so the caller only decides how to surface it: a live
/// command replies with an error and logs nothing, a replica treats it as
/// divergence from its primary, a replay skips it.
#[derive(Debug)]
pub enum Refused {
    /// An `update` named a tuple that is not a possible tuple.
    AbsentTuple,
    /// A `view drop` named a view that is not registered.
    AbsentView,
    /// The engine rejected a `view create`: unparsable definition, name
    /// already taken, or a failed build.
    Engine(EngineError),
}

impl From<EngineError> for Refused {
    fn from(e: EngineError) -> Refused {
        Refused::Engine(e)
    }
}

/// What [`apply_db`] leaves to do. Opaque, like [`ViewEvent`]: the only way
/// to either is through an op, so nothing reaches the manager that the
/// database has not seen.
pub struct Pending<'a>(Step<'a>);

enum Step<'a> {
    Event(Event<'a>),
    /// A view still to be built.
    Create {
        name: &'a str,
        def: ViewDef,
    },
}

/// The view-manager half of an op: a versioned data event, a built view to
/// register, or a drop.
pub struct ViewEvent<'a>(Event<'a>);

enum Event<'a> {
    /// `version`: the written relation's version after the write.
    Insert {
        relation: &'a str,
        version: u64,
    },
    UpdateProb {
        relation: &'a str,
        tuple: Tuple,
        prob: f64,
        version: u64,
    },
    DomainExtend,
    /// `built_at`: the database version the view was built against.
    Install {
        view: Box<View>,
        built_at: u64,
    },
    Drop {
        name: &'a str,
    },
}

/// The database half: applies `op` to the database. `db` is called only by
/// the three data ops, so a caller whose database sits behind a lock (or a
/// copy-on-write handle) pays for write access only when there is
/// something to write.
pub fn apply_db<'a, 'd>(
    op: &'a WalOp,
    db: impl FnOnce() -> &'d mut ProbDb,
) -> Result<Pending<'a>, Refused> {
    let event = match op {
        WalOp::Insert {
            relation,
            tuple,
            prob,
        } => {
            let db = db();
            db.insert(relation, tuple.clone(), *prob);
            let version = db.relation_version(relation);
            Event::Insert { relation, version }
        }
        WalOp::UpdateProb {
            relation,
            tuple,
            prob,
        } => {
            let tuple = Tuple::new(tuple.clone());
            let version = db()
                .update_prob(relation, &tuple, *prob)
                .ok_or(Refused::AbsentTuple)?;
            Event::UpdateProb {
                relation,
                tuple,
                prob: *prob,
                version,
            }
        }
        WalOp::ExtendDomain { consts } => {
            db().extend_domain(consts.iter().copied());
            Event::DomainExtend
        }
        WalOp::ViewCreate { name, def } => {
            let def = match def {
                ViewDefState::Boolean(text) => ViewDef::boolean(text),
                ViewDefState::Answers { head, body } => ViewDef::answers(head, body),
            }?;
            return Ok(Pending(Step::Create { name, def }));
        }
        WalOp::ViewDrop { name } => Event::Drop { name },
    };
    Ok(Pending(Step::Event(event)))
}

impl<'a> Pending<'a> {
    /// Builds the view if the op creates one — the expensive step, which
    /// fans out on the thread pool and touches no manager state. `build`
    /// supplies the manager's options and the database to build against,
    /// and is called for a create only.
    pub fn compile<D: Deref<Target = ProbDb>>(
        self,
        build: impl FnOnce() -> (ViewOptions, D),
    ) -> Result<ViewEvent<'a>, Refused> {
        Ok(ViewEvent(match self.0 {
            Step::Event(event) => event,
            Step::Create { name, def } => {
                let (opts, db) = build();
                let view = ViewManager::compile(&opts, name, def, &db)?;
                let built_at = db.version();
                Event::Install {
                    view: Box::new(view),
                    built_at,
                }
            }
        }))
    }
}

impl ViewEvent<'_> {
    /// The manager half: delivers the event, returning the view it
    /// registered, if any. `db` is called only to register a view (which
    /// goes in stale if the database has moved since it was built), so a
    /// caller that has to snapshot the database pays for it only then.
    pub fn deliver<D: Deref<Target = ProbDb>>(
        self,
        views: &mut ViewManager,
        db: impl FnOnce() -> D,
    ) -> Result<Option<&View>, Refused> {
        match self.0 {
            Event::Insert { relation, version } => views.on_insert(relation, version),
            Event::UpdateProb {
                relation,
                tuple,
                prob,
                version,
            } => {
                views.on_update_prob(relation, &tuple, prob, version);
            }
            Event::DomainExtend => views.on_domain_extend(),
            Event::Install { view, built_at } => {
                return Ok(Some(views.install(*view, built_at, &db())?))
            }
            Event::Drop { name } => {
                if !views.drop_view(name) {
                    return Err(Refused::AbsentView);
                }
            }
        }
        Ok(None)
    }
}

/// All steps back to back, for callers that own the database and the
/// manager outright: recovery's replay and tests' reference replays. A
/// refusal leaves the state untouched, so replaying a refused op is the
/// no-op it was when it was first applied.
pub fn apply_op(op: &WalOp, db: &mut ProbDb, views: &mut ViewManager) -> Result<(), StoreError> {
    let applied = apply_db(op, || &mut *db)
        .and_then(|pending| pending.compile(|| (views.options().clone(), &*db)))
        .and_then(|event| event.deliver(views, || &*db).map(drop));
    match applied {
        Ok(()) | Err(Refused::AbsentTuple | Refused::AbsentView) => Ok(()),
        Err(Refused::Engine(e)) => Err(StoreError::Engine(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_direct_execution() {
        let ops = [
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
            WalOp::UpdateProb {
                relation: "S".into(),
                tuple: vec![9, 9],
                prob: 0.4, // not a possible tuple: must be a no-op
            },
            WalOp::ExtendDomain { consts: vec![4] },
        ];
        let mut db = ProbDb::new();
        let mut views = ViewManager::new();
        for op in &ops {
            apply_op(op, &mut db, &mut views).unwrap();
        }
        let expect = db
            .query("exists x. exists y. R(x) & S(x,y)")
            .unwrap()
            .probability;
        let got = views
            .get("v")
            .unwrap()
            .boolean_answer()
            .unwrap()
            .probability;
        assert_eq!(got.to_bits(), expect.to_bits());
        // 2 inserts + 1 successful update + 1 domain extension; the
        // impossible-tuple update must not bump any version.
        assert_eq!(db.version(), 4, "failed update must not bump versions");
    }

    #[test]
    fn refusals_are_typed_and_leave_state_untouched() {
        let mut db = ProbDb::new();
        let mut views = ViewManager::new();
        let absent_tuple = WalOp::UpdateProb {
            relation: "R".into(),
            tuple: vec![1],
            prob: 0.5,
        };
        assert!(matches!(
            apply_db(&absent_tuple, || &mut db),
            Err(Refused::AbsentTuple)
        ));
        let absent_view = WalOp::ViewDrop { name: "v".into() };
        let delivered = apply_db(&absent_view, || {
            unreachable!("view ops have no database half")
        })
        .and_then(|pending| pending.compile(|| (ViewOptions::default(), &db)))
        .and_then(|event| event.deliver(&mut views, || &db).map(drop));
        assert!(matches!(delivered, Err(Refused::AbsentView)));
        let unparsable = WalOp::ViewCreate {
            name: "v".into(),
            def: ViewDefState::Boolean("R(x".into()),
        };
        assert!(matches!(
            apply_db(&unparsable, || &mut db),
            Err(Refused::Engine(_))
        ));
        assert_eq!(db.version(), 0);
        assert!(views.is_empty());
    }
}
