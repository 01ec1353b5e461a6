//! The one wait policy behind every blocking partitioned wait.
//!
//! All partitioned completion is driven from inside `MPI_Wait` (paper
//! §IV-B): the send and receive sides block on their counters, and the
//! collective runs Algorithm 2 there. A [`WaitGuard`], built once per rank
//! and shared by its requests, gives each of those waits the same watchdog
//! and recovery policy: the bound a wait may stall for, the fatal bounded
//! waits, and the one rung of the lease → host drain → replay ladder.
//!
//! With no watchdog and no recovery armed (the default), every guarded wait
//! is the plain unbounded wait and schedules no extra event.

use parcomm_sim::{CountEvent, Ctx, SimDuration};
use parcomm_ucx::{AmMessage, Worker};

use crate::error::MpiError;
use crate::progress::ProgressionEngine;
use crate::world::{MpiInstruments, MpiWorld, RecoverConfig};

/// The watchdog-and-recovery policy of a rank's blocking waits
/// ([`crate::Rank::wait_guard`]); its watchdog counting follows the rule
/// on [`MpiInstruments`].
pub struct WaitGuard {
    rank: usize,
    /// The fatal watchdog ([`crate::FaultPlan::watchdog_us`]).
    watchdog_us: Option<f64>,
    recover: Option<RecoverConfig>,
    instruments: Option<MpiInstruments>,
    /// The rank's progression engine, whose lease the ladder checks.
    progression: ProgressionEngine,
}

impl WaitGuard {
    /// The guard for waits issued by `rank`, from its world's watchdog,
    /// recovery policy and instruments.
    pub(crate) fn new(rank: usize, world: &MpiWorld, progression: &ProgressionEngine) -> Self {
        WaitGuard {
            rank,
            watchdog_us: world.config().faults.watchdog_us,
            recover: world.config().recover.clone(),
            instruments: world.instruments(),
            progression: progression.clone(),
        }
    }

    /// How long a recoverable wait may stall before the ladder climbs —
    /// `detect_us` capped by the watchdog, else the watchdog alone, else
    /// unbounded — arming the watchdog when bounded.
    pub fn arm_stall_bound(&self) -> Option<f64> {
        let bound = match &self.recover {
            Some(rc) => Some(rc.detect_us.min(self.watchdog_us.unwrap_or(f64::INFINITY))),
            None => self.watchdog_us,
        };
        if bound.is_some() {
            self.arm();
        }
        bound
    }

    /// Block until `counter` reaches `target`, or `bound_us` elapses.
    /// Returns whether the target was met; unbounded, this is exactly
    /// [`Ctx::wait_count`].
    pub fn wait_within(
        &self,
        ctx: &mut Ctx,
        counter: &CountEvent,
        target: u64,
        bound_us: Option<f64>,
    ) -> bool {
        match bound_us {
            None => {
                ctx.wait_count(counter, target);
                true
            }
            Some(t) => ctx.wait_count_timeout(counter, target, SimDuration::from_micros_f64(t)),
        }
    }

    /// Block until `counter` reaches `target`, bounded by the watchdog: an
    /// expiry is a typed [`MpiError::WaitTimeout`] on `context`.
    pub fn wait_count(
        &self,
        ctx: &mut Ctx,
        counter: &CountEvent,
        target: u64,
        context: impl FnOnce() -> String,
    ) -> Result<(), MpiError> {
        if self.watchdog_us.is_some() {
            self.arm();
        }
        if self.wait_within(ctx, counter, target, self.watchdog_us) {
            return Ok(());
        }
        self.fire();
        Err(self.timeout(context(), counter.count(), target))
    }

    /// Receive the active message `tag`, bounded by the watchdog: a peer
    /// that died mid-handshake is a typed [`MpiError::WaitTimeout`] on
    /// `context` instead of parking this rank forever.
    pub fn am_recv(
        &self,
        ctx: &mut Ctx,
        worker: &Worker,
        tag: u64,
        context: impl FnOnce() -> String,
    ) -> Result<AmMessage, MpiError> {
        let Some(t) = self.watchdog_us else { return Ok(worker.am_recv(ctx, tag)) };
        self.arm();
        worker.am_recv_timeout(ctx, tag, SimDuration::from_micros_f64(t)).ok_or_else(|| {
            self.fire();
            self.timeout(context(), 0, 1)
        })
    }

    /// A wait on `what` stalled past its bound, diagnosed as `stall`. Without
    /// recovery the stall is fatal. With it, one rung of the ladder runs: an
    /// expired progression-engine lease hands its pending device
    /// notifications to `drain` (which returns whether it had any to take
    /// over), then `replay` re-issues the undelivered work, and the bound is
    /// re-armed. Once `max_replays` rungs are spent the typed
    /// [`MpiError::Unrecoverable`] surfaces instead.
    pub fn stalled(
        &self,
        ctx: &mut Ctx,
        attempts: &mut u32,
        what: &str,
        stall: MpiError,
        drain: impl FnOnce(&mut Ctx) -> bool,
        replay: impl FnOnce(&mut Ctx),
    ) -> Result<(), MpiError> {
        self.fire();
        let Some(rc) = &self.recover else { return Err(stall) };
        if *attempts >= rc.max_replays {
            return Err(MpiError::Unrecoverable {
                rank: self.rank,
                context: format!("{what}: {stall}"),
                attempts: *attempts,
            });
        }
        *attempts += 1;
        if self.progression.lease_expired(ctx.now(), rc.lease_us) {
            if let Some(ins) = &self.instruments {
                ins.recover_lease_expired.inc();
            }
            if drain(ctx) {
                if let Some(ins) = &self.instruments {
                    ins.recover_host_drains.inc();
                }
            }
        }
        replay(ctx);
        self.arm();
        Ok(())
    }

    fn timeout(&self, context: String, completed: u64, expected: u64) -> MpiError {
        let timeout_us = self.watchdog_us.expect("only a watchdog-bounded wait times out");
        MpiError::WaitTimeout { rank: self.rank, context, completed, expected, timeout_us }
    }

    fn arm(&self) {
        if let Some(ins) = &self.instruments {
            ins.watchdog_arms.inc();
        }
    }

    fn fire(&self) {
        if let Some(ins) = &self.instruments {
            ins.watchdog_fires.inc();
        }
    }
}
