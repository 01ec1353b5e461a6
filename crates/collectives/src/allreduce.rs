//! `MPIX_Pallreduce`: the partitioned allreduce (and friends) built on the
//! generic schedule engine.
//!
//! The control flow matches partitioned point-to-point: `*_init` once, then
//! per iteration `start → pbuf_prepare → Pready per partition (host or
//! device) → wait`. The ring reduce-scatter-allgather algorithm is used, as
//! in the paper's evaluation (§VI-B: "the Ring algorithm is used in all
//! cases, as this algorithm is important in Machine Learning contexts").

use std::ops::Range;

use parcomm_gpu::{Buffer, DeviceCtx, Stream};
use parcomm_mpi::{MpiError, Rank};
use parcomm_sim::Ctx;

use crate::engine::CollectiveEngine;
use crate::schedule::Schedule;

/// A persistent partitioned allreduce (`MPIX_Pallreduce_init` result).
///
/// Sum-reduces `user_partitions × chunks` f64 elements in place across all
/// ranks of the world, pipelined per user partition.
#[derive(Clone)]
pub struct Pallreduce {
    engine: CollectiveEngine,
}

/// `MPIX_Pallreduce_init`: build the ring schedule and its channels.
///
/// `buffer` holds f64 payload; its byte length must divide into
/// `user_partitions × world_size` equal chunks. The reduction kernels run
/// on `stream`.
pub fn pallreduce_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<Pallreduce, MpiError> {
    crate::charge_pcoll_init_extra(ctx);
    let schedule = Schedule::ring_allreduce(rank.rank(), rank.size());
    let engine = CollectiveEngine::new(ctx, rank, schedule, buffer, user_partitions, stream, tag)?;
    Ok(Pallreduce { engine })
}

/// `MPIX_Pallreduce_init` with the node-aware hierarchical ring schedule
/// ([`Schedule::hierarchical_ring_allreduce`]): intra-node NVLink
/// reduce-scatter → inter-node rail-ring allreduce → intra-node allgather.
/// Identical surface and chunking contract to [`pallreduce_init`] (the
/// buffer divides into `user_partitions × world_size` chunks); on one node
/// the schedule — and therefore the run — is identical to the flat ring.
pub fn pallreduce_init_hierarchical(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<Pallreduce, MpiError> {
    crate::charge_pcoll_init_extra(ctx);
    let topo = rank.topology();
    let schedule = Schedule::hierarchical_ring_allreduce(rank.rank(), &topo);
    let engine = CollectiveEngine::new(ctx, rank, schedule, buffer, user_partitions, stream, tag)?;
    Ok(Pallreduce { engine })
}

impl Pallreduce {
    /// Number of user partitions.
    pub fn user_partitions(&self) -> usize {
        self.engine.user_partitions()
    }

    /// `MPI_Start` for the collective.
    pub fn start(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        self.engine.start(ctx)
    }

    /// `MPIX_Pbuf_prepare` for the collective: synchronizes the processes
    /// associated with the collective.
    pub fn pbuf_prepare(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        self.engine.pbuf_prepare(ctx)
    }

    /// Host `MPI_Pready`: partition `u`'s local contribution is complete.
    pub fn pready(&self, ctx: &mut Ctx, u: usize) -> Result<(), MpiError> {
        self.engine.pready(ctx, u)
    }

    /// Device `MPIX_Pready` for a range of user partitions, callable from
    /// a kernel body.
    pub fn pready_device(&self, d: &mut DeviceCtx<'_>, users: Range<usize>) {
        self.engine.pready_device(d, users);
    }

    /// Device `MPIX_Pready` for all partitions.
    pub fn pready_device_all(&self, d: &mut DeviceCtx<'_>) {
        self.engine.pready_device(d, 0..self.engine.user_partitions());
    }

    /// `MPI_Parrived`: is the allreduce complete for partition `u`?
    pub fn parrived(&self, u: usize) -> bool {
        self.engine.parrived(u)
    }

    /// Channel-table lookups the engine performed on its completion path so
    /// far. Test support for the O(1)-per-event contract: the conformance
    /// suite asserts this grows linearly with arrivals, never with an
    /// O(channels) rescan factor.
    #[doc(hidden)]
    pub fn completion_lookup_ops(&self) -> u64 {
        self.engine.completion_lookup_ops()
    }

    /// `MPI_Wait`: progress the schedule (Algorithm 2) to completion.
    ///
    /// With a watchdog armed (`FaultPlan::watchdog_us` in
    /// `WorldConfig::faults`), a stalled schedule surfaces
    /// [`MpiError::CollectiveTimeout`] instead of hanging.
    pub fn wait(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        self.engine.wait(ctx)
    }

    /// Number of schedule steps (diagnostics).
    pub fn steps(&self) -> usize {
        self.engine.schedule().len()
    }
}

/// A persistent partitioned broadcast (`MPIX_Pbcast_init` result), using a
/// binomial tree of NOP steps — demonstrating the schedule's algorithm
/// independence (a bcast has no reduction, hence no in-collective stream
/// synchronization).
#[derive(Clone)]
pub struct Pbcast {
    engine: CollectiveEngine,
    root: usize,
}

/// `MPIX_Pbcast_init`: build the binomial-tree schedule rooted at `root`.
pub fn pbcast_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    root: usize,
    tag: u64,
) -> Result<Pbcast, MpiError> {
    crate::charge_pcoll_init_extra(ctx);
    let schedule = Schedule::tree_bcast(rank.rank(), rank.size(), root);
    let engine = CollectiveEngine::new(ctx, rank, schedule, buffer, user_partitions, stream, tag)?;
    Ok(Pbcast { engine, root })
}

impl Pbcast {
    /// The broadcast root.
    pub fn root(&self) -> usize {
        self.root
    }

    /// `MPI_Start`.
    pub fn start(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        self.engine.start(ctx)
    }

    /// `MPIX_Pbuf_prepare`.
    pub fn pbuf_prepare(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        self.engine.pbuf_prepare(ctx)
    }

    /// `MPI_Pready`: on the root, the partition's payload is complete; on
    /// other ranks this activates the partition's forwarding schedule.
    pub fn pready(&self, ctx: &mut Ctx, u: usize) -> Result<(), MpiError> {
        self.engine.pready(ctx, u)
    }

    /// `MPI_Parrived`.
    pub fn parrived(&self, u: usize) -> bool {
        self.engine.parrived(u)
    }

    /// `MPI_Wait`.
    pub fn wait(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
        self.engine.wait(ctx)
    }
}
