//! Additional partitioned collectives on the generic schedule engine.
//!
//! The MPI Forum proposals list 21+ collectives that libraries would have
//! to implement; the paper's answer is the generic schedule (§IV-B1).
//! These wrappers demonstrate that breadth: allgather and reduce-scatter
//! reuse the ring machinery of Algorithm 1, gather and scatter use chain
//! schedules toward/from a root — all progressed by the same Algorithm 2
//! executor, with the same `init → start → pbuf_prepare → pready → wait`
//! control flow and device bindings.

use std::ops::Range;

use parcomm_gpu::{Buffer, DeviceCtx, Stream};
use parcomm_mpi::{MpiError, Rank};
use parcomm_sim::Ctx;

use crate::engine::CollectiveEngine;
use crate::schedule::Schedule;

macro_rules! collective_common {
    () => {
        /// Number of user partitions.
        pub fn user_partitions(&self) -> usize {
            self.engine.user_partitions()
        }

        /// `MPI_Start` for the collective.
        pub fn start(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
            self.engine.start(ctx)
        }

        /// `MPIX_Pbuf_prepare`: synchronize the collective's processes.
        pub fn pbuf_prepare(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
            self.engine.pbuf_prepare(ctx)
        }

        /// Host `MPI_Pready` for user partition `u`.
        pub fn pready(&self, ctx: &mut Ctx, u: usize) -> Result<(), MpiError> {
            self.engine.pready(ctx, u)
        }

        /// Device `MPIX_Pready` for a range of user partitions.
        pub fn pready_device(&self, d: &mut DeviceCtx<'_>, users: Range<usize>) {
            self.engine.pready_device(d, users);
        }

        /// `MPI_Parrived`: is the collective complete for partition `u`?
        pub fn parrived(&self, u: usize) -> bool {
            self.engine.parrived(u)
        }

        /// `MPI_Wait`: run Algorithm 2 to completion.
        pub fn wait(&self, ctx: &mut Ctx) -> Result<(), MpiError> {
            self.engine.wait(ctx)
        }
    };
}

/// Partitioned ring allgather: rank `r` contributes chunk `r` of each
/// user partition region; after the collective every rank holds all `P`
/// chunks.
#[derive(Clone)]
pub struct Pallgather {
    engine: CollectiveEngine,
}

/// `MPIX_Pallgather_init`.
pub fn pallgather_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<Pallgather, MpiError> {
    crate::charge_pcoll_init_extra(ctx);
    let schedule = Schedule::ring_allgather(rank.rank(), rank.size());
    Ok(Pallgather {
        engine: CollectiveEngine::new(ctx, rank, schedule, buffer, user_partitions, stream, tag)?,
    })
}

impl Pallgather {
    collective_common!();
}

/// Partitioned ring reduce-scatter: the reduce-scatter half of
/// Algorithm 1. After completion rank `r` owns the fully reduced chunk
/// `(r + 1) mod P` of each user partition region (other chunks hold
/// intermediate partial sums, as with in-place ring implementations).
#[derive(Clone)]
pub struct PreduceScatter {
    engine: CollectiveEngine,
}

/// `MPIX_Preduce_scatter_init`.
pub fn preduce_scatter_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<PreduceScatter, MpiError> {
    crate::charge_pcoll_init_extra(ctx);
    let schedule = Schedule::ring_reduce_scatter(rank.rank(), rank.size());
    Ok(PreduceScatter {
        engine: CollectiveEngine::new(ctx, rank, schedule, buffer, user_partitions, stream, tag)?,
    })
}

impl PreduceScatter {
    collective_common!();

    /// The chunk index this rank owns (fully reduced) after the collective.
    pub fn owned_chunk(rank: usize, p: usize) -> usize {
        (rank + 1) % p
    }
}

/// Partitioned chain gather: after the collective the root holds chunk
/// `r` from every rank `r`. Non-root buffers are forwarding scratch.
#[derive(Clone)]
pub struct Pgather {
    engine: CollectiveEngine,
    root: usize,
}

/// `MPIX_Pgather_init`.
pub fn pgather_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    root: usize,
    tag: u64,
) -> Result<Pgather, MpiError> {
    crate::charge_pcoll_init_extra(ctx);
    let schedule = Schedule::chain_gather(rank.rank(), rank.size(), root);
    Ok(Pgather {
        engine: CollectiveEngine::new(ctx, rank, schedule, buffer, user_partitions, stream, tag)?,
        root,
    })
}

impl Pgather {
    collective_common!();

    /// The gather root.
    pub fn root(&self) -> usize {
        self.root
    }
}

/// Partitioned pairwise alltoall: chunk `d` of each partition region is
/// delivered to rank `d`; afterwards chunk `s` holds rank `s`'s
/// contribution for this rank.
#[derive(Clone)]
pub struct Palltoall {
    engine: CollectiveEngine,
}

/// `MPIX_Palltoall_init`.
pub fn palltoall_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    tag: u64,
) -> Result<Palltoall, MpiError> {
    crate::charge_pcoll_init_extra(ctx);
    let schedule = Schedule::pairwise_alltoall(rank.rank(), rank.size());
    Ok(Palltoall {
        engine: CollectiveEngine::new(ctx, rank, schedule, buffer, user_partitions, stream, tag)?,
    })
}

impl Palltoall {
    collective_common!();
}

/// Partitioned chain scatter: the root's chunk `r` reaches rank `r`.
#[derive(Clone)]
pub struct Pscatter {
    engine: CollectiveEngine,
    root: usize,
}

/// `MPIX_Pscatter_init`.
pub fn pscatter_init(
    ctx: &mut Ctx,
    rank: &Rank,
    buffer: &Buffer,
    user_partitions: usize,
    stream: &Stream,
    root: usize,
    tag: u64,
) -> Result<Pscatter, MpiError> {
    crate::charge_pcoll_init_extra(ctx);
    let schedule = Schedule::chain_scatter(rank.rank(), rank.size(), root);
    Ok(Pscatter {
        engine: CollectiveEngine::new(ctx, rank, schedule, buffer, user_partitions, stream, tag)?,
        root,
    })
}

impl Pscatter {
    collective_common!();

    /// The scatter root.
    pub fn root(&self) -> usize {
        self.root
    }
}
