//! Chaos-run helpers: execute a canonical workload under a [`FaultPlan`]
//! and classify the outcome.
//!
//! A [`Cell`] names every axis of one chaos run — [`Workload`], node
//! count, [`TopologyShape`], stripes, copy mechanism, recovery — and
//! [`Cell::run`] executes it. [`run_world`] / [`run_world_with`] run an
//! arbitrary rank program instead, and [`run_jacobi_chaos`] keeps the
//! Jacobi solver's own frozen digest recipe.
//!
//! A [`ChaosRun`] captures the three observables the fault-injection
//! contract is stated in:
//!
//! - **digest** — the deterministic trace digest (same `(sim seed, plan)`
//!   ⇒ same digest, replayable byte for byte);
//! - **numeric** — the workload's rank-0 numeric result (survivable faults
//!   must leave it bit-identical to the fault-free run: latency, never
//!   integrity);
//! - **errors** — the typed [`MpiError`]s ranks returned (unsurvivable
//!   faults must land here instead of hanging the run).
//!
//! With [`FaultPlan::none`] the digest recipe reproduces the frozen
//! pre-fault-PR baselines exactly (see `tests/chaos.rs`).

use std::sync::Arc;

use parcomm_apps::{run_jacobi, run_moe, JacobiConfig, JacobiModel, MoeConfig};
use parcomm_coll::pallreduce_init;
use parcomm_core::{precv_init, prequest_create, psend_init, CopyMechanism, PrequestConfig};
use parcomm_gpu::KernelSpec;
use parcomm_mpi::{MpiError, MpiWorld, Rank, RecoverConfig, WorldConfig};
use parcomm_net::ClusterSpec;
use parcomm_obs::MetricsSnapshot;
use parcomm_sim::{Ctx, Mutex, Simulation};
use parcomm_testkit::digest;

use crate::FaultPlan;

/// The classified outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Deterministic digest of the run (trace + report + rank-0 numerics).
    pub digest: u64,
    /// Virtual end time of the simulation (µs) — the goodput denominator.
    pub end_time_us: f64,
    /// Rank-0's numeric observable (reduced buffer / solver checksum).
    pub numeric: Vec<f64>,
    /// Typed errors returned by ranks, in rank order.
    pub errors: Vec<(usize, MpiError)>,
    /// End-of-run metrics across every layer (PE polls, puts, retransmits,
    /// watchdog arms/fires, per-rail bytes). Instruments are pure atomics,
    /// so collecting them leaves the digest untouched.
    pub metrics: MetricsSnapshot,
}

impl ChaosRun {
    /// True if every rank completed without a typed error.
    pub fn survived(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Run an arbitrary rank program under `plan` on a `nodes`-node GH200
/// world. The body returns this rank's numeric observable (rank 0's is
/// kept) or a typed error (recorded; the run itself still completes).
pub fn run_world<F>(seed: u64, plan: &FaultPlan, nodes: u16, body: F) -> ChaosRun
where
    F: Fn(&mut Ctx, &mut Rank) -> Result<Vec<f64>, MpiError> + Send + Sync + 'static,
{
    run_world_with(seed, plan, nodes, |_| {}, body)
}

/// [`run_world`] with an extra hook mutating the [`WorldConfig`] after the
/// fault plan is set — the entry point for world-level knobs (stripe
/// count above all) that are not part of the fault plan itself.
pub fn run_world_with<C, F>(
    seed: u64,
    plan: &FaultPlan,
    nodes: u16,
    configure: C,
    body: F,
) -> ChaosRun
where
    C: FnOnce(&mut WorldConfig),
    F: Fn(&mut Ctx, &mut Rank) -> Result<Vec<f64>, MpiError> + Send + Sync + 'static,
{
    run_folded(seed, plan, nodes, configure, body, |d, numeric| {
        d.write_f64_slice(numeric);
    })
}

/// [`run_world_with`] with the rank-0 numerics folded into the digest by
/// `fold`.
fn run_folded<C, F>(
    seed: u64,
    plan: &FaultPlan,
    nodes: u16,
    configure: C,
    body: F,
    fold: fn(&mut digest::Digest, &[f64]),
) -> ChaosRun
where
    C: FnOnce(&mut WorldConfig),
    F: Fn(&mut Ctx, &mut Rank) -> Result<Vec<f64>, MpiError> + Send + Sync + 'static,
{
    let mut sim = Simulation::with_seed(seed);
    let trace = sim.trace();
    trace.enable();
    let mut cfg = WorldConfig { faults: plan.clone(), ..WorldConfig::gh200(nodes) };
    configure(&mut cfg);
    let world = MpiWorld::new(&sim, cfg);
    let registry = world.enable_metrics();
    let numeric = Arc::new(Mutex::new(Vec::new()));
    let errors = Arc::new(Mutex::new(Vec::new()));
    let (n2, e2) = (numeric.clone(), errors.clone());
    world.run_ranks(&mut sim, move |ctx, rank| match body(ctx, rank) {
        Ok(vals) => {
            if rank.rank() == 0 {
                *n2.lock() = vals;
            }
        }
        Err(e) => e2.lock().push((rank.rank(), e)),
    });
    let report = sim.run().expect("chaos sim completes (watchdogs bound every wait)");
    let mut errors = Arc::try_unwrap(errors).expect("ranks done").into_inner();
    errors.sort_by_key(|(r, _)| *r);
    let numeric = Arc::try_unwrap(numeric).expect("ranks done").into_inner();
    let mut d = digest::Digest::new();
    d.write_u64(digest::run_digest(&report, &trace));
    fold(&mut d, &numeric);
    ChaosRun {
        digest: d.finish(),
        end_time_us: report.end_time.as_micros_f64(),
        numeric,
        errors,
        metrics: registry.snapshot(),
    }
}

/// The canonical partitioned-allreduce chaos workload on a uniform
/// `nodes`-node world, identical to the frozen-baseline recipe: with
/// [`FaultPlan::none`] its digest is byte-identical to the
/// pre-fault-injection build.
pub fn run_allreduce(seed: u64, plan: &FaultPlan, nodes: u16) -> ChaosRun {
    Cell::allreduce(nodes).run(seed, plan)
}

/// The rank program a chaos [`Cell`] observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The canonical partitioned allreduce: 4 user partitions, 64 f64 per
    /// partition-chunk, device-side `MPIX_Pready`. Rank 0 keeps the
    /// reduced buffer.
    Allreduce,
    /// The device-initiated p2p epoch: rank 1 launches a kernel whose
    /// threads mark partitions ready on a 4-partition psend to rank 0, so
    /// the device emission path — flag writes under the classic
    /// protocols, symmetric puts + signals under [`CopyMechanism::Shmem`]
    /// — is exactly what the fault schedule meets. The collective cannot
    /// exercise shmem-signal faults (its engine hands partitions to the
    /// host in one aggregated flag write and issues the symmetric puts
    /// host-side), so campaigns route shmem-signal plans here. Rank 0
    /// keeps the delivered payload. On an oversubscribed shape ranks 0
    /// and 1 share GPU 0 of node 0, so the cell drives the `SameGpu`
    /// route regime.
    DeviceP2p,
    /// The mux-admitted MoE dispatch/combine layer at a per-rank channel
    /// budget (see [`moe_chaos_config`]): fault classes meet *multiplexed*
    /// load instead of a single collective. Under `KernelCopy` and `Shmem`
    /// the sends are device-initiated. Rank 0 keeps `(checksum,
    /// tokens_routed, tokens_dropped, channels)`.
    Moe {
        /// Per-rank mux channel budget.
        channels: usize,
    },
}

impl Workload {
    /// The workload for a per-rank channel budget: the classic allreduce
    /// at 1, the multiplexed MoE cell above.
    pub fn for_channels(channels: usize) -> Workload {
        if channels == 1 {
            Workload::Allreduce
        } else {
            Workload::Moe { channels }
        }
    }
}

/// The topology-shape axis: the same fault class meeting a *ragged* or
/// *oversubscribed* world exercises rank↔GPU table walks, per-node rail
/// cycling, and `SameGpu` routes that no uniform world reaches. The
/// allreduce cell runs the flat `pallreduce_init` schedule on every shape,
/// so no shape reaches the hierarchical fold/unfold phases; those are
/// pinned only by the ragged digests in `tests/topology.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TopologyShape {
    /// The classic `nodes × 4 GPU × 4 NIC` GH200 testbed.
    Uniform,
    /// Per-node GPU/NIC counts vary (alternating 4/2 GPUs, 2/1 NICs),
    /// one rank per GPU.
    Ragged,
    /// The ragged shape at 2:1 ranks per GPU: co-resident ranks drive the
    /// `SameGpu` route regime and per-node rail cycling.
    Oversubscribed,
}

impl TopologyShape {
    /// Every shape.
    pub const ALL: [TopologyShape; 3] =
        [TopologyShape::Uniform, TopologyShape::Ragged, TopologyShape::Oversubscribed];

    /// Stable short name, as `--shape` spells it.
    pub fn key(&self) -> &'static str {
        match self {
            TopologyShape::Uniform => "uniform",
            TopologyShape::Ragged => "ragged",
            TopologyShape::Oversubscribed => "oversub",
        }
    }

    /// The shape `key` names.
    pub fn from_key(key: &str) -> Option<TopologyShape> {
        TopologyShape::ALL.into_iter().find(|s| s.key() == key)
    }

    /// The cluster spec this shape denotes on a `nodes`-node world.
    pub fn cluster(&self, nodes: u16) -> ClusterSpec {
        match self {
            TopologyShape::Uniform => ClusterSpec::gh200(nodes),
            TopologyShape::Ragged | TopologyShape::Oversubscribed => {
                let gpus: Vec<u8> =
                    (0..nodes).map(|v| if v % 2 == 0 { 4 } else { 2 }).collect();
                let nics: Vec<u8> =
                    (0..nodes).map(|v| if v % 2 == 0 { 2 } else { 1 }).collect();
                let over = if *self == TopologyShape::Oversubscribed { 2 } else { 1 };
                ClusterSpec::gh200_ragged(&gpus, &nics, over)
            }
        }
    }
}

/// One chaos cell: every axis of a faulted run except the plan and the
/// simulation seed. Every chaos campaign, grid or guided, runs its plans
/// through [`Cell::run`].
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// The rank program.
    pub workload: Workload,
    /// Nodes in the world.
    pub nodes: u16,
    /// Cluster shape the world is built on.
    pub shape: TopologyShape,
    /// Cross-node stripe count ([`WorldConfig::stripes`]).
    pub stripes: usize,
    /// Copy mechanism the world negotiates. Under `Shmem` intra-node
    /// channels ride the symmetric heap while route-forbidden cross-node
    /// channels demote to the Progression Engine.
    pub mechanism: CopyMechanism,
    /// Arm the recovery escalation ladder with [`RecoverConfig::default`].
    pub recover: bool,
}

impl Cell {
    /// The canonical allreduce on a uniform `nodes`-node world: single
    /// path, Progression Engine, recovery off — [`run_allreduce`]'s cell.
    pub fn allreduce(nodes: u16) -> Cell {
        Cell {
            workload: Workload::Allreduce,
            nodes,
            shape: TopologyShape::Uniform,
            stripes: 1,
            mechanism: CopyMechanism::ProgressionEngine,
            recover: false,
        }
    }

    /// Per-rank mux channel budget (1 unless the workload is MoE).
    pub fn channels(&self) -> usize {
        match self.workload {
            Workload::Moe { channels } => channels,
            _ => 1,
        }
    }

    /// Qualify a coverage point with this cell's axes:
    /// `[ragged:|oversub:][c<channels>:]<mechanism>:<point>`. The same
    /// fault class under another mechanism, channel budget or shape drives
    /// a different data path, so each is a distinct point; the uniform
    /// shape and the classic workloads add no prefix.
    pub fn point(&self, point: &str) -> String {
        let mut key = String::new();
        if self.shape != TopologyShape::Uniform {
            key.push_str(self.shape.key());
            key.push(':');
        }
        if let Workload::Moe { channels } = self.workload {
            key.push_str(&format!("c{channels}:"));
        }
        format!("{key}{}:{point}", self.mechanism.short_name())
    }

    /// Apply this cell's world axes (shape, stripes, mechanism, recovery)
    /// to `cfg`.
    pub(crate) fn configure(&self, cfg: &mut WorldConfig) {
        cfg.cluster = self.shape.cluster(self.nodes);
        cfg.stripes = self.stripes;
        cfg.mechanism = self.mechanism;
        cfg.recover = self.recover.then(RecoverConfig::default);
    }

    /// Run this cell under `plan`.
    pub fn run(&self, sim_seed: u64, plan: &FaultPlan) -> ChaosRun {
        let (workload, nodes, mechanism) = (self.workload, self.nodes, self.mechanism);
        run_world_with(
            sim_seed,
            plan,
            nodes,
            |cfg| self.configure(cfg),
            move |ctx, rank| match workload {
                Workload::Allreduce => allreduce_body(ctx, rank),
                Workload::DeviceP2p => device_p2p_body(ctx, rank, mechanism),
                Workload::Moe { channels } => {
                    let res = run_moe(ctx, rank, &moe_chaos_config(nodes, channels, mechanism))?;
                    Ok(vec![
                        res.checksum,
                        res.tokens_routed as f64,
                        res.tokens_dropped as f64,
                        res.channels as f64,
                    ])
                }
            },
        )
    }
}

/// The MoE cell configuration for a `channels`-per-rank budget on a
/// `nodes`-node world: tenants are scaled so every rank admits roughly
/// `channels` mux channels (each tenant opens 4 channels per peer —
/// dispatch/combine × send/recv), with an 8:1 hot tenant up front whenever
/// there is more than one. Tiny tokens keep the per-channel payload cheap
/// so the axis scales channel *count*, not bytes.
pub fn moe_chaos_config(nodes: u16, channels: usize, mechanism: CopyMechanism) -> MoeConfig {
    let peers = nodes as usize * 4 - 1;
    let tenants = (channels / (4 * peers)).max(1);
    let mut tenant_weights = vec![1u64; tenants];
    tenant_weights[0] = if tenants > 1 { 8 } else { 1 };
    MoeConfig {
        tenants,
        tenant_weights,
        tokens_per_rank: 8,
        hidden: 2,
        layers: 1,
        capacity_factor_pct: 200,
        mechanism,
        functional: true,
        seed: 0x0E0E,
    }
}

/// Rank program for [`Workload::DeviceP2p`]: intra-node 1 -> 0, 4 user
/// partitions x 1 KiB, 2 transport partitions, progressive device pready
/// with `copy` matching the world mechanism.
fn device_p2p_body(
    ctx: &mut Ctx,
    rank: &mut Rank,
    mechanism: CopyMechanism,
) -> Result<Vec<f64>, MpiError> {
    let parts = 4usize;
    let buf = rank.gpu().alloc_global(parts * 1024);
    match rank.rank() {
        1 => {
            for u in 0..parts {
                buf.write_f64_slice(u * 1024, &[(u * 3 + 1) as f64; 128]);
            }
            let sreq = psend_init(ctx, rank, 0, 19, &buf, parts)?;
            sreq.start(ctx)?;
            sreq.pbuf_prepare(ctx)?;
            let preq = prequest_create(ctx, rank, &sreq, PrequestConfig {
                copy: mechanism,
                transport_partitions: 2,
                ..PrequestConfig::default()
            })?;
            let stream = rank.gpu().create_stream();
            stream.launch(ctx, KernelSpec::vector_add(2, 256), move |d| {
                preq.pready_all_progressive(d)
            });
            sreq.wait(ctx)?;
            Ok(Vec::new())
        }
        0 => {
            let rreq = precv_init(ctx, rank, 1, 19, &buf, parts)?;
            rreq.start(ctx)?;
            rreq.pbuf_prepare(ctx)?;
            rreq.wait(ctx)?;
            Ok((0..parts).map(|u| buf.read_f64(u * 1024)).collect())
        }
        _ => Ok(Vec::new()),
    }
}

/// Rank program for [`Workload::Allreduce`] (identical code path ⇒
/// identical digests whatever the config knobs around it).
pub(crate) fn allreduce_body(ctx: &mut Ctx, rank: &mut Rank) -> Result<Vec<f64>, MpiError> {
    let partitions = 4usize;
    let n = partitions * rank.size() * 64;
    let buf = rank.gpu().alloc_global(n * 8);
    let vals: Vec<f64> = (0..n).map(|i| (rank.rank() * 31 + i) as f64).collect();
    buf.write_f64_slice(0, &vals);
    let stream = rank.gpu().create_stream();
    let coll = pallreduce_init(ctx, rank, &buf, partitions, &stream, 90)?;
    coll.start(ctx)?;
    coll.pbuf_prepare(ctx)?;
    let c2 = coll.clone();
    stream.launch(ctx, KernelSpec::vector_add(4, 256), move |d| c2.pready_device_all(d));
    coll.wait(ctx)?;
    Ok(buf.read_f64_slice(0, n))
}

/// The canonical Jacobi chaos workload: the functional-test solver with
/// GPU-initiated partitioned halo exchange over the Progression Engine.
/// Its digest folds in rank 0's checksum as one bare `f64` (not a slice),
/// matching the frozen jacobi baselines under [`FaultPlan::none`].
pub fn run_jacobi_chaos(seed: u64, plan: &FaultPlan, nodes: u16) -> ChaosRun {
    let solver = JacobiConfig::functional_test(JacobiModel::Partitioned(
        CopyMechanism::ProgressionEngine,
    ));
    let body =
        move |ctx: &mut Ctx, rank: &mut Rank| Ok(vec![run_jacobi(ctx, rank, &solver)?.checksum]);
    run_folded(seed, plan, nodes, |_| {}, body, |d, numeric| {
        d.write_f64(numeric.first().copied().unwrap_or(0.0));
    })
}
