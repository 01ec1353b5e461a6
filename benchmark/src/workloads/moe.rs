//! `moe-shmem-2x4`: a functional Mixture-of-Experts dispatch/combine job
//! on 2 nodes × 4 GPUs over mux-admitted channels, mechanism Shmem
//! (symmetric puts intra-node, demoted to the Progression Engine
//! cross-node). A step is one job on a fresh world: mux admission plus
//! every layer.

use parcomm_apps::{moe_reference, run_moe, MoeConfig};
use parcomm_core::CopyMechanism;
use parcomm_mpi::WorldConfig;

use super::{fresh_world, run_fresh_worlds, Phase, Plan, Step, WorldStep};
use crate::record::Recorder;

const NODES: u16 = 2;
const RANKS: usize = 8;
pub const TENANTS: usize = 32;
/// Tenant 0's weight; every other tenant has weight 1.
pub const HEAVY_WEIGHT: u64 = 8;
pub const LAYERS: usize = 1;
const TOKENS_PER_RANK: usize = 64;
const HIDDEN: usize = 16;

fn config(seed: u64) -> MoeConfig {
    let mut weights = vec![1; TENANTS];
    weights[0] = HEAVY_WEIGHT;
    MoeConfig {
        tenants: TENANTS,
        tenant_weights: weights,
        tokens_per_rank: TOKENS_PER_RANK,
        hidden: HIDDEN,
        layers: LAYERS,
        capacity_factor_pct: 200,
        mechanism: CopyMechanism::Shmem,
        functional: true,
        // The router seed comes from the workload seed, so each seed
        // routes (and drops) a different token set.
        seed: seed ^ 0x0E0E_5EED,
    }
}

fn verify(got: &[f64], want: &[f64]) -> Result<(), String> {
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        None if got.len() == want.len() => Ok(()),
        None => Err(format!(
            "{} rank checksums, reference has {}",
            got.len(),
            want.len()
        )),
        Some(r) => Err(format!(
            "rank {r} checksum {} vs serial reference {}",
            got[r], want[r]
        )),
    }
}

fn job(seed: u64, traced: bool, with_cp: bool, rec: &Recorder) -> Result<WorldStep, String> {
    let cfg = config(seed);
    let world = WorldConfig {
        mechanism: CopyMechanism::Shmem,
        ..WorldConfig::gh200(NODES)
    };
    let run = fresh_world(seed, world, traced, with_cp, rec, move |ctx, rank| {
        run_moe(ctx, rank, &cfg)
    })?;
    let routed: u64 = run.results.iter().map(|r| r.tokens_routed).sum();
    let dropped: u64 = run.results.iter().map(|r| r.tokens_dropped).sum();
    Ok(WorldStep {
        step: Step {
            wall_s: run.wall_s,
            cpu_s: run.cpu_s,
            virtual_us: run.end_us,
            events: run.events as f64,
            // Routed token bytes, dispatch plus combine.
            payload_bytes: (routed * 2 * (HIDDEN * 8) as u64) as f64,
        },
        processes: run.processes,
        outputs: run.results.iter().map(|r| r.checksum).collect(),
        extras: vec![
            ("apps.moe_tokens_routed", routed as f64),
            ("apps.moe_tokens_dropped", dropped as f64),
            ("mux.channels", run.results[0].channels as f64),
        ],
        world_new_s: run.world_new_s,
        counts: run.counts,
        spans: run.spans,
        cp: run.cp,
    })
}

pub fn run(seed: u64, plan: Plan, rec: &Recorder) -> Phase {
    run_fresh_worlds(
        plan,
        rec,
        |t, cp| job(seed, t, cp, rec),
        || moe_reference(&config(seed), RANKS),
        verify,
    )
}
