//! `jacobi-kc-2x4`: a functional partitioned Jacobi solve (paper §VI-D1)
//! on 2 nodes × 4 GPUs (4×2 process grid) with Kernel Copy intra-node and
//! the Progression Engine on cross-node neighbor pairs. A step is one
//! complete solve on a fresh world: time to solution.
//!
//! Heat enters at the global north edge and spreads about one row per
//! iteration, so the tiles are shorter than the iteration count: by the
//! end of a solve the heat has crossed the node boundary, and the
//! cross-node north-south halos carry nonzero values that the per-rank
//! check sees.

use parcomm_apps::{jacobi_reference, process_grid, run_jacobi, JacobiConfig, JacobiModel};
use parcomm_core::CopyMechanism;
use parcomm_mpi::WorldConfig;

use super::{fresh_world, run_fresh_worlds, Phase, Plan, Step, WorldStep};
use crate::record::Recorder;
use crate::stats::median;

const NODES: u16 = 2;
const RANKS: usize = 8;
/// Per-rank tile (f64 cells): a strip `TILE_H` rows high, under
/// `ITERATIONS`, and `TILE_W` wide.
pub const TILE_H: usize = 8;
pub const TILE_W: usize = 32768;
pub const ITERATIONS: usize = 30;
/// Cost-only solves the traced run times to split a solve's wall between
/// host stencil arithmetic and everything else.
const COST_ONLY_SOLVES: usize = 5;

fn config(functional: bool) -> JacobiConfig {
    JacobiConfig {
        base_h: TILE_H,
        base_w: TILE_W,
        multiplier: 1,
        iterations: ITERATIONS,
        functional,
        model: JacobiModel::Partitioned(CopyMechanism::KernelCopy),
        stencil_gbps: 300.0,
    }
}

/// Halo bytes one solve moves: every rank sends one row or column per
/// neighbor per iteration.
fn halo_bytes() -> f64 {
    let (px, py) = process_grid(RANKS);
    let mut cells = 0usize;
    for r in 0..RANKS {
        let (cx, cy) = (r % px, r / px);
        let rows = [cy > 0, cy + 1 < py].iter().filter(|&&b| b).count();
        let cols = [cx > 0, cx + 1 < px].iter().filter(|&&b| b).count();
        cells += rows * TILE_W + cols * TILE_H;
    }
    (cells * 8 * ITERATIONS) as f64
}

/// Each rank's interior sum in the serial solve of the same global grid,
/// in rank order, summed in the order `run_jacobi` sums its tile (row by
/// row), so a correct distributed solve matches it bit for bit.
fn reference() -> Vec<f64> {
    let (px, py) = process_grid(RANKS);
    let (gh, gw) = (TILE_H * py, TILE_W * px);
    let field = jacobi_reference(gh, gw, ITERATIONS);
    let pitch = gw + 2;
    (0..RANKS)
        .map(|r| {
            let (cx, cy) = (r % px, r / px);
            (1..=TILE_H)
                .map(|i| {
                    let row = (cy * TILE_H + i) * pitch + cx * TILE_W + 1;
                    field[row..row + TILE_W].iter().sum::<f64>()
                })
                .sum()
        })
        .collect()
}

fn verify(got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} rank checksums, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        None => Ok(()),
        Some(r) => Err(format!(
            "rank {r} interior sum {:e} vs serial reference {:e}",
            got[r], want[r]
        )),
    }
}

fn solve(seed: u64, traced: bool, with_cp: bool, rec: &Recorder) -> Result<WorldStep, String> {
    let cfg = config(true);
    let run = fresh_world(
        seed,
        WorldConfig::gh200(NODES),
        traced,
        with_cp,
        rec,
        move |ctx, rank| run_jacobi(ctx, rank, &cfg),
    )?;
    Ok(WorldStep {
        step: Step {
            wall_s: run.wall_s,
            cpu_s: run.cpu_s,
            virtual_us: run.end_us,
            events: run.events as f64,
            payload_bytes: halo_bytes(),
        },
        processes: run.processes,
        outputs: run.results.iter().map(|r| r.checksum).collect(),
        extras: vec![("apps.jacobi_gflops", run.results[0].gflops)],
        world_new_s: run.world_new_s,
        counts: run.counts,
        spans: run.spans,
        cp: run.cp,
    })
}

/// Wall seconds of one solve with the field arithmetic switched off: the
/// same ranks, halo exchanges and modeled kernel times, but no stencil,
/// halo packing or field storage.
fn cost_only_solve(seed: u64, rec: &Recorder) -> Result<f64, String> {
    let cfg = config(false);
    let run = rec.scope("cost-only solve", || {
        fresh_world(
            seed,
            WorldConfig::gh200(NODES),
            false,
            false,
            rec,
            move |ctx, rank| run_jacobi(ctx, rank, &cfg),
        )
    })?;
    Ok(run.wall_s)
}

pub fn run(seed: u64, plan: Plan, rec: &Recorder) -> Phase {
    let mut phase = run_fresh_worlds(
        plan,
        rec,
        |t, cp| solve(seed, t, cp, rec),
        reference,
        verify,
    );
    if plan.traced && phase.failures.is_empty() {
        let mut walls = Vec::new();
        for i in 0..COST_ONLY_SOLVES {
            phase.attempted += 1;
            match cost_only_solve(seed, rec) {
                Ok(w) => walls.push(w * 1e3),
                Err(e) => phase.failures.push(format!("cost-only solve {i}: {e}")),
            }
        }
        phase.sample("apps.jacobi_cost_only_ms", median(&walls));
    }
    phase
}
