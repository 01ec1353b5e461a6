//! The multi-GPU 2-D Jacobi solver (paper §VI-D1), adapted from NVIDIA's
//! MPI + CUDA example: the domain is decomposed over a `px × py` process
//! grid (2×2 on four GPUs, 4×2 on eight), each rank iterates a 5-point
//! stencil on its tile and exchanges one-cell halos with its neighbors.
//!
//! Two variants:
//! - **traditional**: stencil kernel → `cudaStreamSynchronize` →
//!   `MPI_Sendrecv` halos (Listing 1 pattern);
//! - **partitioned**: persistent partitioned channels per direction; the
//!   stencil kernel packs halos and calls device-side `MPIX_Pready`; the
//!   host only calls `MPI_Wait` (Listing 2 pattern).
//!
//! The solver is *functional*: with `functional = true` the stencil really
//! runs and tests compare the distributed field against a single-rank
//! reference bit-for-bit. Large benchmark sweeps set `functional = false`
//! to skip the arithmetic while keeping every timed interaction identical.

use parcomm_core::{
    precv_init, prequest_create, psend_init, CopyMechanism, PrecvRequest, PrequestConfig,
    PsendRequest,
};
use parcomm_gpu::{AggLevel, Buffer, KernelSpec};
use parcomm_mpi::{MpiError, Rank};
use parcomm_sim::{Ctx, SimDuration};

/// Which communication model the solver uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum JacobiModel {
    /// Kernel + stream sync + `MPI_Sendrecv`.
    Traditional,
    /// GPU-initiated partitioned halo exchange with the given copy
    /// mechanism (Kernel Copy silently falls back to the Progression
    /// Engine for inter-node neighbor pairs).
    Partitioned(CopyMechanism),
}

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct JacobiConfig {
    /// Per-rank tile height at multiplier 1.
    pub base_h: usize,
    /// Per-rank tile width at multiplier 1.
    pub base_w: usize,
    /// The paper's problem-size multiplier (1..=32, powers of two).
    pub multiplier: usize,
    /// Jacobi iterations to run.
    pub iterations: usize,
    /// Run the stencil arithmetic (tests) or cost-only (large sweeps).
    pub functional: bool,
    /// Communication model.
    pub model: JacobiModel,
    /// Effective memory bandwidth (GB/s) the 5-point stencil sustains.
    /// Stencil kernels are far from peak HBM streaming (uncoalesced
    /// neighbors, low arithmetic intensity); 300 GB/s puts per-iteration
    /// kernel times in the regime the paper's Jacobi operates in.
    pub stencil_gbps: f64,
}

impl JacobiConfig {
    /// A small functional configuration for tests.
    pub fn functional_test(model: JacobiModel) -> Self {
        JacobiConfig {
            base_h: 16,
            base_w: 16,
            multiplier: 1,
            iterations: 4,
            functional: true,
            model,
            stencil_gbps: 300.0,
        }
    }
}

/// Result of a solver run.
#[derive(Clone, Debug)]
pub struct JacobiResult {
    /// Virtual time spent in the iteration loop.
    pub elapsed: SimDuration,
    /// Throughput in GFLOP/s (5 flops per interior point per iteration).
    pub gflops: f64,
    /// Sum of the interior field (functional runs only; 0.0 otherwise).
    pub checksum: f64,
}

/// The process grid used for `size` ranks (the paper's 2×2 and 4×2).
pub fn process_grid(size: usize) -> (usize, usize) {
    match size {
        1 => (1, 1),
        2 => (2, 1),
        4 => (2, 2),
        8 => (4, 2),
        _ => {
            // Fall back to the most square factorization.
            let mut px = (size as f64).sqrt() as usize;
            while !size.is_multiple_of(px) {
                px -= 1;
            }
            (size / px, px)
        }
    }
}

/// Direction index: 0 = north, 1 = south, 2 = west, 3 = east.
const DIRS: usize = 4;

struct Halo {
    neighbor: usize,
    send: Buffer,
    recv: Buffer,
    len: usize,
    /// Partitioned-model channels (absent in the traditional model).
    sreq: Option<PsendRequest>,
    rreq: Option<PrecvRequest>,
    preq: Option<parcomm_core::DevicePrequest>,
}

/// Tile geometry helper.
struct Tile {
    th: usize,
    tw: usize,
}

impl Tile {
    fn pitch(&self) -> usize {
        self.tw + 2
    }
}

/// Run the solver on this rank. All ranks must call it with identical
/// configuration.
///
/// Fault-free runs cannot fail; with fault injection armed (see
/// `parcomm-fault`) a disrupted halo exchange surfaces as a typed
/// [`MpiError`] instead of a hang.
pub fn run_jacobi(ctx: &mut Ctx, rank: &Rank, cfg: &JacobiConfig) -> Result<JacobiResult, MpiError> {
    let size = rank.size();
    let (px, py) = process_grid(size);
    assert_eq!(px * py, size);
    let r = rank.rank();
    let (cx, cy) = (r % px, r / px);
    let tile = Tile { th: cfg.base_h * cfg.multiplier, tw: cfg.base_w * cfg.multiplier };
    let (th, tw) = (tile.th, tile.tw);
    let pitch = tile.pitch();

    let gpu = rank.gpu();
    let stream = gpu.create_stream();
    // Cost-only sweeps never touch the field, so spare the allocation:
    // large-multiplier tiles would otherwise need gigabytes of simulated
    // HBM backing store per rank.
    let field_bytes = if cfg.functional { (th + 2) * pitch * 8 } else { 8 };
    let a = gpu.alloc_global(field_bytes);
    let a_new = gpu.alloc_global(field_bytes);

    // Initial condition: the global north edge is held at 1.0 (heated
    // plate); everything else starts at 0. Ghost rows double as Dirichlet
    // boundaries on global edges.
    if cfg.functional && cy == 0 {
        let ones = vec![1.0f64; pitch];
        a.write_f64_slice(0, &ones);
        a_new.write_f64_slice(0, &ones);
    }

    // Neighbors: (direction, neighbor rank, halo length).
    let neighbor = |dx: isize, dy: isize| -> Option<usize> {
        let nx = cx as isize + dx;
        let ny = cy as isize + dy;
        if nx < 0 || ny < 0 || nx >= px as isize || ny >= py as isize {
            None
        } else {
            Some(ny as usize * px + nx as usize)
        }
    };
    let neighbors: [(Option<usize>, usize); DIRS] = [
        (neighbor(0, -1), tw), // north
        (neighbor(0, 1), tw),  // south
        (neighbor(-1, 0), th), // west
        (neighbor(1, 0), th),  // east
    ];

    // Set up halo channels (both models use the same packed halo buffers;
    // only the transport differs). Tags encode the direction as seen by
    // the *sender* so each (src, dst, tag) triple is unique.
    let mut halos: Vec<Option<Halo>> = Vec::with_capacity(DIRS);
    let partitioned = matches!(cfg.model, JacobiModel::Partitioned(_));
    for (dir, &(nbr, len)) in neighbors.iter().enumerate() {
        let Some(nbr) = nbr else {
            halos.push(None);
            continue;
        };
        let send = gpu.alloc_global(len * 8);
        let recv = gpu.alloc_global(len * 8);
        // The opposite direction from the neighbor's perspective.
        let opposite = [1usize, 0, 3, 2][dir];
        let (sreq, rreq) = if partitioned {
            // Channel setup messages are non-blocking: any init order works.
            let sreq = psend_init(ctx, rank, nbr, 0x3A0 + dir as u64, &send, 1)?;
            let rreq = precv_init(ctx, rank, nbr, 0x3A0 + opposite as u64, &recv, 1)?;
            (Some(sreq), Some(rreq))
        } else {
            (None, None)
        };
        halos.push(Some(Halo { neighbor: nbr, send, recv, len, sreq, rreq, preq: None }));
    }

    // First-epoch preparation + device request creation for the
    // partitioned model (one-time costs; the measured loop below includes
    // per-iteration start/pbuf_prepare as in the paper's application
    // measurements).
    if partitioned {
        for h in halos.iter().flatten() {
            h.rreq.as_ref().expect("partitioned").start(ctx)?;
        }
        for h in halos.iter().flatten() {
            h.sreq.as_ref().expect("partitioned").start(ctx)?;
        }
        for h in halos.iter().flatten() {
            h.rreq.as_ref().expect("partitioned").pbuf_prepare(ctx)?;
        }
        for h in halos.iter().flatten() {
            h.sreq.as_ref().expect("partitioned").pbuf_prepare(ctx)?;
        }
        let copy = match cfg.model {
            JacobiModel::Partitioned(c) => c,
            JacobiModel::Traditional => unreachable!(),
        };
        for h in halos.iter_mut().flatten() {
            let want = PrequestConfig {
                copy,
                agg: AggLevel::Block,
                transport_partitions: 1,
                multi_block_counters: true,
            };
            let sreq = h.sreq.as_ref().expect("partitioned");
            let preq = match prequest_create(ctx, rank, sreq, want) {
                Ok(p) => p,
                Err(_) => {
                    // Kernel copy across nodes: fall back to the
                    // progression engine for this neighbor.
                    prequest_create(ctx, rank, sreq, PrequestConfig {
                        copy: CopyMechanism::ProgressionEngine,
                        ..want
                    })
                    .expect("PE prequest always available")
                }
            };
            h.preq = Some(preq);
        }
        // The first epoch stays open; iteration 0's kernel marks it ready.
    }

    rank.barrier(ctx);
    let t0 = ctx.now();

    let mut cur = a.clone();
    let mut next = a_new.clone();
    // Early-bird structure (the partitioned model's core win): the kernel
    // computes the halo edges *first*, marks them ready so the transfers
    // overlap the interior sweep, then computes the interior. The full
    // sweep's device time is split proportionally between the two phases.
    // Sweep time from the stencil's effective bandwidth (see
    // `JacobiConfig::stencil_gbps`), with the usual fixed kernel cost.
    let full_time = SimDuration::from_micros_f64(
        gpu.cost().kernel_fixed_us + (th * tw) as f64 * 48.0 / (cfg.stencil_gbps * 1e3),
    );
    let halo_points = (2 * (th + tw)).min(th * tw) as f64;
    let halo_frac = (halo_points / (th * tw) as f64).clamp(0.02, 0.5);
    let halo_time = SimDuration::from_micros_f64(full_time.as_micros_f64() * halo_frac);
    let interior_time = full_time - halo_time;
    for iter in 0..cfg.iterations {
        let functional = cfg.functional;
        let cur2 = cur.clone();
        let next2 = next.clone();
        let halos_meta: Vec<Option<(Buffer, usize, usize)>> = halos
            .iter()
            .map(|h| h.as_ref().map(|h| (h.send.clone(), h.len, 0usize)))
            .collect();
        let preqs: Vec<Option<parcomm_core::DevicePrequest>> =
            halos.iter().map(|h| h.as_ref().and_then(|h| h.preq.clone())).collect();
        let (th2, tw2, pitch2) = (th, tw, pitch);
        // The launch spec carries the geometry; device time is charged
        // explicitly by the body so the pready emissions land after the
        // halo phase, not after the whole sweep.
        let spec = KernelSpec::new("jacobi", ((th * tw) as u32).div_ceil(1024).max(1), 1024);
        let launch = stream.launch(ctx, spec, move |d| {
            if functional {
                stencil(&cur2, &next2, th2, tw2, pitch2);
                pack_halos(&next2, &halos_meta, th2, tw2, pitch2);
            }
            d.extend(halo_time);
            for preq in preqs.iter().flatten() {
                preq.pready_all(d);
            }
            d.extend(interior_time);
        });

        match cfg.model {
            JacobiModel::Traditional => {
                let _ = launch;
                stream.synchronize(ctx);
                // All four halo exchanges posted concurrently then waited
                // (isend/irecv + waitall, as in NVIDIA's reference code) —
                // directions overlap on the wire.
                ctx.advance(rank.mpi_overhead());
                let h = ctx.handle();
                let mut ops = Vec::with_capacity(8);
                for (dir, halo) in halos.iter().enumerate() {
                    let Some(halo) = halo else { continue };
                    let opposite = [1usize, 0, 3, 2][dir];
                    ops.push(rank.isend(
                        &h,
                        halo.neighbor,
                        0x500 + dir as u64,
                        &halo.send,
                        0,
                        halo.len * 8,
                    ));
                    ops.push(rank.irecv(
                        &h,
                        halo.neighbor,
                        0x500 + opposite as u64,
                        &halo.recv,
                        0,
                        halo.len * 8,
                    ));
                }
                for op in &ops {
                    ctx.wait(&op.done);
                }
            }
            JacobiModel::Partitioned(_) => {
                for h in halos.iter().flatten() {
                    h.sreq.as_ref().expect("partitioned").wait(ctx)?;
                }
                for h in halos.iter().flatten() {
                    h.rreq.as_ref().expect("partitioned").wait(ctx)?;
                }
            }
        }

        // Unpack ghost cells from the received halos. This must happen
        // BEFORE the receive side signals ready-to-receive for the next
        // epoch — exactly the buffer-reuse hazard MPIX_Pbuf_prepare exists
        // to prevent (paper §II-B2): a fast neighbor may otherwise
        // overwrite the halo we have not read yet.
        if cfg.functional {
            unpack_halos(&next, &halos, th, tw, pitch);
        }
        ctx.advance(SimDuration::from_micros_f64(0.5)); // ghost-update kernelette

        if partitioned && iter + 1 < cfg.iterations {
            for h in halos.iter().flatten() {
                h.rreq.as_ref().expect("partitioned").start(ctx)?;
            }
            for h in halos.iter().flatten() {
                h.sreq.as_ref().expect("partitioned").start(ctx)?;
            }
            for h in halos.iter().flatten() {
                h.rreq.as_ref().expect("partitioned").pbuf_prepare(ctx)?;
            }
            for h in halos.iter().flatten() {
                h.sreq.as_ref().expect("partitioned").pbuf_prepare(ctx)?;
            }
        }

        std::mem::swap(&mut cur, &mut next);
    }

    let elapsed = ctx.now().since(t0);
    let points = (th * tw) as f64 * size as f64;
    let flops = points * cfg.iterations as f64 * 5.0;
    let gflops = flops / elapsed.as_secs_f64() / 1e9;
    let checksum = if cfg.functional { interior_sum(&cur, th, tw, pitch) } else { 0.0 };
    Ok(JacobiResult { elapsed, gflops, checksum })
}

/// One 5-point Jacobi sweep: `next = 0.25·(N + S + W + E)` over the
/// interior, reading `cur`.
fn stencil(cur: &Buffer, next: &Buffer, th: usize, tw: usize, pitch: usize) {
    next.with_f64_from(cur, |mut out, cur| {
        for i in 1..=th {
            let up = cur.iter(((i - 1) * pitch + 1) * 8, tw);
            let down = cur.iter(((i + 1) * pitch + 1) * 8, tw);
            let west = cur.iter((i * pitch) * 8, tw);
            let east = cur.iter((i * pitch + 2) * 8, tw);
            let row = up.zip(down).zip(west).zip(east);
            out.write((i * pitch + 1) * 8, row.map(|(((u, d), w), e)| 0.25 * (u + d + w + e)));
        }
    });
}

/// Pack the four interior edges of `field` into the per-direction send
/// halo buffers (north row, south row, west column, east column).
fn pack_halos(
    field: &Buffer,
    halos: &[Option<(Buffer, usize, usize)>],
    th: usize,
    tw: usize,
    pitch: usize,
) {
    if let Some((buf, len, _)) = &halos[0] {
        debug_assert_eq!(*len, tw);
        buf.with_f64_from(field, |mut h, f| h.write(0, f.iter((pitch + 1) * 8, tw)));
    }
    if let Some((buf, len, _)) = &halos[1] {
        debug_assert_eq!(*len, tw);
        buf.with_f64_from(field, |mut h, f| h.write(0, f.iter((th * pitch + 1) * 8, tw)));
    }
    if let Some((buf, len, _)) = &halos[2] {
        debug_assert_eq!(*len, th);
        // `1..th + 1`, not `1..=th`: `write` takes an exact-size iterator.
        buf.with_f64_from(field, |mut h, f| {
            h.write(0, (1..th + 1).map(|i| f.get((i * pitch + 1) * 8)))
        });
    }
    if let Some((buf, len, _)) = &halos[3] {
        debug_assert_eq!(*len, th);
        buf.with_f64_from(field, |mut h, f| {
            h.write(0, (1..th + 1).map(|i| f.get((i * pitch + tw) * 8)))
        });
    }
}

/// Scatter received halo buffers into the ghost ring of `field`.
fn unpack_halos(field: &Buffer, halos: &[Option<Halo>], th: usize, tw: usize, pitch: usize) {
    if let Some(h) = &halos[0] {
        // Ghost row 0, cols 1..=tw.
        field.with_f64_from(&h.recv, |mut f, r| f.write(8, r.iter(0, tw)));
    }
    if let Some(h) = &halos[1] {
        field.with_f64_from(&h.recv, |mut f, r| f.write(((th + 1) * pitch + 1) * 8, r.iter(0, tw)));
    }
    if let Some(h) = &halos[2] {
        field.with_f64_from(&h.recv, |mut f, r| {
            for i in 1..=th {
                f.set((i * pitch) * 8, r.get((i - 1) * 8));
            }
        });
    }
    if let Some(h) = &halos[3] {
        field.with_f64_from(&h.recv, |mut f, r| {
            for i in 1..=th {
                f.set((i * pitch + tw + 1) * 8, r.get((i - 1) * 8));
            }
        });
    }
}

fn interior_sum(field: &Buffer, th: usize, tw: usize, pitch: usize) -> f64 {
    (1..=th).map(|i| field.reduce_sum_f64((i * pitch + 1) * 8, tw)).sum()
}

/// Single-process reference: run the same global problem on one tile with
/// no communication (tests compare against this bit-for-bit).
pub fn jacobi_reference(global_h: usize, global_w: usize, iterations: usize) -> Vec<f64> {
    let pitch = global_w + 2;
    let mut cur = vec![0.0f64; (global_h + 2) * pitch];
    let mut next = cur.clone();
    for j in 0..pitch {
        cur[j] = 1.0;
        next[j] = 1.0;
    }
    for _ in 0..iterations {
        for i in 1..=global_h {
            for j in 1..=global_w {
                next[i * pitch + j] = 0.25
                    * (cur[(i - 1) * pitch + j]
                        + cur[(i + 1) * pitch + j]
                        + cur[i * pitch + j - 1]
                        + cur[i * pitch + j + 1]);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}
