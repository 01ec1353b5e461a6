//! `allreduce-hier-8x4`: the node-aware hierarchical partitioned allreduce
//! (`pallreduce_init_hierarchical`) on 8 nodes × 4 GPUs, Progression
//! Engine mechanism, readiness marked in-kernel by `pready_device_all`.
//! A step is one epoch in a persistent world; the warm-up epoch is set-up.
//!
//! Rank 0 marks every step boundary between two barriers, when no rank has
//! work in flight: the wall clock, CPU time and virtual clock there, and —
//! traced — a counter snapshot and the trace's recorded-span count, so
//! each step's counters and spans are exact differences.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parcomm_coll::pallreduce_init_hierarchical;
use parcomm_gpu::KernelSpec;
use parcomm_mpi::{MpiError, MpiWorld, Rank, WorldConfig};
use parcomm_obs::{MetricsRegistry, MetricsSnapshot};
use parcomm_sim::{Ctx, Mutex, SimTime, Simulation, Trace};
use parcomm_testkit::digest::Digest;

use super::{Budget, Phase, Plan, Step, Traced, MIN_STEPS};
use crate::host::{peak_rss_mb, Stamp};
use crate::layers::{window_spans, Counts, CpStats, SpanStats};
use crate::record::Recorder;

const NODES: u16 = 8;
pub const PARTITIONS: usize = 4;
/// f64 elements per partition per rank-chunk.
pub const CHUNK: usize = 4096;
const TAG: u64 = 42;
/// Period of the input pattern along the buffer.
const PERIOD: usize = 1021;

/// Seed-derived input pattern: rank `r` contributes
/// `a·r + b·(i mod PERIOD) + c + epoch` at element `i`, so every reduced
/// element has a closed form and stays an exact integer in f64.
#[derive(Copy, Clone)]
struct Pattern {
    a: u64,
    b: u64,
    c: u64,
}

impl Pattern {
    fn from_seed(seed: u64) -> Pattern {
        let x = Digest::new().write_u64(seed).finish();
        Pattern {
            a: 1 + (x & 63),
            b: 1 + ((x >> 8) & 63),
            c: (x >> 16) & 1023,
        }
    }

    fn fill(&self, rank: usize, n: usize, epoch: u64) -> Vec<f64> {
        let base = self.a * rank as u64 + self.c + epoch;
        (0..n)
            .map(|i| (base + self.b * (i % PERIOD) as u64) as f64)
            .collect()
    }

    fn check(&self, p: usize, got: &[f64], epoch: u64) -> Result<(), String> {
        let p64 = p as u64;
        let base = self.a * p64 * (p64 - 1) / 2 + p64 * (self.c + epoch);
        match (0..got.len()).find(|&i| got[i] != (base + p64 * self.b * (i % PERIOD) as u64) as f64)
        {
            None => Ok(()),
            Some(i) => Err(format!(
                "element {i} = {} but the closed-form sum is {}",
                got[i],
                base + p64 * self.b * (i % PERIOD) as u64
            )),
        }
    }
}

/// Rank 0's record of one step boundary.
struct Mark {
    stamp: Stamp,
    virt: SimTime,
    /// Wall seconds spent so far on input generation and verification,
    /// which step timings leave out.
    excluded_s: f64,
    buffer_io_s: f64,
    snapshot: Option<MetricsSnapshot>,
    spans_recorded: u64,
    rss_mb: f64,
}

struct Shared {
    rec: Recorder,
    /// `None`: set-up only — stop at the first step boundary.
    plan: Option<Plan>,
    budget: Mutex<Option<Budget>>,
    trace: Trace,
    /// Set when traced: counters are snapshot at every step boundary.
    registry: Option<MetricsRegistry>,
    created: Instant,
    marks: Mutex<Vec<Mark>>,
    stop: AtomicBool,
    excluded_ns: AtomicU64,
    buffer_io_ns: AtomicU64,
    /// First entry into and last return from the collective init, over
    /// all ranks: the calls interleave, so their wall times do not add.
    init_window: Mutex<Option<(Instant, Instant)>>,
    step_span: Mutex<Option<usize>>,
    failures: Mutex<Vec<String>>,
    /// Rank 0's output digest per measured epoch (first MIN_STEPS).
    outputs: Mutex<Vec<u64>>,
}

impl Shared {
    fn add_ns(counter: &AtomicU64, since: Instant) {
        counter.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Rank 0 at a step boundary: record it, close the finished step's
    /// span, and decide whether another step runs.
    fn mark(&self, ctx: &Ctx) {
        let virt = ctx.now();
        let mut marks = self.marks.lock();
        if marks.is_empty() {
            if self.registry.is_some() {
                self.trace.enable_causal();
            }
            *self.budget.lock() = self.plan.as_ref().map(Budget::new);
        }
        if let Some(id) = self.step_span.lock().take() {
            self.rec.exit(id, Some(virt.as_micros_f64()));
        }
        marks.push(Mark {
            stamp: Stamp::now(),
            virt,
            excluded_s: self.excluded_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            buffer_io_s: self.buffer_io_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            snapshot: self.registry.as_ref().map(|r| r.snapshot()),
            spans_recorded: self.trace.recorded(),
            rss_mb: peak_rss_mb().unwrap_or(f64::NAN),
        });
        let stop = self.budget.lock().is_none_or(|b| b.done(marks.len() - 1));
        self.stop.store(stop, Ordering::SeqCst);
        if !stop {
            *self.step_span.lock() = Some(self.rec.enter("step", Some(virt.as_micros_f64())));
        }
    }
}

fn rank_body(ctx: &mut Ctx, rank: &Rank, sh: &Shared, pattern: Pattern) -> Result<(), MpiError> {
    let me = rank.rank();
    let p = rank.size();
    let n = PARTITIONS * p * CHUNK;
    let buf = rank.gpu().alloc_global(n * 8);
    let stream = rank.gpu().create_stream();
    let grid = (n as u32).div_ceil(1024).max(1);
    let span = |name: &'static str, ctx: &Ctx| {
        (me == 0).then(|| sh.rec.enter(name, Some(ctx.now().as_micros_f64())))
    };
    let close = |id: Option<usize>, ctx: &Ctx| {
        if let Some(id) = id {
            sh.rec.exit(id, Some(ctx.now().as_micros_f64()));
        }
    };

    let t = Instant::now();
    let s = span("pallreduce_init_hierarchical", ctx);
    let coll = pallreduce_init_hierarchical(ctx, rank, &buf, PARTITIONS, &stream, TAG)?;
    close(s, ctx);
    let mut w = sh.init_window.lock();
    *w = Some(w.map_or((t, Instant::now()), |(a, _)| (a.min(t), Instant::now())));
    drop(w);

    let epoch = |ctx: &mut Ctx, e: u64| -> Result<(), MpiError> {
        let t = Instant::now();
        let vals = pattern.fill(me, n, e);
        Shared::add_ns(&sh.excluded_ns, t);
        let t = Instant::now();
        let s = span("buffer fill", ctx);
        buf.write_f64_slice(0, &vals);
        close(s, ctx);
        Shared::add_ns(&sh.buffer_io_ns, t);

        coll.start(ctx)?;
        coll.pbuf_prepare(ctx)?;
        let c2 = coll.clone();
        stream.launch(ctx, KernelSpec::vector_add(grid, 1024), move |d| {
            c2.pready_device_all(d)
        });
        coll.wait(ctx)?;

        let t = Instant::now();
        let s = span("buffer readback", ctx);
        let got = buf.read_f64_slice(0, n);
        close(s, ctx);
        Shared::add_ns(&sh.buffer_io_ns, t);

        let t = Instant::now();
        let s = span("verify", ctx);
        if let Err(why) = pattern.check(p, &got, e) {
            sh.failures
                .lock()
                .push(format!("epoch {e}, rank {me}: {why}"));
        }
        if me == 0 && e >= 1 && e as usize <= MIN_STEPS {
            let mut h = Digest::new();
            h.write_f64_slice(&got);
            sh.outputs.lock().push(h.finish());
        }
        close(s, ctx);
        Shared::add_ns(&sh.excluded_ns, t);
        Ok(())
    };

    let s = span("warm-up", ctx);
    epoch(ctx, 0)?;
    close(s, ctx);
    let mut e = 0;
    loop {
        rank.barrier(ctx);
        if me == 0 {
            sh.mark(ctx);
        }
        rank.barrier(ctx);
        if sh.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        e += 1;
        epoch(ctx, e)?;
    }
}

/// One persistent world: set-up, then measured epochs (none when `plan`
/// is `None`).
struct WorldRun {
    setup_s: f64,
    rss_fixed_mb: f64,
    rss_end_mb: f64,
    steps: Vec<Step>,
    events: u64,
    processes: u64,
    init_s: f64,
    buffer_io_s: f64,
    world_new_s: f64,
    failures: Vec<String>,
    outputs: Vec<u64>,
    traced: Option<Traced>,
}

fn world(seed: u64, traced: bool, plan: Option<Plan>, rec: &Recorder) -> WorldRun {
    let created = Instant::now();
    let mut sim = Simulation::with_seed(seed);
    let trace = sim.trace();
    let t = Instant::now();
    let world = rec.scope("MpiWorld::new", || {
        MpiWorld::new(&sim, WorldConfig::gh200(NODES))
    });
    let world_new_s = t.elapsed().as_secs_f64();
    let registry = traced.then(|| world.enable_metrics());
    let sh = Arc::new(Shared {
        rec: rec.clone(),
        plan,
        budget: Mutex::new(None),
        trace: trace.clone(),
        registry: registry.clone(),
        created,
        marks: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
        excluded_ns: AtomicU64::new(0),
        buffer_io_ns: AtomicU64::new(0),
        init_window: Mutex::new(None),
        step_span: Mutex::new(None),
        failures: Mutex::new(Vec::new()),
        outputs: Mutex::new(Vec::new()),
    });
    let pattern = Pattern::from_seed(seed);
    let sh2 = sh.clone();
    rec.scope("run_ranks", || {
        world.run_ranks(&mut sim, move |ctx, rank| {
            if let Err(e) = rank_body(ctx, rank, &sh2, pattern) {
                sh2.failures
                    .lock()
                    .push(format!("rank {}: {e}", rank.rank()));
            }
        })
    });
    let report = rec.scope("Simulation::run", || sim.run());
    let mut failures = sh.failures.lock().clone();
    let (events, processes) = match &report {
        Ok(r) => (r.events_processed, r.processes),
        Err(e) => {
            failures.push(format!("simulation: {e}"));
            (0, 0)
        }
    };
    let marks = sh.marks.lock();
    let setup_s = marks.first().map_or(f64::NAN, |m| {
        m.stamp.wall.duration_since(sh.created).as_secs_f64()
    });
    let bytes = (PARTITIONS * world.size() * CHUNK * 8) as f64;
    let steps: Vec<Step> = marks
        .windows(2)
        .map(|w| {
            let (wall, cpu) = w[0].stamp.until(&w[1].stamp);
            let excluded = w[1].excluded_s - w[0].excluded_s;
            Step {
                wall_s: wall - excluded,
                cpu_s: cpu - excluded,
                virtual_us: w[1].virt.saturating_since(w[0].virt).as_micros_f64(),
                events: 0.0,
                payload_bytes: bytes,
            }
        })
        .collect();
    let measured_io = match (marks.first(), marks.last()) {
        (Some(a), Some(b)) => b.buffer_io_s - a.buffer_io_s,
        _ => 0.0,
    };
    let traced = registry.map(|_| {
        let all = trace.spans();
        let mut t = Traced::default();
        if let Some(first) = marks.first().and_then(|m| m.snapshot.as_ref()) {
            t.setup_counts = Counts::between(&Default::default(), first);
        }
        for (k, w) in marks.windows(2).enumerate() {
            let (Some(a), Some(b)) = (&w[0].snapshot, &w[1].snapshot) else {
                continue;
            };
            let c = Counts::between(a, b);
            if k == 0 {
                t.first_counts = c.clone();
            }
            t.counts.add(&c);
            let spans = window_spans(
                &all,
                w[0].spans_recorded as usize..w[1].spans_recorded as usize,
            );
            t.spans.add(&SpanStats::of(&spans));
            if k == 0 {
                t.cp = CpStats::of_window(&spans, w[0].virt, w[1].virt);
            }
        }
        t
    });
    let rss_fixed_mb = marks
        .get(MIN_STEPS)
        .or(marks.last())
        .map_or(f64::NAN, |m| m.rss_mb);
    let rss_end_mb = marks.last().map_or(f64::NAN, |m| m.rss_mb);
    drop(marks);
    let outputs = sh.outputs.lock().clone();
    let init_s = sh
        .init_window
        .lock()
        .map_or(0.0, |(a, b)| b.duration_since(a).as_secs_f64());
    WorldRun {
        setup_s,
        rss_fixed_mb,
        rss_end_mb,
        steps,
        events,
        processes,
        init_s,
        buffer_io_s: measured_io,
        world_new_s,
        failures,
        outputs,
        traced,
    }
}

pub fn run(seed: u64, plan: Plan, rec: &Recorder) -> Phase {
    let mut phase = Phase::default();
    // Set-up-only worlds: extra set-up samples, and the event count of
    // set-up, which the measured world's total minus this leaves to the
    // measured steps. The traced phase takes its event counts from the
    // untraced one.
    let mut setup_events = None;
    for _ in 1..plan.setup_reps.max(2) {
        let id = rec.enter("setup", None);
        let w = world(seed, false, None, rec);
        rec.exit(id, None);
        phase.attempted += 1;
        phase.setup_s.push(w.setup_s);
        phase.failures.extend(w.failures);
        phase.sample("collectives.init_ms", w.init_s * 1e3);
        phase.sample("mpisim.world_new_ms", w.world_new_s * 1e3);
        setup_events = Some(w.events);
    }
    if !phase.failures.is_empty() {
        return phase;
    }
    let w = world(seed, plan.traced, Some(plan), rec);
    phase.setup_s.insert(0, w.setup_s);
    // The warm-up, the measured steps, and the step a failure cut short.
    phase.attempted += 1 + w.steps.len() + usize::from(!w.failures.is_empty());
    phase.failures.extend(w.failures);
    phase.processes = w.processes;
    phase.rss_fixed_mb = w.rss_fixed_mb;
    phase.rss_end_mb = w.rss_end_mb;
    phase.sample("collectives.init_ms", w.init_s * 1e3);
    phase.sample("mpisim.world_new_ms", w.world_new_s * 1e3);
    let n = w.steps.len().max(1) as f64;
    phase.extra("gpusim.buffer_io_ms", w.buffer_io_s * 1e3);
    let per_step_events = setup_events.map(|s| w.events.saturating_sub(s) as f64 / n);
    for (k, mut step) in w.steps.into_iter().enumerate() {
        step.events = per_step_events.unwrap_or(0.0);
        if k < MIN_STEPS {
            phase
                .model_words
                .push((step.virtual_us * 1e3).round() as u64);
            if let Some(o) = w.outputs.get(k) {
                phase.model_words.push(*o);
            }
        }
        phase.steps.push(step);
    }
    phase.traced = w.traced;
    phase
}
