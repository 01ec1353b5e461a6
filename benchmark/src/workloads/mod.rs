//! The three closed-loop workloads and what one measured phase of each
//! returns. Every rank waits for completion and one collective, solve or
//! job is in flight at a time; the client count is the rank count.

pub mod allreduce;
pub mod jacobi;
pub mod moe;

use std::sync::Arc;
use std::time::{Duration, Instant};

use parcomm_mpi::{MpiError, MpiWorld, Rank, WorldConfig};
use parcomm_sim::{Ctx, Mutex, SimTime, Simulation};

use crate::host::{peak_rss_mb, Stamp};
use crate::layers::{Counts, CpStats, SpanStats};
use crate::record::Recorder;

/// Steps a phase always measures, whatever the deadline; the model digest
/// covers exactly this many.
pub const MIN_STEPS: usize = 3;

/// One measured step.
#[derive(Clone, Debug)]
pub struct Step {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Modeled latency of the epoch, solve or job.
    pub virtual_us: f64,
    /// Simulation events the step processed.
    pub events: f64,
    /// Modeled payload bytes the step moved (the goodput numerator).
    pub payload_bytes: f64,
}

/// When a measuring phase stops: at its deadline once `min_steps` ran,
/// else at a hard deadline half as long again (with at least
/// [`MIN_STEPS`]).
#[derive(Copy, Clone, Debug)]
pub struct Budget {
    deadline: Instant,
    hard_deadline: Instant,
    min_steps: usize,
}

impl Budget {
    /// Measure for `plan.seconds` from now.
    pub fn new(plan: &Plan) -> Budget {
        let now = Instant::now();
        Budget {
            deadline: now + Duration::from_secs_f64(plan.seconds),
            hard_deadline: now + Duration::from_secs_f64(1.5 * plan.seconds),
            min_steps: plan.min_steps,
        }
    }

    pub fn done(&self, steps: usize) -> bool {
        let now = Instant::now();
        steps >= MIN_STEPS
            && ((steps >= self.min_steps && now >= self.deadline) || now >= self.hard_deadline)
    }
}

/// What the traced phase saw, summed over its steps.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Counter/histogram increments over the measured steps.
    pub counts: Counts,
    /// Counter increments while setting up one world (allreduce only:
    /// the jacobi and moe steps each build their own world).
    pub setup_counts: Counts,
    /// Increments of the first measured step alone (model digest input).
    pub first_counts: Counts,
    pub spans: SpanStats,
    /// Critical path of the first measured step (the model is
    /// deterministic, and one analysis of a large step takes seconds).
    pub cp: CpStats,
}

/// One measuring phase of a workload: untraced (end-to-end numbers) or
/// traced (per-layer numbers).
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub steps: Vec<Step>,
    /// Wall seconds of each set-up sample.
    pub setup_s: Vec<f64>,
    /// Simulation processes per world.
    pub processes: u64,
    /// Host memory high-water mark (MiB) once set-up and the first
    /// [`MIN_STEPS`] steps are done — a fixed amount of work, so the
    /// figure does not depend on how many steps the host speed allowed —
    /// and at the end of the phase.
    pub rss_fixed_mb: f64,
    pub rss_end_mb: f64,
    /// Steps started, warm-up steps included.
    pub attempted: usize,
    /// Steps that failed (typed error, panic or wrong output), with why.
    pub failures: Vec<String>,
    /// Model digest input: virtual latency (ns) and output words of the
    /// first [`MIN_STEPS`] steps.
    pub model_words: Vec<u64>,
    /// Workload-specific per-step numbers (`apps.*`, `mux.*`, wall-clock
    /// layer costs), summed over the measured steps.
    pub extras: Vec<(&'static str, f64)>,
    /// Costs paid once per world or per phase (world construction,
    /// collective init, the serial reference), one sample each; the
    /// report takes their median.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub traced: Option<Traced>,
}

impl Phase {
    pub fn extra(&mut self, name: &'static str, v: f64) {
        match self.extras.iter_mut().find(|e| e.0 == name) {
            Some(e) => e.1 += v,
            None => self.extras.push((name, v)),
        }
    }

    pub fn extra_value(&self, name: &str) -> f64 {
        self.extras
            .iter()
            .find(|e| e.0 == name)
            .map_or(0.0, |e| e.1)
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        match self.samples.iter_mut().find(|e| e.0 == name) {
            Some(e) => e.1.push(v),
            None => self.samples.push((name, vec![v])),
        }
    }

    /// Median of the samples named `name` (0 when none).
    pub fn sample_median(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .find(|e| e.0 == name)
            .map_or(0.0, |e| crate::stats::median(&e.1))
    }
}

/// The workloads, by the names `--workload` takes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    AllreduceHier8x4,
    JacobiKc2x4,
    MoeShmem2x4,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::AllreduceHier8x4,
        Workload::JacobiKc2x4,
        Workload::MoeShmem2x4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AllreduceHier8x4 => "allreduce-hier-8x4",
            Workload::JacobiKc2x4 => "jacobi-kc-2x4",
            Workload::MoeShmem2x4 => "moe-shmem-2x4",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Run one measuring phase.
    pub fn run(self, seed: u64, plan: Plan, rec: &Recorder) -> Phase {
        match self {
            Workload::AllreduceHier8x4 => allreduce::run(seed, plan, rec),
            Workload::JacobiKc2x4 => jacobi::run(seed, plan, rec),
            Workload::MoeShmem2x4 => moe::run(seed, plan, rec),
        }
    }
}

/// One step of a workload that builds a fresh world per step.
pub struct WorldStep {
    pub step: Step,
    pub processes: u64,
    /// Output values, verified against the reference after measuring.
    pub outputs: Vec<f64>,
    /// Model counters (traced steps only).
    pub counts: Option<Counts>,
    pub spans: Option<SpanStats>,
    pub cp: Option<CpStats>,
    /// Per-step workload numbers, summed into [`Phase::extras`].
    pub extras: Vec<(&'static str, f64)>,
    pub world_new_s: f64,
}

/// What one measuring phase does.
#[derive(Copy, Clone, Debug)]
pub struct Plan {
    /// Record causal spans and every layer's counters.
    pub traced: bool,
    /// Measuring time after set-up.
    pub seconds: f64,
    /// Set-up samples to take (at least 1: the warm-up).
    pub setup_reps: usize,
    /// Steps to measure even past `seconds` (up to half as long again).
    pub min_steps: usize,
}

/// The measuring loop shared by the fresh-world workloads (jacobi, moe):
/// set-up samples (each a cold warm-up step), measured steps for
/// `seconds`, then the serial reference and output verification, both
/// outside every step timing.
pub fn run_fresh_worlds(
    plan: Plan,
    rec: &Recorder,
    mut step: impl FnMut(bool, bool) -> Result<WorldStep, String>,
    reference: impl FnOnce() -> Vec<f64>,
    verify: impl Fn(&[f64], &[f64]) -> Result<(), String>,
) -> Phase {
    let mut phase = Phase::default();
    let mut outputs: Vec<(String, Vec<f64>)> = Vec::new();
    // Only the first traced step gets a critical-path analysis.
    let mut attempt = |phase: &mut Phase, label: String, cp: bool| -> Option<WorldStep> {
        phase.attempted += 1;
        match step(plan.traced, cp) {
            Ok(ws) => {
                outputs.push((label, ws.outputs.clone()));
                Some(ws)
            }
            Err(e) => {
                phase.failures.push(format!("{label}: {e}"));
                None
            }
        }
    };
    for i in 0..plan.setup_reps.max(1) {
        let t0 = Instant::now();
        let id = rec.enter("setup", None);
        let ws = attempt(&mut phase, format!("warm-up {i}"), false);
        rec.exit(id, None);
        phase.setup_s.push(t0.elapsed().as_secs_f64());
        match ws {
            Some(ws) => {
                phase.processes = ws.processes;
                phase.sample("mpisim.world_new_ms", ws.world_new_s * 1e3);
            }
            None => return phase,
        }
    }
    let budget = Budget::new(&plan);
    while !budget.done(phase.steps.len()) {
        let k = phase.steps.len();
        let Some(ws) = attempt(&mut phase, format!("step {k}"), plan.traced && k == 0) else {
            break;
        };
        if k < MIN_STEPS {
            phase
                .model_words
                .push((ws.step.virtual_us * 1e3).round() as u64);
            phase
                .model_words
                .extend(ws.outputs.iter().map(|v| v.to_bits()));
        }
        for (name, v) in &ws.extras {
            phase.extra(name, *v);
        }
        phase.sample("mpisim.world_new_ms", ws.world_new_s * 1e3);
        if let (Some(c), Some(s)) = (&ws.counts, &ws.spans) {
            let t = phase.traced.get_or_insert_with(Traced::default);
            if k == 0 {
                t.first_counts = c.clone();
                t.cp = ws.cp.clone().unwrap_or_default();
            }
            t.counts.add(c);
            t.spans.add(s);
        }
        phase.steps.push(ws.step);
        if phase.steps.len() == MIN_STEPS {
            phase.rss_fixed_mb = peak_rss_mb().unwrap_or(f64::NAN);
        }
    }
    phase.rss_end_mb = peak_rss_mb().unwrap_or(f64::NAN);
    let t0 = Instant::now();
    let expected = rec.scope("reference", reference);
    phase.sample("apps.reference_s", t0.elapsed().as_secs_f64());
    rec.scope("verify", || {
        for (label, got) in &outputs {
            if let Err(e) = verify(got, &expected) {
                phase.failures.push(format!("{label}: {e}"));
            }
        }
    });
    phase
}

/// A fresh simulated world run to completion: per-rank results in rank
/// order plus what the step cost.
pub struct FreshRun<R> {
    pub results: Vec<R>,
    /// Latest virtual time (µs) at which a rank body returned.
    pub end_us: f64,
    pub events: u64,
    pub processes: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub world_new_s: f64,
    pub counts: Option<Counts>,
    pub spans: Option<SpanStats>,
    pub cp: Option<CpStats>,
}

/// Per rank: its body's result and the virtual µs at which it returned.
type RankSlots<R> = Arc<Mutex<Vec<Option<Result<(R, f64), MpiError>>>>>;

/// Build a world with `config` on a simulation seeded with `seed`, run
/// `body` on every rank, and time it all as one step. Traced runs record
/// causal spans and every layer's counters; their analysis runs after the
/// step's clock stops; `with_cp` adds the critical-path analysis.
pub fn fresh_world<R: Send + 'static>(
    seed: u64,
    config: WorldConfig,
    traced: bool,
    with_cp: bool,
    rec: &Recorder,
    body: impl Fn(&mut Ctx, &Rank) -> Result<R, MpiError> + Send + Sync + 'static,
) -> Result<FreshRun<R>, String> {
    let start = Stamp::now();
    let step_span = rec.enter("step", None);
    let mut sim = Simulation::with_seed(seed);
    let trace = sim.trace();
    if traced {
        trace.enable_causal();
    }
    let t0 = Instant::now();
    let world = rec.scope("MpiWorld::new", || MpiWorld::try_new(&sim, config));
    let world_new_s = t0.elapsed().as_secs_f64();
    let world = match world {
        Ok(w) => w,
        Err(e) => {
            rec.exit(step_span, None);
            return Err(format!("world construction: {e}"));
        }
    };
    let registry = traced.then(|| world.enable_metrics());
    let slots: RankSlots<R> = Arc::new(Mutex::new((0..world.size()).map(|_| None).collect()));
    let out = slots.clone();
    rec.scope("run_ranks", || {
        world.run_ranks(&mut sim, move |ctx, rank| {
            let r = body(ctx, rank).map(|v| (v, ctx.now().as_micros_f64()));
            out.lock()[rank.rank()] = Some(r);
        })
    });
    let report = rec.scope("Simulation::run", || sim.run());
    let end = Stamp::now();
    rec.exit(step_span, None);
    let mut results = Vec::new();
    let mut end_us = 0.0f64;
    for (r, slot) in slots.lock().drain(..).enumerate() {
        match slot {
            Some(Ok((v, t))) => {
                results.push(v);
                end_us = end_us.max(t);
            }
            Some(Err(e)) => return Err(format!("rank {r}: {e}")),
            None => {
                let why = report
                    .as_ref()
                    .err()
                    .map_or("no result".to_string(), |e| e.to_string());
                return Err(format!("rank {r} did not finish: {why}"));
            }
        }
    }
    let report = report.map_err(|e| format!("simulation: {e}"))?;
    let (wall_s, cpu_s) = start.until(&end);
    let (counts, spans, cp) = match registry {
        Some(reg) => {
            let spans = trace.spans();
            (
                Some(Counts::between(&Default::default(), &reg.snapshot())),
                Some(SpanStats::of(&spans)),
                with_cp.then(|| CpStats::of_window(&spans, SimTime::ZERO, report.end_time)),
            )
        }
        None => (None, None, None),
    };
    Ok(FreshRun {
        results,
        end_us,
        events: report.events_processed,
        processes: report.processes,
        wall_s,
        cpu_s,
        world_new_s,
        counts,
        spans,
        cp,
    })
}
