//! Whole-system benchmark for parcomm.
//!
//! ```text
//! bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload through the crates' public entry points
//! and prints every metric by name with its unit, the per-layer table when
//! traced, and — as the last line of standard output — one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` measures
//! with tracing and the metrics registry off and reports the end-to-end
//! metrics; `--trace 1` spends half the time on an untraced phase and half
//! on a traced one (`Trace::enable_causal` + `MpiWorld::enable_metrics`)
//! and reports the per-layer metrics. Every output is checked against a
//! serial reference; any failed step makes the exit code non-zero.
//! See `benchmark/README.md` for the metric definitions.

mod host;
mod layers;
mod record;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use layers::{fairness_error, CP_LAYERS};
use parcomm_testkit::digest::Digest;
use record::Recorder;
use stats::{median, quantile, samples_for, tail_quantile};
use workloads::{Phase, Plan, Workload, MIN_STEPS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: parcomm-benchmark --workload <allreduce-hier-8x4|jacobi-kc-2x4|moe-shmem-2x4> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Set-up samples of an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The percentile `tail` reports. Untraced runs measure at least the 40
/// steps that leave ten beyond it.
const TAIL_Q: f64 = 0.75;

/// One reported metric.
struct Metric {
    name: String,
    /// Per step for per-layer counts; the value itself otherwise.
    value: f64,
    /// Sum over the measured steps, for per-step counts.
    total: Option<f64>,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        total: None,
        unit,
    }
}

fn per_step(name: &str, total: f64, steps: usize, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: total / steps.max(1) as f64,
        total: Some(total),
        unit,
    }
}

fn sum(phase: &Phase, f: impl Fn(&workloads::Step) -> f64) -> f64 {
    phase.steps.iter().map(f).sum()
}

fn column(phase: &Phase, f: impl Fn(&workloads::Step) -> f64) -> Vec<f64> {
    phase.steps.iter().map(f).collect()
}

fn end_to_end(u: &Phase, tail: f64) -> Vec<Metric> {
    let wall_ms = column(u, |s| s.wall_s * 1e3);
    // Modeled numbers come from the first 40 steps only: allreduce epochs
    // differ slightly by index, and how many ran depends on host speed.
    let modeled = &u.steps[..u.steps.len().min(samples_for(TAIL_Q))];
    let virt: Vec<f64> = modeled.iter().map(|s| s.virtual_us).collect();
    let bytes: f64 = modeled.iter().map(|s| s.payload_bytes).sum();
    vec![
        metric("step_wall_ms.p50", median(&wall_ms), "ms"),
        metric("step_wall_ms.tail", quantile(&wall_ms, tail), "ms"),
        metric(
            "step_cpu_ms.p50",
            median(&column(u, |s| s.cpu_s * 1e3)),
            "ms",
        ),
        metric(
            "sim_events_per_s",
            median(&column(u, |s| s.events / s.wall_s)),
            "1/s",
        ),
        metric("setup_s", median(&u.setup_s), "s"),
        metric("peak_rss_mb", u.rss_fixed_mb, "MiB"),
        metric("step_virtual_us.p50", median(&virt), "us"),
        metric("step_virtual_us.tail", quantile(&virt, tail), "us"),
        metric(
            "goodput_gbps",
            bytes / (virt.iter().sum::<f64>() * 1e3),
            "GB/s",
        ),
    ]
}

fn per_layer(u: &Phase, t: &Phase) -> Vec<Metric> {
    let tr = t.traced.clone().unwrap_or_default();
    let (c, sp) = (&tr.counts, &tr.spans);
    let nu = u.steps.len();
    let n = t.steps.len();
    let count = |name: &str, counter: &str| per_step(name, c.counter(counter), n, "count");
    let span_us = |name: &str, category: &str| per_step(name, sp.micros(category), n, "us");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let rails: Vec<f64> = c
        .family("net.rail", ".bytes")
        .into_iter()
        .map(|x| x.1)
        .collect();
    let rail_total: f64 = rails.iter().sum();
    let rail_max = rails.iter().copied().fold(0.0, f64::max);
    // Set-up counters: the allreduce world sets up once for all its steps;
    // the jacobi and moe steps each set up their own world.
    let rkeys = if tr.setup_counts.counters.is_empty() {
        ratio(c.counter("ucx.rkey_exchanges"), n as f64)
    } else {
        tr.setup_counts.counter("ucx.rkey_exchanges")
    };
    let (wall_u, cpu_u, events_u) = (
        sum(u, |s| s.wall_s),
        sum(u, |s| s.cpu_s),
        sum(u, |s| s.events),
    );
    // Jacobi only: the share of a solve's untraced wall that its field
    // arithmetic costs, against solves with the arithmetic switched off.
    let cost_only_ms = t.sample_median("apps.jacobi_cost_only_ms");
    let stencil_share = if cost_only_ms > 0.0 {
        1.0 - cost_only_ms / median(&column(u, |s| s.wall_s * 1e3))
    } else {
        0.0
    };
    let mut m = vec![
        per_step("simcore.events", events_u, nu, "count"),
        metric("simcore.ns_per_event", ratio(wall_u * 1e9, events_u), "ns"),
        metric(
            "simcore.host_idle_frac",
            1.0 - ratio(cpu_u, wall_u),
            "ratio",
        ),
        metric("simcore.processes", u.processes as f64, "count"),
        metric(
            "bench.rss_growth_mb_per_step",
            ratio(
                u.rss_end_mb - u.rss_fixed_mb,
                nu.saturating_sub(MIN_STEPS) as f64,
            ),
            "MiB",
        ),
        count("gpusim.kernels", "gpu.kernels"),
        count("gpusim.stream_syncs", "gpu.stream_syncs"),
        count("gpusim.emissions", "gpu.emissions"),
        span_us("gpusim.kernel_us", "kernel"),
        span_us("gpusim.stream_sync_us", "stream_sync"),
        per_step(
            "gpusim.buffer_io_ms",
            u.extra_value("gpusim.buffer_io_ms"),
            nu,
            "ms",
        ),
        count("netsim.transfers", "net.transfers"),
        per_step("netsim.bytes", c.counter("net.bytes"), n, "B"),
        metric(
            "netsim.rail_max_share",
            ratio(rail_max, rail_total),
            "ratio",
        ),
        span_us("netsim.wire_us", "wire"),
        count("netsim.fault_penalties", "net.fault_penalties"),
        count("ucxsim.puts", "ucx.puts"),
        count("ucxsim.put_retries", "ucx.put_retries"),
        count("ucxsim.am_sends", "ucx.am_sends"),
        metric(
            "ucxsim.put_latency_us.p50",
            c.hist_quantile(|h| h == "ucx.put_latency_us", 0.5),
            "us",
        ),
        metric("ucxsim.rkey_exchanges", rkeys, "count"),
        count("shmem.puts", "shmem.puts"),
        count("shmem.signals", "shmem.signals"),
        count("shmem.fallbacks", "shmem.fallbacks"),
        count(
            "shmem.rkey_exchanges_avoided",
            "shmem.rkey_exchanges_avoided",
        ),
        count("mpisim.pe_polls", "mpi.pe.polls"),
        metric(
            "mpisim.pe_hooks_per_poll",
            ratio(c.counter("mpi.pe.hook_runs"), c.counter("mpi.pe.polls")),
            "ratio",
        ),
        metric(
            "mpisim.pready_arrival_us.p50",
            c.hist_quantile(|h| h == "mpi.pready_arrival_us", 0.5),
            "us",
        ),
        span_us("mpisim.pe_post_us", "pe_post"),
        count("mpisim.watchdog_fires", "mpi.watchdog.fires"),
        metric(
            "mpisim.world_new_ms",
            u.sample_median("mpisim.world_new_ms"),
            "ms",
        ),
        span_us("core.pready_host_us", "pready_host"),
        per_step("collectives.coll_steps", sp.count("coll_step"), n, "count"),
        span_us("collectives.coll_step_us", "coll_step"),
        metric(
            "collectives.init_ms",
            u.sample_median("collectives.init_ms"),
            "ms",
        ),
        per_step("mux.channels", t.extra_value("mux.channels"), n, "count"),
        metric(
            "mux.fairness_error",
            fairness_error(c, workloads::moe::HEAVY_WEIGHT as f64),
            "ratio",
        ),
        metric(
            "mux.tenant_epoch_us.p99",
            c.hist_quantile(
                |h| h.starts_with("mux.tenant") && h.ends_with(".epoch_latency_us"),
                0.99,
            ),
            "us",
        ),
        per_step(
            "apps.jacobi_gflops",
            t.extra_value("apps.jacobi_gflops"),
            n,
            "GFLOP/s",
        ),
        metric("apps.jacobi_stencil_share", stencil_share, "ratio"),
        per_step(
            "apps.moe_tokens_routed",
            t.extra_value("apps.moe_tokens_routed"),
            n,
            "count",
        ),
        per_step(
            "apps.moe_tokens_dropped",
            t.extra_value("apps.moe_tokens_dropped"),
            n,
            "count",
        ),
        metric("apps.reference_s", u.sample_median("apps.reference_s"), "s"),
        per_step("obs.spans", sp.spans, n, "count"),
        metric(
            "obs.trace_overhead",
            ratio(
                median(&column(t, |s| s.wall_s)),
                median(&column(u, |s| s.wall_s)),
            ) - 1.0,
            "ratio",
        ),
        metric(
            "obs.cp_recorded_edge_frac",
            ratio(tr.cp.causal_hops, tr.cp.hops),
            "ratio",
        ),
    ];
    for layer in CP_LAYERS {
        m.push(metric(
            &format!("obs.cp_share.{layer}"),
            tr.cp.share(layer),
            "ratio",
        ));
    }
    m
}

/// FNV-1a digest of the modeled behaviour: virtual step latencies and
/// outputs of the first steps, plus — traced — the first traced step's
/// counters. Event counts, process counts and wall-clock numbers stay
/// out, so a simulator-only change keeps it bit-identical.
fn model_digest(args: &Args, u: &Phase, t: Option<&Phase>) -> u64 {
    let mut h = Digest::new();
    h.write_str(args.workload.name());
    h.write_u64(args.seed);
    for w in &u.model_words {
        h.write_u64(*w);
    }
    if let Some(tr) = t.and_then(|t| t.traced.as_ref()) {
        for (name, v) in &tr.first_counts.counters {
            h.write_str(name);
            h.write_u64(*v);
        }
        for (name, b) in &tr.first_counts.hists {
            h.write_str(name);
            for v in b {
                h.write_u64(*v);
            }
        }
    }
    h.finish()
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::cpu_seconds().and(host::peak_rss_mb()) {
        eprintln!("host counters unavailable: {e}");
        return ExitCode::from(2);
    }
    let rec = Recorder::new(origin);
    let name = args.workload.name();
    println!(
        "workload {name} seed {} seconds {} trace {}",
        args.seed, args.seconds, args.trace as u8
    );

    // Traced runs split the time between an untraced phase (wall-clock
    // layer costs, the tracing-overhead baseline) and the traced one.
    let (u, t) = if args.trace {
        let half = Plan {
            traced: false,
            seconds: args.seconds / 2.0,
            setup_reps: 1,
            min_steps: MIN_STEPS,
        };
        let u = args.workload.run(args.seed, half, &rec);
        let t = args.workload.run(
            args.seed,
            Plan {
                traced: true,
                ..half
            },
            &rec,
        );
        (u, Some(t))
    } else {
        let plan = Plan {
            traced: false,
            seconds: args.seconds,
            setup_reps: SETUP_REPS,
            min_steps: samples_for(TAIL_Q),
        };
        (args.workload.run(args.seed, plan, &rec), None)
    };
    // Lower only if the hard deadline cut the run short of 40 steps.
    let tail_q = TAIL_Q.min(tail_quantile(u.steps.len()));

    let mut failures: Vec<String> = u.failures.clone();
    let mut attempted = u.attempted;
    if let Some(t) = &t {
        failures.extend(t.failures.iter().cloned());
        attempted += t.attempted;
        if t.model_words != u.model_words {
            failures.push("tracing changed the modeled behaviour of the first steps".to_string());
        }
    }
    let metrics = match &t {
        None => end_to_end(&u, tail_q),
        Some(t) => per_layer(&u, t),
    };
    if u.steps.is_empty() {
        failures.push("no step completed".to_string());
    }
    let failed = failures.len().min(attempted.max(1));
    let correct = failures.is_empty() && metrics.iter().all(|m| m.value.is_finite());

    match &t {
        None => println!(
            "steps {} measured, tail = p{:.0}",
            u.steps.len(),
            100.0 * tail_q
        ),
        Some(t) => println!("steps {} untraced, {} traced", u.steps.len(), t.steps.len()),
    }
    if t.is_some() {
        println!(
            "{:<34} {:>16} {:>18}  unit",
            "per-layer metric", "per step", "total"
        );
    }
    for m in &metrics {
        let total = m.total.map_or("-".to_string(), |v| format!("{v:.6}"));
        println!("{:<34} {:>16.6} {:>18}  {}", m.name, m.value, total, m.unit);
    }
    println!(
        "failed_ops_ratio {} ratio ({} failed of {} attempted)",
        failed as f64 / attempted.max(1) as f64,
        failed,
        attempted
    );
    for f in &failures {
        println!("FAILED: {f}");
    }
    println!(
        "model_digest 0x{:016x}",
        model_digest(&args, &u, t.as_ref())
    );

    println!(
        "{:<30} {:>6} {:>12} {:>12}",
        "benchmark span", "count", "total_s", "self_s"
    );
    for (span, count, total, own) in rec.summary() {
        println!("{span:<30} {count:>6} {total:>12.6} {own:>12.6}");
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{name}-trace{}.jsonl", args.trace as u8);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, rec.to_jsonl()))
    {
        eprintln!("could not write {path}: {e}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
