//! Deterministic parallel chaos campaign over the `parcomm-sweep` engine.
//!
//! Runs the CI chaos grid — eight fault seeds × two rates × two stripe
//! counts of the two-node partitioned allreduce, each cell replayed twice
//! — and prints one report line per cell in grid order, then the covered
//! coverage points. The report is **byte-identical at any worker count**:
//! diff the stdout of a `--threads 1` run against a `--threads 4` run to
//! prove it.
//!
//! Flags:
//! - `--quick` — trim to two seeds (smoke runs), or a coverage budget of
//!   at most 12;
//! - `--seeds N` — override the fault-seed count (CI uses a widened grid
//!   for the wall-clock speedup check);
//! - `--threads N` / `PARCOMM_THREADS=N` — sweep worker count (default:
//!   available parallelism);
//! - `--out <path>` — stream completed cells to a resumable JSON-lines
//!   sink; a re-run against the same file skips the cells already on disk
//!   (grid and coverage alike);
//! - `--fault-plan <file>` — skip the campaign: load one `FaultPlan` from
//!   JSON and report survival — the reproduce-one-cell workflow. A bare
//!   plan runs single-path on the campaign cell; a minimized-failure
//!   artifact from `results/` runs at its recorded stripe count and
//!   topology, with the mechanism, channel and recovery flags of the
//!   campaign that found it passed again;
//! - `--coverage` — run the coverage-guided search instead of the fixed
//!   grid: each round synthesizes plans toward unexplored fault-class ×
//!   layer points;
//! - `--budget N` — coverage-mode cell budget (default 36);
//! - `--recover` / `--no-recover` — arm (default) or disarm the recovery
//!   escalation ladder; the contract adapts (e.g. a PE crash is *expected*
//!   to be a typed failure when recovery is off);
//! - `--min-out <dir>` — where minimized failing plans land (default
//!   `results`): any contract failure is bisected to a minimal failing
//!   plan written there as JSON;
//! - `--mechanism pe|kc|shmem` (or `PARCOMM_MECHANISM`) — the copy
//!   mechanism every cell's world negotiates, the mechanism axis of the
//!   point space; under `shmem` the coverage search additionally targets
//!   the shmem-signal fault classes (default `pe`);
//! - `--channels N` — the multiplexed-load axis (canonical values 1, 64,
//!   1024): above 1 every cell observes the mux-admitted MoE
//!   dispatch/combine workload instead of the single collective, so fault
//!   classes land on N-channel multiplexed traffic and coverage points
//!   gain a `cN:` qualifier (default 1);
//! - `--shape uniform|ragged|oversub` — the topology-shape axis: cells run
//!   on the classic uniform testbed, a ragged 4/2-GPU 2/1-NIC world, or
//!   the same ragged world at 2:1 rank oversubscription; non-uniform
//!   points gain a `ragged:`/`oversub:` qualifier and minimized failures
//!   carry the `--topology` spec (default `uniform`). The multiplexed MoE
//!   cell and the grid run on the uniform testbed only: `--channels` above
//!   1, or the grid, with a non-uniform shape is rejected;
//! - `PARCOMM_CHAOS_SEED` — shift the grid's fault-seed block.
//!
//! Exits 1 if any cell violates the fault-injection contract (replay
//! divergence, rank errors, or corrupted numerics), 2 on unusable
//! arguments.

use std::fmt::Display;

use parcomm_bench::{arg_flag, arg_value, quick_mode};
use parcomm_fault::coverage::run_coverage_campaign;
use parcomm_fault::{Corpus, CoverageCampaignConfig, TopologyShape, Workload};
use parcomm_mpi::RecoveryReport;
use parcomm_sweep::JsonlSink;

fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The campaign the command line describes: the fixed grid, or the guided
/// search under `--coverage`, on the cell the axis flags select.
fn config() -> CoverageCampaignConfig {
    let mut cfg = if arg_flag("--coverage") {
        let budget = arg_value("--budget").and_then(|s| s.parse().ok()).unwrap_or(36);
        CoverageCampaignConfig::guided(if quick_mode() { budget.min(12) } else { budget })
    } else {
        CoverageCampaignConfig::grid(quick_mode())
    };
    if let (Some(n), Corpus::Grid { seeds, .. }) =
        (arg_value("--seeds").and_then(|s| s.parse().ok()), &mut cfg.corpus)
    {
        *seeds = n;
    }
    cfg.cell.recover = !arg_flag("--no-recover");
    if let Some(m) = parcomm_bench::mechanism() {
        cfg.cell.mechanism = m;
    }
    let channels = arg_value("--channels").and_then(|s| s.parse().ok()).unwrap_or(1);
    cfg.cell.workload = Workload::for_channels(channels);
    if let Some(s) = arg_value("--shape") {
        cfg.cell.shape = TopologyShape::from_key(&s).unwrap_or_else(|| {
            usage_error(format!("--shape {s}: expected uniform|ragged|oversub"))
        });
    }
    cfg
}

/// `--fault-plan <file>`: reproduce one plan (minimized or hand-written)
/// and report what happened. A minimized-failure artifact replays at the
/// stripe count and on the topology it was minimized on.
fn run_one_plan(path: &str, cfg: &CoverageCampaignConfig) -> ! {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(format!("--fault-plan {path}: {e}")));
    let doc = parcomm_obs::json::parse(&body)
        .unwrap_or_else(|e| usage_error(format!("--fault-plan {path}: {e}")));
    let (cell, plan) =
        cfg.replay(&doc).unwrap_or_else(|e| usage_error(format!("--fault-plan {path}: {e}")));
    let run = cell.run(cfg.sim_seed, &plan);
    let report = RecoveryReport::from_metrics(&run.metrics);
    println!(
        "plan {path}: survived={} digest={:#018x} end={:.1}us recover={} stripes={} shape={} {report:?}",
        run.survived(),
        run.digest,
        run.end_time_us,
        cell.recover,
        cell.stripes,
        cell.shape.key()
    );
    for (rank, err) in &run.errors {
        println!("  rank {rank}: {err}");
    }
    std::process::exit(if run.survived() { 0 } else { 1 });
}

fn main() {
    let cfg = config();
    if let Some(path) = arg_value("--fault-plan") {
        run_one_plan(&path, &cfg);
    }
    let threads = parcomm_bench::threads();
    let corpus = match &cfg.corpus {
        Corpus::Guided { budget, .. } => format!("coverage budget {budget}"),
        Corpus::Grid { seeds, rates, stripes, .. } => format!(
            "{seeds} seeds x {} rates x {} stripe counts",
            rates.len(),
            stripes.len()
        ),
    };
    eprintln!(
        "chaos campaign: {corpus} on {threads} worker(s), recovery {}, mechanism {}, channels {}, shape {}",
        if cfg.cell.recover { "armed" } else { "off" },
        cfg.cell.mechanism.short_name(),
        cfg.cell.channels(),
        cfg.cell.shape.key()
    );
    let mut sink = arg_value("--out").map(|path| {
        let sink =
            JsonlSink::open(&path).unwrap_or_else(|e| usage_error(format!("--out {path}: {e}")));
        if !sink.is_empty() {
            eprintln!("resuming: {} cell(s) restored from {path}", sink.len());
        }
        sink
    });
    let report = run_coverage_campaign(&cfg, threads, sink.as_mut())
        .unwrap_or_else(|e| usage_error(format!("chaos campaign: {e}")));
    print!("{}", report.render());
    if !report.failures.is_empty() {
        let dir = arg_value("--min-out").unwrap_or_else(|| "results".to_string());
        std::fs::create_dir_all(&dir).expect("create --min-out dir");
        for f in &report.failures {
            let mut name = f.target.clone();
            if f.cell.stripes != 1 {
                name.push_str(&format!("_stripes{}", f.cell.stripes));
            }
            let slug: String =
                name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
            let path = format!("{dir}/chaos_min_{slug}.json");
            std::fs::write(&path, f.to_json_string()).expect("write minimized plan");
            eprintln!("minimized failing plan ({} shrink steps) -> {path}", f.shrink_steps);
        }
        eprintln!(
            "chaos campaign: {} of {} cells FAILED the contract",
            report.failures.len(),
            report.outcomes.len()
        );
        std::process::exit(1);
    }
    println!(
        "chaos campaign: {} cells ok, {} coverage points",
        report.outcomes.len(),
        report.covered.len()
    );
}
