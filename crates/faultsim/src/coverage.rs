//! The chaos campaign engine: run a corpus of [`FaultPlan`]s through one
//! [`Cell`] descriptor on the `parcomm-sweep` pool and check every run
//! against the recovery contract.
//!
//! Two corpora share the engine, its config ([`CoverageCampaignConfig`]),
//! its outcome type, its report line and its contract check
//! ([`expectation_at`]):
//!
//! - **the fixed grid** ([`Corpus::Grid`]) — `FaultPlan::chaos(seed,
//!   rate)` over seeds × rates × stripe counts. Every grid plan injects the
//!   same three network classes at different intensities, so its
//!   *coverage* (which fault classes, at which layers, in which
//!   combinations) saturates after the first cell;
//! - **the guided search** ([`Corpus::Guided`]) — coverage as the search
//!   objective. The targets are every single [`FaultClass`] and every
//!   unordered pair of distinct classes the cell can exercise. Each round
//!   synthesizes one plan per still-uncovered target (parameters drawn from
//!   a per-round seeded RNG, generation strictly serial so the campaign is
//!   worker-count invariant), until the cell budget is spent.
//!
//! Each cell runs twice. Recoverable classes must survive with numerics
//! bit-identical to the fault-free stripes-1 baseline and replay
//! deterministically; unrecoverable classes must fail with a typed error,
//! never a hang. Any contract violation is bisected with
//! `parcomm-testkit`'s greedy shrinker to a minimal failing [`FaultPlan`],
//! reported as JSON so the cell replays from the artifact. Cell keys are
//! deterministic, so an optional [`JsonlSink`] resumes either corpus.
//!
//! At equal cell budget the guided search covers every one of its targets,
//! far more points than the grid (asserted in `tests/recovery.rs`).

use std::collections::BTreeSet;
use std::fmt;

use parcomm_core::CopyMechanism;
use parcomm_gpu::EmissionFaultConfig;
use parcomm_net::{NetFaultConfig, Topology};
use parcomm_obs::json::JsonValue;
use parcomm_sim::SimRng;
use parcomm_sweep::{CellValue, JsonlSink, SweepSpec};
use parcomm_testkit::prop::{shrink_failure, Shrink, TestResult};

use crate::chaos::{Cell, ChaosRun, TopologyShape, Workload};
use crate::{FaultPlan, PlanError};

/// The injectable fault classes the search steers over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// Transient per-attempt wire drop (retransmitted).
    LinkDrop,
    /// Per-transfer congestion latency spike.
    LatencySpike,
    /// One NIC dark for a window (re-stripe / retry around it).
    NicOutage,
    /// Every NIC on one node dark for a window (epoch replay territory).
    MultiNicOutage,
    /// Progression-engine stall window.
    PeStall,
    /// Progression-engine crash (lease detection + host drain).
    PeCrash,
    /// Delayed device flag-write emissions.
    FlagDelay,
    /// Lost device flag-write emissions (unrecoverable by design).
    FlagLoss,
    /// Delayed device shmem-signal emissions (symmetric-heap channels).
    ShmemSignalDelay,
    /// Lost device shmem-signal emissions (epoch replay re-issues the put
    /// host-side when the escalation ladder is armed).
    ShmemSignalLoss,
}

/// The stack layer a fault class is injected at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultLayer {
    /// `netsim` fabric / routing.
    Net,
    /// `mpisim` progression engine.
    Mpi,
    /// `gpusim` stream emission.
    Gpu,
}

impl FaultClass {
    /// Every class, in canonical search order.
    pub const ALL: [FaultClass; 10] = [
        FaultClass::LinkDrop,
        FaultClass::LatencySpike,
        FaultClass::NicOutage,
        FaultClass::MultiNicOutage,
        FaultClass::PeStall,
        FaultClass::PeCrash,
        FaultClass::FlagDelay,
        FaultClass::FlagLoss,
        FaultClass::ShmemSignalDelay,
        FaultClass::ShmemSignalLoss,
    ];

    /// The layer this class is injected at.
    pub fn layer(&self) -> FaultLayer {
        match self {
            FaultClass::LinkDrop
            | FaultClass::LatencySpike
            | FaultClass::NicOutage
            | FaultClass::MultiNicOutage => FaultLayer::Net,
            FaultClass::PeStall | FaultClass::PeCrash => FaultLayer::Mpi,
            FaultClass::FlagDelay
            | FaultClass::FlagLoss
            | FaultClass::ShmemSignalDelay
            | FaultClass::ShmemSignalLoss => FaultLayer::Gpu,
        }
    }

    /// True if this class only bites on channels that negotiated the
    /// symmetric-heap mechanism — and, dually, if the *flag-write* classes
    /// are the ones that need the classic device→PE notification path.
    /// The search only targets classes its copy mechanism can exercise.
    pub fn requires_mechanism(&self) -> Option<CopyMechanism> {
        match self {
            FaultClass::ShmemSignalDelay | FaultClass::ShmemSignalLoss => {
                Some(CopyMechanism::Shmem)
            }
            _ => None,
        }
    }

    /// Stable short name used in coverage-point keys and report lines.
    pub fn key(&self) -> &'static str {
        match self {
            FaultClass::LinkDrop => "link_drop",
            FaultClass::LatencySpike => "latency_spike",
            FaultClass::NicOutage => "nic_outage",
            FaultClass::MultiNicOutage => "multi_nic_outage",
            FaultClass::PeStall => "pe_stall",
            FaultClass::PeCrash => "pe_crash",
            FaultClass::FlagDelay => "flag_delay",
            FaultClass::FlagLoss => "flag_loss",
            FaultClass::ShmemSignalDelay => "shmem_delay",
            FaultClass::ShmemSignalLoss => "shmem_loss",
        }
    }

    fn layer_key(&self) -> &'static str {
        match self.layer() {
            FaultLayer::Net => "net",
            FaultLayer::Mpi => "mpi",
            FaultLayer::Gpu => "gpu",
        }
    }
}

/// Classify which fault classes a plan actually injects.
pub fn classes_of(plan: &FaultPlan) -> Vec<FaultClass> {
    let mut out = Vec::new();
    if let Some(net) = &plan.net {
        if net.drop_prob > 0.0 {
            out.push(FaultClass::LinkDrop);
        }
        if net.spike_prob > 0.0 {
            out.push(FaultClass::LatencySpike);
        }
        match net.nic_outages.len() {
            0 => {}
            1 => out.push(FaultClass::NicOutage),
            _ => out.push(FaultClass::MultiNicOutage),
        }
    }
    if plan.pe.iter().any(|(_, f)| f.stall_us > 0.0) {
        out.push(FaultClass::PeStall);
    }
    if plan.pe.iter().any(|(_, f)| f.crash_at_us.is_some()) {
        out.push(FaultClass::PeCrash);
    }
    if plan.flags.iter().any(|(_, f)| f.delay_every > 0) {
        out.push(FaultClass::FlagDelay);
    }
    if plan.flags.iter().any(|(_, f)| f.lose_every > 0) {
        out.push(FaultClass::FlagLoss);
    }
    if plan.shmem_signals.iter().any(|(_, f)| f.delay_every > 0) {
        out.push(FaultClass::ShmemSignalDelay);
    }
    if plan.shmem_signals.iter().any(|(_, f)| f.lose_every > 0) {
        out.push(FaultClass::ShmemSignalLoss);
    }
    out.sort();
    out.dedup();
    out
}

/// The coverage points a plan explores: one `class@layer` point per active
/// class plus one `a+b` point per unordered pair of distinct active
/// classes (the cross-class interaction axis the fixed grid never varies).
pub fn coverage_points(plan: &FaultPlan) -> BTreeSet<String> {
    let classes = classes_of(plan);
    let mut points = BTreeSet::new();
    for c in &classes {
        points.insert(format!("{}@{}", c.key(), c.layer_key()));
    }
    for (i, a) in classes.iter().enumerate() {
        for b in &classes[i + 1..] {
            points.insert(format!("{}+{}", a.key(), b.key()));
        }
    }
    points
}

/// What the recovery contract expects of a plan's run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Recoverable mix: the run must survive, numerics must match the
    /// fault-free baseline bit for bit, and replay must be deterministic.
    Recover,
    /// Unrecoverable mix: the run must fail with a typed error (never a
    /// hang) and still replay deterministically.
    TypedFailure,
}

/// The contract classification for `plan` run on `cell`. On the classic
/// workloads lost flag writes are the one class recovery cannot paper
/// over — the collective engine hands all partitions to the host in one
/// aggregated flag write, and a lost aggregate leaves nothing to replay.
/// The multiplexed MoE cell runs over plain partitioned channels, where
/// the escalation ladder *can* re-drive the epoch host-side, so a lost
/// flag write recovers there whenever the ladder is armed. Everything
/// else must recover when the ladder is armed; with recovery disabled, a
/// PE crash, a lost shmem signal and an all-rails outage are also
/// expected to surface as typed errors. Classes the cell's copy mechanism
/// cannot exercise (shmem-signal faults under the classic protocols) are
/// inert and never flip the expectation.
pub fn expectation_at(plan: &FaultPlan, cell: &Cell) -> Expectation {
    let classes: Vec<FaultClass> = classes_of(plan)
        .into_iter()
        .filter(|c| c.requires_mechanism().map(|m| m == cell.mechanism).unwrap_or(true))
        .collect();
    let multiplexed = matches!(cell.workload, Workload::Moe { .. });
    if classes.contains(&FaultClass::FlagLoss) && (!multiplexed || !cell.recover) {
        return Expectation::TypedFailure;
    }
    // A crashed engine, a lost shmem signal (data written, completion
    // never delivered) and an all-rails outage (outlives the put-retry
    // budget with no rail to re-stripe onto) are carried only by the
    // ladder's lease takeover and epoch replay.
    let ladder_only =
        [FaultClass::PeCrash, FaultClass::ShmemSignalLoss, FaultClass::MultiNicOutage];
    if !cell.recover && classes.iter().any(|c| ladder_only.contains(c)) {
        return Expectation::TypedFailure;
    }
    Expectation::Recover
}

/// One executed campaign cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CoverageOutcome {
    /// Round the cell was generated in (the grid runs in round 0).
    pub round: u32,
    /// What the plan was chosen for: a coverage point key (guided) or
    /// `chaos(<seed>,<rate>)` (grid).
    pub target: String,
    /// Cross-node stripe count of the cell's world.
    pub stripes: usize,
    /// The plan the cell ran.
    pub plan: FaultPlan,
    /// What the contract expected.
    pub expectation: Expectation,
    /// Trace digest of the first run.
    pub digest: u64,
    /// Virtual completion time (µs) of the first run.
    pub end_time_us: f64,
    /// The fault actually perturbed the trace (digest differs from the
    /// cell's fault-free run) — distinguishes genuinely exercised cells
    /// from plans whose windows missed the traffic.
    pub perturbed: bool,
    /// Every rank completed without a typed error.
    pub survived: bool,
    /// The second run reproduced the digest bit for bit.
    pub replayed: bool,
    /// Rank-0 numerics matched the fault-free stripes-1 baseline.
    pub numeric_ok: bool,
}

impl CoverageOutcome {
    /// Run `plan` on `cell` twice and record the observables against the
    /// cell's fault-free `baseline`.
    fn observe(
        round: u32,
        target: String,
        cell: &Cell,
        sim_seed: u64,
        plan: FaultPlan,
        baseline: &Baseline,
    ) -> CoverageOutcome {
        let a = cell.run(sim_seed, &plan);
        let b = cell.run(sim_seed, &plan);
        CoverageOutcome {
            round,
            target,
            stripes: cell.stripes,
            expectation: expectation_at(&plan, cell),
            plan,
            digest: a.digest,
            end_time_us: a.end_time_us,
            perturbed: a.digest != baseline.digest,
            survived: a.survived(),
            replayed: a.digest == b.digest,
            numeric_ok: a.numeric == baseline.numeric,
        }
    }

    /// The contract clause this cell violates, if any.
    pub fn violation(&self) -> Option<&'static str> {
        match self.expectation {
            _ if !self.replayed => Some("replay diverged"),
            Expectation::Recover if !self.survived => Some("unrecovered"),
            Expectation::Recover if !self.numeric_ok => {
                Some("numerics diverged from the fault-free baseline")
            }
            Expectation::TypedFailure if self.survived => {
                Some("expected a typed failure but the run survived")
            }
            _ => None,
        }
    }

    /// True when the cell upheld the contract for its expectation class.
    pub fn ok(&self) -> bool {
        self.violation().is_none()
    }

    /// One deterministic report line (diffable across worker counts).
    pub fn render(&self) -> String {
        let classes: Vec<&str> = classes_of(&self.plan).iter().map(|c| c.key()).collect();
        format!(
            "round={} target={} stripes={} classes=[{}] expect={:?} digest={:#018x} end_us={:.3} perturbed={} survived={} replayed={} numeric_ok={} ok={}",
            self.round,
            self.target,
            self.stripes,
            classes.join("+"),
            self.expectation,
            self.digest,
            self.end_time_us,
            self.perturbed,
            self.survived,
            self.replayed,
            self.numeric_ok,
            self.ok()
        )
    }
}

impl CellValue for CoverageOutcome {
    fn to_json(&self) -> JsonValue {
        let expect = match self.expectation {
            Expectation::Recover => "recover",
            Expectation::TypedFailure => "typed_failure",
        };
        JsonValue::Object(vec![
            ("round".to_string(), (self.round as u64).to_json()),
            ("target".to_string(), self.target.to_json()),
            ("stripes".to_string(), (self.stripes as u64).to_json()),
            ("plan".to_string(), self.plan.to_json()),
            ("expect".to_string(), JsonValue::String(expect.to_string())),
            ("digest".to_string(), self.digest.to_json()),
            ("end_time_us".to_string(), self.end_time_us.to_json()),
            ("perturbed".to_string(), self.perturbed.to_json()),
            ("survived".to_string(), self.survived.to_json()),
            ("replayed".to_string(), self.replayed.to_json()),
            ("numeric_ok".to_string(), self.numeric_ok.to_json()),
        ])
    }

    fn from_json(v: &JsonValue) -> Option<Self> {
        Some(CoverageOutcome {
            round: u64::from_json(v.get("round")?)? as u32,
            target: String::from_json(v.get("target")?)?,
            stripes: u64::from_json(v.get("stripes")?)? as usize,
            plan: FaultPlan::from_json(v.get("plan")?).ok()?,
            expectation: match v.get("expect")?.as_str()? {
                "recover" => Expectation::Recover,
                "typed_failure" => Expectation::TypedFailure,
                _ => return None,
            },
            digest: u64::from_json(v.get("digest")?)?,
            end_time_us: f64::from_json(v.get("end_time_us")?)?,
            perturbed: bool::from_json(v.get("perturbed")?)?,
            survived: bool::from_json(v.get("survived")?)?,
            replayed: bool::from_json(v.get("replayed")?)?,
            numeric_ok: bool::from_json(v.get("numeric_ok")?)?,
        })
    }
}

/// A contract violation bisected to a minimal reproducer.
#[derive(Clone, Debug)]
pub struct MinimizedFailure {
    /// Target of the original failing cell.
    pub target: String,
    /// The cell the minimal plan fails on, so the artifact replays on the
    /// same (possibly ragged / oversubscribed) topology and stripe count.
    pub cell: Cell,
    /// The minimal plan that still violates the contract.
    pub minimal_plan: FaultPlan,
    /// Why the minimal plan fails.
    pub reason: String,
    /// Accepted shrink steps from the original plan to the minimum.
    pub shrink_steps: u32,
}

impl MinimizedFailure {
    /// The reproducer as a JSON document (plan + context), ready to write
    /// under `results/` and replay with `--fault-plan`; the topology is
    /// rendered in `--topology` grammar.
    pub fn to_json_string(&self) -> String {
        JsonValue::Object(vec![
            ("target".to_string(), JsonValue::String(self.target.clone())),
            ("topology".to_string(), JsonValue::String(self.topology())),
            ("stripes".to_string(), JsonValue::Number(self.cell.stripes as f64)),
            ("reason".to_string(), JsonValue::String(self.reason.clone())),
            ("shrink_steps".to_string(), JsonValue::Number(self.shrink_steps as f64)),
            ("plan".to_string(), self.minimal_plan.to_json()),
        ])
        .render()
    }

    fn topology(&self) -> String {
        self.cell.shape.cluster(self.cell.nodes).render()
    }
}

/// The plans a campaign runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Corpus {
    /// Coverage-guided synthesis: each round one plan per still-uncovered
    /// target (up to eight), until `budget` cells have run. Once every
    /// target is covered, covered targets are re-probed with fresh
    /// parameters.
    Guided {
        /// Parameterizes every synthesized plan.
        search_seed: u64,
        /// Total cell budget (each cell = two runs of the workload).
        budget: u32,
    },
    /// The fixed grid: `FaultPlan::chaos(seed, rate)` for every seed in
    /// `base_fault_seed..base_fault_seed + seeds`, every rate and every
    /// stripe count (which replaces the campaign cell's own).
    Grid {
        /// First fault seed.
        base_fault_seed: u64,
        /// Number of fault seeds.
        seeds: u64,
        /// Chaos rates each fault seed runs at.
        rates: Vec<f64>,
        /// Cross-node stripe counts each `(seed, rate)` point runs at.
        stripes: Vec<usize>,
    },
}

impl Corpus {
    /// The cross-node stripe counts this corpus runs at: the guided search
    /// runs single-path, the grid runs its own list.
    pub fn stripes(&self) -> &[usize] {
        match self {
            Corpus::Guided { .. } => &[1],
            Corpus::Grid { stripes, .. } => stripes,
        }
    }
}

/// Configuration for one chaos campaign, grid or guided.
#[derive(Clone, Debug)]
pub struct CoverageCampaignConfig {
    /// Simulation seed shared by every cell.
    pub sim_seed: u64,
    /// The cell every plan runs on. Its mechanism, channel budget and
    /// shape qualify the covered points ([`Cell::point`]) and bound the
    /// guided targets: shmem-signal classes need `Shmem`, flag-write
    /// classes need a classic mechanism, the all-rails outage needs the
    /// classic workloads. Its `stripes` is replaced per cell by the
    /// corpus's ([`Corpus::stripes`]).
    pub cell: Cell,
    /// Which plans run.
    pub corpus: Corpus,
    /// Cap on shrink steps when bisecting a contract violation.
    pub max_shrink_steps: u32,
}

impl CoverageCampaignConfig {
    /// The guided search at `budget` cells on the two-node allreduce with
    /// the recovery ladder armed.
    pub fn guided(budget: u32) -> CoverageCampaignConfig {
        CoverageCampaignConfig {
            sim_seed: 0xFA017,
            cell: Cell { recover: true, ..Cell::allreduce(2) },
            corpus: Corpus::Guided { search_seed: 0xC0FE_A6ED, budget },
            max_shrink_steps: 24,
        }
    }

    /// The CI grid: eight fault seeds at a moderate and an aggressive rate,
    /// single-path and 4-striped, on the same cell as [`Self::guided`].
    /// `quick` trims it to two seeds for smoke runs. `PARCOMM_CHAOS_SEED`
    /// shifts the whole seed block to explore fresh schedules without
    /// editing code.
    pub fn grid(quick: bool) -> CoverageCampaignConfig {
        let base = std::env::var("PARCOMM_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED);
        CoverageCampaignConfig {
            corpus: Corpus::Grid {
                base_fault_seed: base,
                seeds: if quick { 2 } else { 8 },
                rates: vec![0.4, 0.9],
                stripes: vec![1, 4],
            },
            ..CoverageCampaignConfig::guided(0)
        }
    }

    /// Reject cell combinations the campaign cannot honestly run.
    pub fn validate(&self) -> Result<(), CampaignError> {
        check_cell(&self.cell)?;
        match self.corpus {
            Corpus::Grid { .. } if self.cell.shape != TopologyShape::Uniform => {
                Err(CampaignError::ShapedGrid { shape: self.cell.shape })
            }
            _ => Ok(()),
        }
    }

    /// The cell and plan a `--fault-plan` document replays. A bare plan
    /// runs single-path on the campaign cell. A [`MinimizedFailure`]
    /// artifact runs at the stripe count and on the topology it was
    /// minimized on; its mechanism, channel budget and recovery come from
    /// the campaign cell, as for a bare plan.
    pub fn replay(&self, doc: &JsonValue) -> Result<(Cell, FaultPlan), CampaignError> {
        let malformed = |why: String| CampaignError::Plan(PlanError::Malformed(why));
        let plan =
            FaultPlan::from_json(doc.get("plan").unwrap_or(doc)).map_err(CampaignError::Plan)?;
        let mut cell = self.cell_for(&plan, 1);
        if let Some(v) = doc.get("stripes") {
            cell.stripes = v
                .as_f64()
                .filter(|s| *s >= 1.0 && s.fract() == 0.0)
                .ok_or_else(|| malformed(format!("artifact stripes {}", v.render())))?
                as usize;
        }
        if let Some(v) = doc.get("topology") {
            cell.shape = TopologyShape::ALL
                .into_iter()
                .find(|s| v.as_str() == Some(s.cluster(cell.nodes).render().as_str()))
                .ok_or_else(|| {
                    malformed(format!("artifact topology {} is no campaign shape", v.render()))
                })?;
        }
        check_cell(&cell)?;
        Ok((cell, plan))
    }

    /// The cell `plan` runs on at `stripes`: the campaign cell, except
    /// that plans carrying shmem-signal faults observe the device p2p
    /// epoch instead of the collective (see [`Workload::DeviceP2p`]).
    pub fn cell_for(&self, plan: &FaultPlan, stripes: usize) -> Cell {
        let signals =
            classes_of(plan).iter().any(|c| c.requires_mechanism() == Some(CopyMechanism::Shmem));
        let workload = match self.cell.workload {
            Workload::Allreduce if signals => Workload::DeviceP2p,
            w => w,
        };
        Cell { workload, stripes, ..self.cell.clone() }
    }
}

/// Reject cells no campaign can run.
fn check_cell(cell: &Cell) -> Result<(), CampaignError> {
    match cell.workload {
        Workload::Moe { channels: 0 } => Err(CampaignError::NoChannels),
        Workload::Moe { channels } if cell.shape != TopologyShape::Uniform => {
            Err(CampaignError::ShapedMultiplexing { channels, shape: cell.shape })
        }
        _ => Ok(()),
    }
}

/// A campaign that cannot run.
#[derive(Debug)]
pub enum CampaignError {
    /// The multiplexed MoE cell is defined on the uniform testbed only.
    ShapedMultiplexing {
        /// The requested per-rank channel budget.
        channels: usize,
        /// The requested non-uniform shape.
        shape: TopologyShape,
    },
    /// The MoE cell needs at least one channel per rank.
    NoChannels,
    /// `FaultPlan::chaos` names NICs of the uniform testbed, so the grid
    /// runs on the uniform shape only.
    ShapedGrid {
        /// The requested non-uniform shape.
        shape: TopologyShape,
    },
    /// A replayed plan or artifact does not decode.
    Plan(PlanError),
    /// The resume sink could not be written.
    Sink(std::io::Error),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::ShapedMultiplexing { channels, shape } => write!(
                f,
                "the {channels}-channel MoE cell runs on the uniform testbed only, not the {} shape",
                shape.key()
            ),
            CampaignError::NoChannels => write!(f, "the MoE cell needs at least one channel"),
            CampaignError::ShapedGrid { shape } => write!(
                f,
                "the grid's chaos plans target the uniform testbed's NICs, not the {} shape; use --coverage",
                shape.key()
            ),
            CampaignError::Plan(e) => write!(f, "fault plan: {e}"),
            CampaignError::Sink(e) => write!(f, "campaign sink: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Where the all-rails outage window of a one-channel cell opens, in µs:
/// `earliest + span * u` for one uniform draw `u`. On the two-node cells
/// the channel handshake's last message leaves by ~290 µs and cross-node
/// puts run until ~650 µs (ragged), ~785 µs (uniform) and ~1100 µs
/// (oversubscribed), so every window opens after the handshake and meets
/// data traffic.
const MULTI_NIC_OPEN_US: (f64, f64) = (400.0, 200.0);

/// Synthesize a plan that injects exactly `classes`, with parameters drawn
/// from `rng`. All windows are finite and placed so recoverable classes
/// stay inside the escalation ladder's reach.
///
/// Timed windows are placed against the cell workload's virtual-time
/// horizon. The classic cells (one channel) finish in about a
/// millisecond, so their windows keep the hand-tuned literals below. The
/// multiplexed MoE cell spends its first milliseconds admitting channels
/// and only drains its epochs near the end — roughly 75 µs of virtual
/// time per admitted channel (~4.8 ms at 64 channels, measured) — so at
/// `channels > 1` the stall/crash/outage windows stretch across that
/// horizon instead of expiring before the multiplexed traffic exists.
///
/// Rank and NIC draws are bounded by the campaign's *shaped* topology —
/// on a ragged world a synthesized NIC outage must name a NIC the chosen
/// node actually has, and rank-targeted faults draw over the real
/// (possibly oversubscribed) rank count. On the uniform shape every bound
/// equals the historical literal, so the draw sequence — and with it the
/// whole campaign — is unchanged.
fn synthesize(classes: &[FaultClass], rng: &mut SimRng, cell: &Cell) -> FaultPlan {
    let (nodes, channels) = (cell.nodes, cell.channels());
    let topo = cell.shape.cluster(nodes).topology().expect("campaign shapes validate");
    let ranks = topo.num_ranks();
    let horizon = 75.0 * channels as f64;
    // 200 ms: past the full replay budget (4 × 20 ms detection windows)
    // but cheap for wedged unrecoverable cells. Multiplexed cells scale it
    // with the horizon so a long stall still drains before the watchdog.
    let watchdog = if channels > 1 { 200_000.0_f64.max(8.0 * horizon) } else { 200_000.0 };
    let mut plan = FaultPlan::none().with_watchdog(watchdog);
    let drop = if classes.contains(&FaultClass::LinkDrop) {
        0.05 + 0.30 * rng.uniform()
    } else {
        0.0
    };
    let (spike_p, spike_us) = if classes.contains(&FaultClass::LatencySpike) {
        (0.10 + 0.40 * rng.uniform(), 10.0 + 40.0 * rng.uniform())
    } else {
        (0.0, 10.0)
    };
    if drop > 0.0 || spike_p > 0.0 {
        plan = plan.with_link_faults(drop, spike_p, spike_us);
    }
    if classes.contains(&FaultClass::NicOutage) {
        // Cross-node data puts fly between ~400 and ~800 µs fault-free;
        // open the window inside that band so the outage meets traffic.
        // Multiplexed cells put their cross-node puts near the end of the
        // horizon, so the window opens later and spans most of the run.
        let node = draw_multi_rail_node(&topo, nodes, rng);
        let nic = rng.uniform_range(0, topo.nics_on(node) as u64) as u8;
        let (from, until) = if channels > 1 {
            let from = (0.05 + 0.35 * rng.uniform()) * horizon;
            (from, from + (0.4 + 0.6 * rng.uniform()) * horizon)
        } else {
            let from = 300.0 + 300.0 * rng.uniform();
            (from, from + 1_000.0 + 1_000.0 * rng.uniform())
        };
        plan = plan.with_nic_outage(node, nic, from, until).expect("finite ordered window");
    }
    if classes.contains(&FaultClass::MultiNicOutage) {
        // Every rail on one node dark across the data-put window. The
        // window opens after the channel handshake settles — an outage
        // overlapping the handshake is a documented survivability limit,
        // not a recovery target — and before the last cross-node put
        // (see MULTI_NIC_OPEN_US), and ends inside the stall-detection
        // horizon so epoch replay lands.
        let node = draw_multi_rail_node(&topo, nodes, rng);
        let from = MULTI_NIC_OPEN_US.0 + MULTI_NIC_OPEN_US.1 * rng.uniform();
        let until = 8_000.0 + 4_000.0 * rng.uniform();
        for nic in 0..topo.nics_on(node) {
            plan = plan.with_nic_outage(node, nic, from, until).expect("finite ordered window");
        }
    }
    if classes.contains(&FaultClass::PeStall) {
        // While the engine is actively draining preadys: the first
        // ~200 µs on the classic cells. The MoE cell's preadys all land
        // near the end of the horizon, so the stall opens early but lasts
        // long enough to still be in force when the drain happens.
        let rank = rng.uniform_range(0, ranks as u64) as usize;
        let (at, stall) = if channels > 1 {
            (
                (0.05 + 0.25 * rng.uniform()) * horizon,
                (0.9 + 0.4 * rng.uniform()) * horizon,
            )
        } else {
            (20.0 + 130.0 * rng.uniform(), 200.0 + 1_800.0 * rng.uniform())
        };
        plan = plan.with_pe_stall(rank, at, stall);
    }
    if classes.contains(&FaultClass::PeCrash) {
        // Mid-epoch: after channel setup begins, before the engine has
        // drained the device preadys (the epoch completes in ~500–800 µs
        // fault-free, so a crash past ~200 µs can land after the PE's
        // work is already done and exercise nothing). A crash is
        // permanent, so on multiplexed cells any point in the first half
        // of the horizon lands before the late pready drain.
        let rank = rng.uniform_range(0, ranks as u64) as usize;
        let at = if channels > 1 {
            (0.02 + 0.4 * rng.uniform()) * horizon
        } else {
            20.0 + 140.0 * rng.uniform()
        };
        plan = plan.with_pe_crash(rank, at);
    }
    if classes.contains(&FaultClass::FlagDelay) {
        // The collective batches all partitions of a `pready_device_all`
        // into one aggregated flag-write emission, so only stride 1 is
        // guaranteed to hit it.
        let rank = rng.uniform_range(0, ranks as u64) as usize;
        let delay = 20.0 + 60.0 * rng.uniform();
        plan = plan.with_delayed_flag_writes(rank, 1, delay);
    }
    if classes.contains(&FaultClass::FlagLoss) {
        // Stride 1 for the same aggregated-emission reason as FlagDelay.
        let rank = rng.uniform_range(0, ranks as u64) as usize;
        plan = plan.with_lost_flag_writes(rank, 1);
    }
    if classes.contains(&FaultClass::ShmemSignalDelay) {
        // Stride 1 on rank 1: shmem-signal cells observe the device p2p
        // workload, where rank 1 is the sender and only the sender's
        // stream emits signals — a fault elsewhere would be inert.
        let delay = 20.0 + 60.0 * rng.uniform();
        plan = plan.with_delayed_shmem_signals(1, 1, delay);
    }
    if classes.contains(&FaultClass::ShmemSignalLoss) {
        plan = plan.with_lost_shmem_signals(1, 1);
    }
    plan
}

/// Draw a node with at least two NIC rails for an outage: on a one-NIC node
/// a single outage darkens the whole node yet classifies as a recoverable
/// single-NIC outage, and an all-rails one is not multi-NIC. Every uniform
/// node qualifies, so the uniform draw sequence is unchanged.
fn draw_multi_rail_node(topo: &Topology, nodes: u16, rng: &mut SimRng) -> u16 {
    let multi: Vec<u16> = (0..nodes).filter(|&v| topo.nics_on(v) >= 2).collect();
    multi[rng.uniform_range(0, multi.len() as u64) as usize]
}

/// The classes `(mechanism, channels)` can actually exercise: shmem-signal
/// faults need symmetric-heap channels; the flag-write classes need the
/// classic device→PE notification path that shmem channels bypass (on a
/// mixed multi-node shmem world whether a flag fault bites depends on
/// which rank it lands on, so the search skips them rather than schedule
/// cells whose contract is rank-placement roulette — the MoE cell is
/// GPU-initiated under every mechanism, so the same two rules carry over
/// unchanged to the multiplexed axis). One rule is multiplexed-axis only:
/// the all-rails outage is skipped at `channels > 1` because its
/// synthesized window cannot avoid the much longer multi-channel
/// admission handshake, which is the documented survivability limit
/// rather than a recovery target (the `channels == 1` axis covers the
/// class).
fn mechanism_classes(mechanism: CopyMechanism, channels: usize) -> Vec<FaultClass> {
    FaultClass::ALL
        .into_iter()
        .filter(|c| match c.requires_mechanism() {
            Some(m) => m == mechanism,
            None => match c {
                FaultClass::FlagDelay | FaultClass::FlagLoss => {
                    mechanism != CopyMechanism::Shmem
                }
                FaultClass::MultiNicOutage => channels == 1,
                _ => true,
            },
        })
        .collect()
}

/// Canonical target list: every single class, then every unordered pair,
/// keyed by the coverage point the target is meant to reach — restricted
/// to the classes the campaign's copy mechanism and channel budget can
/// exercise.
fn targets(mechanism: CopyMechanism, channels: usize) -> Vec<(String, Vec<FaultClass>)> {
    let classes = mechanism_classes(mechanism, channels);
    let mut out = Vec::new();
    for &c in &classes {
        out.push((format!("{}@{}", c.key(), c.layer_key()), vec![c]));
    }
    for (i, a) in classes.iter().enumerate() {
        for b in &classes[i + 1..] {
            // One NIC down and a whole node dark are mutually exclusive
            // classifications of the same outage list — the pair is
            // unreachable by construction.
            if (*a, *b) == (FaultClass::NicOutage, FaultClass::MultiNicOutage) {
                continue;
            }
            out.push((format!("{}+{}", a.key(), b.key()), vec![*a, *b]));
        }
    }
    out
}

/// The campaign's result: every cell outcome, the covered point set, and
/// any bisected contract violations.
#[derive(Clone, Debug)]
pub struct CoverageReport {
    /// Executed cells in deterministic (round, target) order.
    pub outcomes: Vec<CoverageOutcome>,
    /// Distinct coverage points explored, qualified by the campaign cell.
    pub covered: BTreeSet<String>,
    /// Contract violations, bisected to minimal plans.
    pub failures: Vec<MinimizedFailure>,
}

impl CoverageReport {
    /// One deterministic multi-line report: cell lines then a summary.
    /// Byte-identical at any worker count (asserted in CI by diffing the
    /// serial and 4-worker renders).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&o.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "cells={} covered_points={} failures={}\n",
            self.outcomes.len(),
            self.covered.len(),
            self.failures.len()
        ));
        // The fully-qualified point set (shape/channel/mechanism prefixes
        // included), one sorted line — what the CI shape-axis grep reads.
        let covered: Vec<&str> = self.covered.iter().map(|s| s.as_str()).collect();
        out.push_str(&format!("covered=[{}]\n", covered.join(" ")));
        for f in &self.failures {
            out.push_str(&format!(
                "FAIL target={} topology={} stripes={} steps={} reason={} plan={}\n",
                f.target,
                f.topology(),
                f.cell.stripes,
                f.shrink_steps,
                f.reason,
                f.minimal_plan.to_json_string()
            ));
        }
        out
    }
}

/// What one cell's faulted run is judged against.
struct Baseline {
    /// Digest of the cell's own fault-free run.
    digest: u64,
    /// Rank-0 numerics of the fault-free stripes-1 run: striped
    /// reassembly must reproduce the single-path numerics bit for bit.
    numeric: Vec<f64>,
}

/// Fault-free runs of every cell a campaign can observe: the campaign
/// workload and, for a shmem allreduce, the device p2p epoch that
/// shmem-signal plans observe instead ([`CoverageCampaignConfig::cell_for`]),
/// single-path and at every stripe count of the corpus.
struct Baselines(Vec<(Cell, ChaosRun)>);

impl Baselines {
    fn new(cfg: &CoverageCampaignConfig) -> Baselines {
        let mut workloads = vec![cfg.cell.workload];
        if cfg.cell.workload == Workload::Allreduce && cfg.cell.mechanism == CopyMechanism::Shmem
        {
            workloads.push(Workload::DeviceP2p);
        }
        let mut stripes = vec![1];
        stripes.extend(cfg.corpus.stripes().iter().filter(|&&s| s != 1));
        let mut runs = Vec::new();
        for workload in workloads {
            for &stripes in &stripes {
                let cell = Cell { workload, stripes, ..cfg.cell.clone() };
                let run = cell.run(cfg.sim_seed, &FaultPlan::none());
                runs.push((cell, run));
            }
        }
        Baselines(runs)
    }

    fn of(&self, cell: &Cell) -> Baseline {
        let clean = |stripes| {
            let cell = Cell { stripes, ..cell.clone() };
            &self.0.iter().find(|(c, _)| *c == cell).expect("every campaign cell has a baseline").1
        };
        Baseline { digest: clean(cell.stripes).digest, numeric: clean(1).numeric.clone() }
    }
}

/// This round's `(target, stripes, plan)` cells: the whole grid in round
/// 0, or up to eight guided targets — still-uncovered ones first.
fn batch(
    cfg: &CoverageCampaignConfig,
    round: u32,
    report: &CoverageReport,
    targets: &[(String, Vec<FaultClass>)],
) -> Vec<(String, usize, FaultPlan)> {
    match &cfg.corpus {
        Corpus::Grid { base_fault_seed, seeds, rates, stripes } if round == 0 => {
            let mut cells = Vec::new();
            for fault_seed in *base_fault_seed..base_fault_seed + seeds {
                for &rate in rates {
                    let plan =
                        FaultPlan::chaos(fault_seed, rate).expect("grid rates are in [0, 1]");
                    for &s in stripes {
                        cells.push((format!("chaos({fault_seed:#x},{rate})"), s, plan.clone()));
                    }
                }
            }
            cells
        }
        Corpus::Grid { .. } => Vec::new(),
        Corpus::Guided { search_seed, budget } => {
            let left = budget.saturating_sub(report.outcomes.len() as u32) as usize;
            let fresh: Vec<_> = targets
                .iter()
                .filter(|(key, _)| !report.covered.contains(&cfg.cell.point(key)))
                .collect();
            let pending = if fresh.is_empty() {
                targets.iter().skip((round as usize * 7) % targets.len()).collect()
            } else {
                fresh
            };
            pending
                .into_iter()
                .take(8.min(left))
                .map(|(key, classes)| {
                    let mut rng = SimRng::seeded(
                        search_seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ fnv(key.as_bytes()),
                    );
                    (key.clone(), 1, synthesize(classes, &mut rng, &cfg.cell))
                })
                .collect()
        }
    }
}

/// Run the campaign on `threads` workers, resuming from `sink` when given:
/// cells already in the sink are restored instead of re-run, fresh
/// completions are appended one line at a time.
///
/// Each round's cells are generated serially and only their *execution*
/// fans out, so the report renders byte-identically at any worker count.
pub fn run_coverage_campaign(
    cfg: &CoverageCampaignConfig,
    threads: usize,
    mut sink: Option<&mut JsonlSink>,
) -> Result<CoverageReport, CampaignError> {
    cfg.validate()?;
    let baselines = Baselines::new(cfg);
    let targets = targets(cfg.cell.mechanism, cfg.cell.channels());
    let mut report =
        CoverageReport { outcomes: Vec::new(), covered: BTreeSet::new(), failures: Vec::new() };
    for round in 0.. {
        let batch = batch(cfg, round, &report, &targets);
        if batch.is_empty() {
            break;
        }
        let mut spec = SweepSpec::new();
        for (target, stripes, plan) in batch {
            let cell = cfg.cell_for(&plan, stripes);
            let baseline = baselines.of(&cell);
            let key = format!(
                "r{round}:{}:stripes={stripes}:recover={}",
                cfg.cell.point(&target),
                cfg.cell.recover
            );
            let sim_seed = cfg.sim_seed;
            spec.cell(key, move || {
                CoverageOutcome::observe(round, target, &cell, sim_seed, plan, &baseline)
            });
        }
        let results = match sink.as_deref_mut() {
            Some(sink) => spec.run_with_sink(threads, sink).map_err(CampaignError::Sink)?,
            None => spec.run(threads),
        };
        for outcome in results.into_values().expect("campaign cells observe, never panic") {
            report.covered.extend(coverage_points(&outcome.plan).iter().map(|p| cfg.cell.point(p)));
            if let Some(violation) = outcome.violation() {
                report.failures.push(minimize(cfg, &baselines, &outcome, violation));
            }
            report.outcomes.push(outcome);
        }
    }
    Ok(report)
}

/// Bisect a failing cell's plan to a minimal plan that still violates the
/// contract on the same stripe count. The workload is re-chosen per
/// candidate: shrinking can move a plan across the device-p2p boundary.
fn minimize(
    cfg: &CoverageCampaignConfig,
    baselines: &Baselines,
    failed: &CoverageOutcome,
    violation: &str,
) -> MinimizedFailure {
    let eval = |plan: &FaultPlan| -> TestResult {
        let cell = cfg.cell_for(plan, failed.stripes);
        let baseline = baselines.of(&cell);
        let outcome = CoverageOutcome::observe(
            0,
            String::new(),
            &cell,
            cfg.sim_seed,
            plan.clone(),
            &baseline,
        );
        match outcome.violation() {
            Some(v) => TestResult::Fail(v.to_string()),
            None => TestResult::Pass,
        }
    };
    let reason =
        format!("target {}: {violation} (expected {:?})", failed.target, failed.expectation);
    let (ShrinkPlan(minimal_plan), reason, shrink_steps) = shrink_failure(
        ShrinkPlan(failed.plan.clone()),
        reason,
        cfg.max_shrink_steps,
        &|p: &ShrinkPlan| eval(&p.0),
    );
    MinimizedFailure {
        target: failed.target.clone(),
        cell: cfg.cell_for(&minimal_plan, failed.stripes),
        minimal_plan,
        reason,
        shrink_steps,
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Shrinking a [`FaultPlan`] removes or weakens one fault at a time (the
/// watchdog is kept so shrunk candidates stay bounded): drop the whole net
/// config, zero one probability, drop outages or per-rank entries. Every
/// candidate has strictly fewer active fault knobs, so the greedy descent
/// terminates. (A newtype: the plan and the trait live in other crates.)
#[derive(Clone, Debug, PartialEq)]
struct ShrinkPlan(FaultPlan);

/// A plan's per-rank flag-write or shmem-signal fault list.
type EmissionList = Vec<(usize, EmissionFaultConfig)>;

impl Shrink for ShrinkPlan {
    fn shrink(&self) -> Vec<Self> {
        let plan = &self.0;
        let mut out = Vec::new();
        // One candidate: the plan with one edit applied.
        let mut edit = |f: &dyn Fn(&mut FaultPlan)| {
            let mut p = plan.clone();
            f(&mut p);
            out.push(ShrinkPlan(p));
        };
        let net: fn(&mut FaultPlan) -> &mut NetFaultConfig = |p| p.net.as_mut().expect("checked");
        if let Some(cfg) = &plan.net {
            edit(&|p| p.net = None);
            if cfg.drop_prob > 0.0 {
                edit(&|p| net(p).drop_prob = 0.0);
            }
            if cfg.spike_prob > 0.0 {
                edit(&|p| net(p).spike_prob = 0.0);
            }
            if !cfg.nic_outages.is_empty() {
                edit(&|p| net(p).nic_outages.clear());
                if cfg.nic_outages.len() > 1 {
                    for i in 0..cfg.nic_outages.len() {
                        edit(&|p| {
                            net(p).nic_outages.remove(i);
                        });
                    }
                }
            }
        }
        if !plan.pe.is_empty() {
            edit(&|p| p.pe.clear());
            for (i, (_, f)) in plan.pe.iter().enumerate() {
                if f.stall_us > 0.0 {
                    edit(&|p| p.pe[i].1.stall_us = 0.0);
                }
                if f.crash_at_us.is_some() {
                    edit(&|p| p.pe[i].1.crash_at_us = None);
                }
            }
        }
        let emission_lists: [fn(&mut FaultPlan) -> &mut EmissionList; 2] =
            [|p| &mut p.flags, |p| &mut p.shmem_signals];
        for list in emission_lists {
            let entries = list(&mut plan.clone()).clone();
            if !entries.is_empty() {
                edit(&|p| list(p).clear());
            }
            for (i, (_, f)) in entries.iter().enumerate() {
                if f.delay_every > 0 {
                    edit(&|p| list(p)[i].1.delay_every = 0);
                }
                if f.lose_every > 0 {
                    edit(&|p| list(p)[i].1.lose_every = 0);
                }
            }
        }
        if !plan.shmem_heap_fail.is_empty() {
            edit(&|p| p.shmem_heap_fail.clear());
        }
        // Prune structurally-empty fault configs left by the zeroing steps.
        out.retain(|p| p.0 != *plan);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fault-free `cell`'s cross-node traffic, read off its causal
    /// trace: the issue instants (µs) of its cross-node puts — a `put`
    /// span names the issuing rank, its `wire` child the receiving one —
    /// and the start of its last active message (a `wire` span with no
    /// causal parent: the channel handshake).
    fn cross_node_traffic(cell: &Cell, sim_seed: u64) -> (Vec<f64>, f64) {
        use parcomm_mpi::{MpiWorld, WorldConfig};
        use parcomm_sim::Simulation;
        let mut sim = Simulation::with_seed(sim_seed);
        let trace = sim.trace();
        trace.enable_causal();
        let mut cfg = WorldConfig::gh200(cell.nodes);
        cell.configure(&mut cfg);
        let world = MpiWorld::new(&sim, cfg);
        let topo = world.topology();
        world.run_ranks(&mut sim, |ctx, rank| {
            crate::chaos::allreduce_body(ctx, rank).expect("fault-free run");
        });
        sim.run().expect("fault-free run completes");
        let spans = trace.spans();
        let node = |rank: Option<u32>| topo.node_of(rank.expect("attributed put") as usize);
        let wires = spans.iter().filter(|w| w.category == "wire");
        let puts = wires
            .clone()
            .filter_map(|w| spans.get(w.caused_by.index()?).map(|put| (put, w)))
            .filter(|(put, w)| put.category == "put" && node(put.rank) != node(w.rank))
            .map(|(put, _)| put.start.as_micros_f64())
            .collect();
        let last_am = wires
            .filter(|w| w.caused_by.is_none())
            .map(|w| w.start.as_micros_f64())
            .fold(0.0, f64::max);
        (puts, last_am)
    }

    /// The all-rails outage window of a one-channel cell opens after the
    /// channel handshake and before the fault-free run's last cross-node
    /// put, on every shape, so the outage always meets data traffic.
    #[test]
    fn multi_nic_outage_window_opens_between_handshake_and_last_cross_node_put() {
        let cfg = CoverageCampaignConfig::guided(0);
        let (earliest, span) = MULTI_NIC_OPEN_US;
        for shape in TopologyShape::ALL {
            let cell = Cell { shape, ..cfg.cell.clone() };
            let (puts, last_am) = cross_node_traffic(&cell, cfg.sim_seed);
            let last_put = puts.iter().copied().fold(0.0, f64::max);
            let latest = earliest + span;
            assert!(earliest > last_am, "{shape:?}: opens {earliest} µs, last AM {last_am} µs");
            assert!(latest < last_put, "{shape:?}: opens {latest} µs, last put {last_put} µs");
        }
    }

    #[test]
    fn classes_and_points_classify_plans() {
        let plan = FaultPlan::chaos(0x5EED, 0.4).expect("rate in range");
        let classes = classes_of(&plan);
        assert!(classes.contains(&FaultClass::LinkDrop));
        assert!(classes.contains(&FaultClass::LatencySpike));
        assert!(classes.contains(&FaultClass::NicOutage));
        let points = coverage_points(&plan);
        assert!(points.contains("link_drop@net"));
        assert!(points.contains("link_drop+latency_spike"));
        // 3 singles + 3 pairs.
        assert_eq!(points.len(), 6);
    }

    #[test]
    fn synthesis_hits_requested_classes() {
        let mut rng = SimRng::seeded(7);
        for c in FaultClass::ALL {
            let plan = synthesize(&[c], &mut rng, &Cell::allreduce(2));
            assert_eq!(classes_of(&plan), vec![c], "single-class synthesis for {c:?}");
            plan.validate().expect("synthesized plans validate");
        }
        let pair = [FaultClass::PeCrash, FaultClass::FlagDelay];
        let plan = synthesize(&pair, &mut rng, &Cell::allreduce(2));
        assert_eq!(classes_of(&plan), vec![FaultClass::PeCrash, FaultClass::FlagDelay]);
    }

    #[test]
    fn shaped_synthesis_respects_ragged_bounds() {
        // On the ragged/oversubscribed shapes every synthesized fault must
        // name a rank and NIC the shaped world actually has, and the
        // all-rails class must keep classifying as MultiNicOutage even
        // though odd nodes carry a single rail.
        for shape in [TopologyShape::Ragged, TopologyShape::Oversubscribed] {
            let topo = shape.cluster(2).topology().expect("shape validates");
            let cell = Cell { shape, ..Cell::allreduce(2) };
            for seed in 0..32u64 {
                let mut rng = SimRng::seeded(seed);
                let plan = synthesize(&[FaultClass::NicOutage], &mut rng, &cell);
                let outage = &plan.net.as_ref().expect("net faults").nic_outages[0];
                assert!(outage.nic < topo.nics_on(outage.node), "NIC exists on shaped node");
                assert!(topo.nics_on(outage.node) >= 2, "a single outage leaves a sibling rail");
                let mut rng = SimRng::seeded(seed);
                let plan = synthesize(&[FaultClass::MultiNicOutage], &mut rng, &cell);
                assert_eq!(classes_of(&plan), vec![FaultClass::MultiNicOutage]);
                let mut rng = SimRng::seeded(seed);
                let plan = synthesize(&[FaultClass::PeCrash], &mut rng, &cell);
                let (rank, _) = plan.pe.first().expect("crash entry");
                assert!(*rank < topo.num_ranks(), "rank exists on shaped world");
            }
        }
    }

    #[test]
    fn cell_axes_qualify_points_and_specs() {
        let cell = Cell::allreduce(2);
        assert_eq!(cell.point("link_drop@net"), "pe:link_drop@net");
        let shaped = |shape| Cell { shape, ..cell.clone() };
        assert_eq!(shaped(TopologyShape::Ragged).point("link_drop@net"), "ragged:pe:link_drop@net");
        assert_eq!(
            shaped(TopologyShape::Oversubscribed).point("flag_loss@gpu"),
            "oversub:pe:flag_loss@gpu"
        );
        // Multiplexed load is a distinct point space; the classic
        // workloads keep unprefixed keys, whichever one a plan observes.
        let moe = Cell { workload: Workload::Moe { channels: 64 }, ..cell.clone() };
        assert_eq!(moe.point("pe_stall@mpi"), "c64:pe:pe_stall@mpi");
        let p2p = Cell { workload: Workload::DeviceP2p, stripes: 4, recover: true, ..cell.clone() };
        assert_eq!(p2p.point("pe_stall@mpi"), "pe:pe_stall@mpi");
        let shmem = Cell { mechanism: CopyMechanism::Shmem, ..cell };
        assert_eq!(shmem.point("link_drop@net"), "shmem:link_drop@net");
        // The shaped specs validate and genuinely differ from uniform:
        // ragged alternates 4/2 GPUs with 2/1 NICs, oversubscribed doubles
        // the rank count on the same shape.
        let ragged = TopologyShape::Ragged.cluster(4);
        assert_eq!(ragged.node_gpus, vec![4, 2, 4, 2]);
        assert_eq!(ragged.node_nics, vec![2, 1, 2, 1]);
        let rt = ragged.topology().expect("ragged validates");
        let ot = TopologyShape::Oversubscribed.cluster(4).topology().expect("oversub validates");
        assert_eq!(ot.num_ranks(), 2 * rt.num_ranks());
        assert_eq!(TopologyShape::Uniform.cluster(2).render(), "2x4x4");
        assert_eq!(TopologyShape::Oversubscribed.cluster(2).render(), "4,2:2,1@2");
    }

    #[test]
    fn multiplexed_synthesis_scales_windows_to_the_moe_horizon() {
        // The 64-channel MoE cell runs ~4.8 ms of virtual time with the
        // pready drain at the end; a classic 20–150 µs stall window would
        // expire before the multiplexed traffic exists.
        let horizon = 75.0 * 64.0;
        let cell = Cell { workload: Workload::Moe { channels: 64 }, ..Cell::allreduce(2) };
        for seed in 0..16u64 {
            let mut rng = SimRng::seeded(seed);
            let plan = synthesize(&[FaultClass::PeStall], &mut rng, &cell);
            let (_, f) = plan.pe.first().expect("stall entry");
            assert!(f.stall_at_us + f.stall_us >= 0.9 * horizon, "stall must reach the drain");
            let mut rng = SimRng::seeded(seed);
            let plan = synthesize(&[FaultClass::NicOutage], &mut rng, &cell);
            let outage = &plan.net.as_ref().expect("net faults").nic_outages[0];
            assert!(outage.until_us - outage.from_us >= 0.4 * horizon, "outage spans the run");
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller_and_valid() {
        let plan = synthesize(
            &[FaultClass::LinkDrop, FaultClass::PeCrash, FaultClass::FlagLoss],
            &mut SimRng::seeded(3),
            &Cell::allreduce(2),
        );
        let candidates = ShrinkPlan(plan.clone()).shrink();
        assert!(!candidates.is_empty());
        for ShrinkPlan(c) in &candidates {
            assert_ne!(c, &plan, "candidates must differ from the input");
            assert!(
                coverage_points(c).len() < coverage_points(&plan).len()
                    || classes_of(c).len() < classes_of(&plan).len()
                    || c.net.is_none() && plan.net.is_some(),
                "candidate did not remove anything: {c:?}"
            );
            c.validate().expect("shrunk plans stay valid");
        }
        // A fully-shrunk plan bottoms out at watchdog-only.
        let empty = FaultPlan::none().with_watchdog(1e6);
        assert!(ShrinkPlan(empty).shrink().is_empty(), "nothing left to shrink");
    }

    /// The campaign cell at each recovery setting, mechanism and workload.
    fn cell(recover: bool, mechanism: CopyMechanism, workload: Workload) -> Cell {
        Cell { workload, mechanism, recover, ..Cell::allreduce(2) }
    }

    #[test]
    fn expectation_classifies_recoverability() {
        const PE: CopyMechanism = CopyMechanism::ProgressionEngine;
        let classic = |recover| cell(recover, PE, Workload::Allreduce);
        let loss = FaultPlan::none().with_lost_flag_writes(1, 3).with_watchdog(1e6);
        assert_eq!(expectation_at(&loss, &classic(true)), Expectation::TypedFailure);
        // On the multiplexed axis the MoE cell's plain partitioned
        // channels replay host-side, so an armed ladder recovers a lost
        // flag write; without the ladder it is still a typed failure.
        let moe = |recover| cell(recover, PE, Workload::Moe { channels: 64 });
        assert_eq!(expectation_at(&loss, &moe(true)), Expectation::Recover);
        assert_eq!(expectation_at(&loss, &moe(false)), Expectation::TypedFailure);
        let crash = FaultPlan::none().with_pe_crash(1, 300.0).with_watchdog(1e6);
        assert_eq!(expectation_at(&crash, &classic(true)), Expectation::Recover);
        assert_eq!(expectation_at(&crash, &classic(false)), Expectation::TypedFailure);
        let drops = FaultPlan::none().with_link_faults(0.2, 0.0, 10.0).with_watchdog(1e6);
        assert_eq!(expectation_at(&drops, &classic(true)), Expectation::Recover);
        let mut rails = FaultPlan::none().with_watchdog(1e6);
        for nic in 0..4u8 {
            rails = rails.with_nic_outage(0, nic, 600.0, 9_000.0).expect("window");
        }
        assert_eq!(expectation_at(&rails, &classic(true)), Expectation::Recover);
        assert_eq!(expectation_at(&rails, &classic(false)), Expectation::TypedFailure);
    }

    #[test]
    fn mechanism_axis_shapes_targets_and_expectations() {
        // Shmem-signal faults need symmetric-heap channels: under the
        // classic protocols the classes are inert, so a loss plan is
        // expected to (trivially) recover; under Shmem a loss without the
        // escalation ladder is a typed failure.
        let loss = FaultPlan::none().with_lost_shmem_signals(0, 1).with_watchdog(1e6);
        assert_eq!(classes_of(&loss), vec![FaultClass::ShmemSignalLoss]);
        let pe = cell(false, CopyMechanism::ProgressionEngine, Workload::Allreduce);
        let inert = expectation_at(&loss, &pe);
        assert_eq!(inert, Expectation::Recover, "inert under the classic protocol");
        let shmem = |recover| cell(recover, CopyMechanism::Shmem, Workload::Allreduce);
        assert_eq!(expectation_at(&loss, &shmem(false)), Expectation::TypedFailure);
        assert_eq!(expectation_at(&loss, &shmem(true)), Expectation::Recover);

        // Signal plans observe the device p2p epoch; everything else keeps
        // the campaign cell's workload and the requested stripe count.
        let cfg = CoverageCampaignConfig { cell: shmem(true), ..CoverageCampaignConfig::guided(1) };
        assert_eq!(cfg.cell_for(&loss, 1).workload, Workload::DeviceP2p);
        let drops = FaultPlan::none().with_link_faults(0.2, 0.0, 10.0);
        assert_eq!(cfg.cell_for(&drops, 4), Cell { stripes: 4, ..shmem(true) });

        // The PE target list carries the flag-write classes and no shmem
        // classes; the shmem list swaps them.
        let pe_targets = targets(CopyMechanism::ProgressionEngine, 1);
        assert!(pe_targets.iter().any(|(k, _)| k == "flag_loss@gpu"));
        assert!(!pe_targets.iter().any(|(k, _)| k.contains("shmem")));
        let shmem_targets = targets(CopyMechanism::Shmem, 1);
        assert!(shmem_targets.iter().any(|(k, _)| k == "shmem_loss@gpu"));
        assert!(shmem_targets.iter().any(|(k, _)| k == "shmem_delay+shmem_loss"));
        assert!(!shmem_targets.iter().any(|(k, _)| k.contains("flag_")));
    }

    #[test]
    fn channel_axis_shapes_targets() {
        // The MoE cell is GPU-initiated under every mechanism, so the
        // flag classes survive onto the multiplexed axis (except under
        // shmem — same roulette rule as the classic axis). The all-rails
        // outage is classic-axis-only (admission-handshake overlap).
        let pe = targets(CopyMechanism::ProgressionEngine, 64);
        assert!(pe.iter().any(|(k, _)| k == "flag_loss@gpu"));
        assert!(!pe.iter().any(|(k, _)| k.contains("multi_nic_outage")));
        assert!(pe.iter().any(|(k, _)| k == "pe_stall@mpi"));
        assert!(pe.iter().any(|(k, _)| k == "nic_outage@net"));
        let shmem = targets(CopyMechanism::Shmem, 64);
        assert!(shmem.iter().any(|(k, _)| k == "shmem_loss@gpu"));
        assert!(!shmem.iter().any(|(k, _)| k.contains("flag_")));
    }

    #[test]
    fn multiplexing_on_a_shaped_world_is_a_typed_error() {
        // The MoE cell sizes its tenants for the uniform testbed; a shaped
        // world would run that cell and mislabel its points.
        let mut cfg = CoverageCampaignConfig::guided(4);
        cfg.cell.workload = Workload::for_channels(64);
        cfg.cell.shape = TopologyShape::Ragged;
        assert!(matches!(
            run_coverage_campaign(&cfg, 1, None),
            Err(CampaignError::ShapedMultiplexing { channels: 64, shape: TopologyShape::Ragged })
        ));
        cfg.cell.workload = Workload::for_channels(0);
        assert!(matches!(cfg.validate(), Err(CampaignError::NoChannels)));
        // One channel is the classic allreduce, defined on every shape.
        cfg.cell.workload = Workload::for_channels(1);
        assert_eq!(cfg.cell.workload, Workload::Allreduce);
        assert!(cfg.validate().is_ok());
        // The grid's chaos plans pick an outage NIC among the uniform
        // testbed's four, which node 0 of the ragged shape does not have.
        let grid =
            CoverageCampaignConfig { corpus: CoverageCampaignConfig::grid(true).corpus, ..cfg };
        assert!(matches!(
            run_coverage_campaign(&grid, 1, None),
            Err(CampaignError::ShapedGrid { shape: TopologyShape::Ragged })
        ));
    }

    #[test]
    fn artifacts_replay_on_their_stripes_and_topology() {
        let cfg = CoverageCampaignConfig::guided(0);
        let plan = FaultPlan::chaos(0x5EED, 0.4).expect("rate in range");
        // A bare plan runs single-path on the campaign cell.
        let (cell, replayed) = cfg.replay(&plan.to_json()).expect("bare plan");
        assert_eq!((cell, &replayed), (Cell { stripes: 1, ..cfg.cell.clone() }, &plan));
        // An artifact runs where it was minimized, whatever the campaign
        // cell's own shape.
        let found = Cell { shape: TopologyShape::Ragged, stripes: 4, ..cfg.cell.clone() };
        let artifact = MinimizedFailure {
            target: "chaos(0x5eed,0.4)".to_string(),
            cell: found.clone(),
            minimal_plan: plan.clone(),
            reason: "unrecovered".to_string(),
            shrink_steps: 2,
        };
        let doc = parcomm_obs::json::parse(&artifact.to_json_string()).expect("artifact is JSON");
        let (cell, replayed) = cfg.replay(&doc).expect("artifact");
        assert_eq!((&cell, &replayed), (&found, &plan));
        assert_eq!(cell.run(cfg.sim_seed, &plan).digest, found.run(cfg.sim_seed, &plan).digest);
        // A shaped artifact cannot replay on the multiplexed cell.
        let moe = CoverageCampaignConfig {
            cell: Cell { workload: Workload::for_channels(64), ..cfg.cell.clone() },
            ..cfg.clone()
        };
        assert!(matches!(moe.replay(&doc), Err(CampaignError::ShapedMultiplexing { .. })));
        let bad = JsonValue::Object(vec![
            ("stripes".to_string(), JsonValue::Number(0.0)),
            ("plan".to_string(), plan.to_json()),
        ]);
        assert!(matches!(cfg.replay(&bad), Err(CampaignError::Plan(PlanError::Malformed(_)))));
    }

    #[test]
    fn outcome_round_trips_through_the_sink_encoding() {
        let outcome = CoverageOutcome {
            round: 3,
            target: "chaos(0x5eed,0.4)".to_string(),
            stripes: 4,
            plan: FaultPlan::chaos(0x5EED, 0.4).expect("rate in range"),
            expectation: Expectation::TypedFailure,
            digest: 0xdead_beef_dead_beef,
            end_time_us: 1234.5,
            perturbed: true,
            survived: true,
            replayed: true,
            numeric_ok: false,
        };
        assert_eq!(CoverageOutcome::from_json(&outcome.to_json()), Some(outcome.clone()));
        assert_eq!(outcome.violation(), Some("expected a typed failure but the run survived"));
        let line = outcome.render();
        assert!(
            line.contains("target=chaos(0x5eed,0.4)")
                && line.contains("stripes=4")
                && line.contains("end_us=1234.500")
                && line.contains("ok=false"),
            "{line}"
        );
    }

    #[test]
    fn grid_coverage_saturates_low() {
        // Every plan of the CI grid (8 seeds × rates {0.4, 0.9}) injects the
        // same class mix: whole-grid coverage is the same handful of points.
        let cfg = CoverageCampaignConfig::grid(false);
        let empty =
            CoverageReport { outcomes: Vec::new(), covered: BTreeSet::new(), failures: Vec::new() };
        let cells = batch(&cfg, 0, &empty, &[]);
        assert_eq!(cells.len(), 32);
        let grid: BTreeSet<String> = cells
            .iter()
            .flat_map(|(_, _, plan)| coverage_points(plan))
            .map(|p| cfg.cell.point(&p))
            .collect();
        assert!(grid.len() <= 6, "grid covers {} points: {grid:?}", grid.len());
    }

    #[test]
    fn grid_corpus_is_thread_count_invariant() {
        // Tiny grid (one seed, one gentle rate, both stripe counts) on one
        // node, on the PE allreduce and then on the mechanism and channel
        // axes; the full grid runs in `tests/chaos.rs` and CI.
        let mut cfg = CoverageCampaignConfig::grid(true);
        cfg.cell.nodes = 1;
        cfg.corpus = Corpus::Grid {
            base_fault_seed: 0x5EED,
            seeds: 1,
            rates: vec![0.4],
            stripes: vec![1, 4],
        };
        let pe = run_coverage_campaign(&cfg, 1, None).expect("valid grid");
        let parallel = run_coverage_campaign(&cfg, 4, None).expect("valid grid");
        assert_eq!(pe.render(), parallel.render());
        assert!(pe.outcomes.iter().all(CoverageOutcome::ok), "{}", pe.render());
        assert_eq!(pe.outcomes.iter().map(|o| o.stripes).collect::<Vec<_>>(), [1, 4]);
        // Every grid plan injects the same three network classes: three
        // singles and their three pairs, all on the cell's mechanism.
        assert_eq!(pe.covered.len(), 6, "{:?}", pe.covered);
        assert!(pe.covered.iter().all(|p| p.starts_with("pe:")));

        // The same grid over the symmetric heap (every channel of a
        // one-node world rides shmem) and on 64-channel multiplexed load:
        // the contract holds, and each axis moves the digest.
        for (cell, prefix) in [
            (Cell { mechanism: CopyMechanism::Shmem, ..cfg.cell.clone() }, "shmem:"),
            (Cell { workload: Workload::Moe { channels: 64 }, ..cfg.cell.clone() }, "c64:pe:"),
        ] {
            let axis = CoverageCampaignConfig { cell, ..cfg.clone() };
            let report = run_coverage_campaign(&axis, 2, None).expect("valid grid");
            assert!(report.outcomes.iter().all(CoverageOutcome::ok), "{}", report.render());
            assert!(report.covered.iter().all(|p| p.starts_with(prefix)), "{:?}", report.covered);
            assert_ne!(report.outcomes[0].digest, pe.outcomes[0].digest, "{prefix} axis");
        }
    }
}
