//! The [`FaultPlan`]: one seeded, declarative description of every fault a
//! run will experience, carried by [`WorldConfig::faults`] into the world.
//!
//! Plans round-trip through JSON (see [`FaultPlan::to_json_string`] /
//! [`FaultPlan::from_json_str`]) so a failing chaos cell can be minimized,
//! written under `results/`, and replayed bit-for-bit from the artifact.

use parcomm_gpu::EmissionFaultConfig;
use parcomm_net::{NetFaultConfig, NicOutage};
use parcomm_obs::json::{self, JsonValue};
use parcomm_sim::SimRng;

use crate::progress::PeFaultConfig;
#[cfg(doc)]
use crate::WorldConfig;

/// Typed rejection of a malformed [`FaultPlan`] before it reaches a world.
///
/// Construction-time validation keeps the chaos search space well-formed:
/// a plan that survives [`FaultPlan::validate`] can always be applied and
/// replayed; a plan that does not is a caller bug surfaced eagerly, never a
/// silently clamped or wedged run.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A probability or chaos rate outside `[0, 1]` (or NaN).
    RateOutOfRange {
        /// What was out of range (e.g. `"chaos rate"`, `"drop_prob"`).
        what: &'static str,
        /// The offending value.
        rate: f64,
    },
    /// A duration or instant that must be non-negative was negative or NaN.
    NegativeDuration {
        /// Which field was negative.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A NIC outage window with `until_us < from_us` covers nothing.
    EmptyWindow {
        /// Window start (µs).
        from_us: f64,
        /// Window end (µs), before the start.
        until_us: f64,
    },
    /// A JSON document that does not decode to a plan.
    Malformed(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::RateOutOfRange { what, rate } => {
                write!(f, "{what} {rate} outside [0, 1]")
            }
            PlanError::NegativeDuration { what, value } => {
                write!(f, "{what} must be non-negative, got {value}")
            }
            PlanError::EmptyWindow { from_us, until_us } => {
                write!(f, "outage window ends ({until_us}µs) before it starts ({from_us}µs)")
            }
            PlanError::Malformed(why) => write!(f, "malformed fault plan: {why}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A deterministic fault schedule for one simulated run.
///
/// Build one with [`FaultPlan::none`] (injects nothing, perturbs nothing),
/// [`FaultPlan::chaos`] (a seeded survivable mix), or the `with_*` builders
/// for a hand-placed fault; then set it as [`WorldConfig::faults`] before
/// constructing the `MpiWorld`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// Watchdog timeout (µs) armed on every blocking MPI wait, so
    /// unsurvivable faults surface as typed errors instead of hangs.
    pub watchdog_us: Option<f64>,
    /// Fabric faults: transient drops, latency spikes, NIC outages.
    pub net: Option<NetFaultConfig>,
    /// Per-rank progression-engine faults (stall windows, crash instants).
    pub pe: Vec<(usize, PeFaultConfig)>,
    /// Per-rank device flag-write (emission) faults.
    pub flags: Vec<(usize, EmissionFaultConfig)>,
    /// Per-rank device shmem-signal emission faults — only bite on channels
    /// that negotiated the symmetric-heap mechanism.
    pub shmem_signals: Vec<(usize, EmissionFaultConfig)>,
    /// Ranks whose symmetric-heap registration fails at world construction;
    /// channels binding toward them demote to the Progression Engine with a
    /// typed `ShmemError::RegistrationFailed`.
    pub shmem_heap_fail: Vec<usize>,
}

impl FaultPlan {
    /// The empty plan (the [`WorldConfig`] default): arms nothing, so the
    /// run's event stream, RNG draws, and trace digest are byte-identical
    /// to a run that never heard of fault injection.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A seeded *survivable* chaos mix scaled by `rate`: transient drops
    /// and latency spikes with probability proportional to `rate`, plus
    /// (above a threshold) one single-NIC down-window that routing
    /// re-stripes around. Injected faults degrade goodput, never integrity
    /// — survivable runs produce bit-identical numerics to the fault-free
    /// run.
    ///
    /// A `rate` outside `[0, 1]` (or NaN) is rejected with
    /// [`PlanError::RateOutOfRange`] rather than clamped, so sweep specs and
    /// JSON plans that drift out of the calibrated range fail loudly.
    ///
    /// A generous watchdog is armed as a safety net: if a "survivable" mix
    /// ever does wedge the run, the failure is a typed [`crate::MpiError`],
    /// not a hung test. All parameters derive from `seed` via a dedicated
    /// RNG: the same `(seed, rate)` always builds the identical plan.
    pub fn chaos(seed: u64, rate: f64) -> Result<Self, PlanError> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(PlanError::RateOutOfRange { what: "chaos rate", rate });
        }
        let mut rng = SimRng::seeded(seed ^ 0x00FA_017C_4A05);
        let mut net = NetFaultConfig {
            seed: rng.next_u64(),
            drop_prob: 0.4 * rate,
            retransmit_delay_us: 5.0,
            spike_prob: 0.5 * rate,
            spike_us: 10.0 + 40.0 * rng.uniform(),
            nic_outages: Vec::new(),
        };
        if rate >= 0.25 {
            // One NIC dark for a window; three sibling rails survive.
            let from_us = 50.0 + 400.0 * rng.uniform();
            net.nic_outages.push(NicOutage {
                node: 0,
                nic: (rng.uniform_range(0, 4)) as u8,
                from_us,
                until_us: from_us + 200.0 + 800.0 * rate * rng.uniform(),
            });
        }
        Ok(FaultPlan {
            seed,
            watchdog_us: Some(5_000_000.0),
            net: Some(net),
            ..FaultPlan::default()
        })
    }

    /// Arm the blocking-wait watchdog at `timeout_us` virtual microseconds.
    pub fn with_watchdog(mut self, timeout_us: f64) -> Self {
        self.watchdog_us = Some(timeout_us);
        self
    }

    /// Add transient link faults: per-attempt drop probability and
    /// per-transfer latency-spike probability/magnitude.
    pub fn with_link_faults(mut self, drop_prob: f64, spike_prob: f64, spike_us: f64) -> Self {
        let net = self.net_mut();
        net.drop_prob = drop_prob;
        net.spike_prob = spike_prob;
        net.spike_us = spike_us;
        self
    }

    /// Add a NIC down-window: `(node, nic)` is unusable for transfers
    /// starting in `[from_us, until_us)`. `until_us` may be
    /// `f64::INFINITY` for a permanent outage; a window that starts at a
    /// negative or NaN instant, or ends before it starts, is rejected with
    /// a typed [`PlanError`].
    pub fn with_nic_outage(
        mut self,
        node: u16,
        nic: u8,
        from_us: f64,
        until_us: f64,
    ) -> Result<Self, PlanError> {
        let outage = NicOutage { node, nic, from_us, until_us };
        check_outage(&outage)?;
        self.net_mut().nic_outages.push(outage);
        Ok(self)
    }

    /// The net fault config, created (seeded from the plan) if absent.
    fn net_mut(&mut self) -> &mut NetFaultConfig {
        let seed = self.seed;
        self.net.get_or_insert_with(|| NetFaultConfig { seed, ..NetFaultConfig::default() })
    }

    /// Stall `rank`'s progression engine for `stall_us` once the virtual
    /// clock reaches `at_us` (survivable: deferred puts catch up).
    pub fn with_pe_stall(mut self, rank: usize, at_us: f64, stall_us: f64) -> Self {
        let f = entry_of(&mut self.pe, rank);
        f.stall_at_us = at_us;
        f.stall_us = stall_us;
        self
    }

    /// Crash `rank`'s progression engine at `at_us` (unsurvivable for PE
    /// channels unless recovery is armed: without it, arm a watchdog to get
    /// `MpiError::ProgressionHalted`; with `WorldConfig::recover` set, the
    /// host lease-detects the dead engine and drains its queue).
    pub fn with_pe_crash(mut self, rank: usize, at_us: f64) -> Self {
        let f = entry_of(&mut self.pe, rank);
        f.crash_at_us = Some(at_us);
        self
    }

    /// Delay every `every`-th device flag-write emission on `rank` by
    /// `delay_us` (survivable: the progression engine sees it late).
    pub fn with_delayed_flag_writes(mut self, rank: usize, every: u64, delay_us: f64) -> Self {
        let f = entry_of(&mut self.flags, rank);
        f.delay_every = every;
        f.delay_us = delay_us;
        self
    }

    /// Lose every `every`-th device flag-write emission on `rank` entirely
    /// (unsurvivable: arm a watchdog to get a typed timeout).
    pub fn with_lost_flag_writes(mut self, rank: usize, every: u64) -> Self {
        let f = entry_of(&mut self.flags, rank);
        f.lose_every = every;
        self
    }

    /// Delay every `every`-th device shmem-signal emission on `rank` by
    /// `delay_us` (survivable: the receiver's notifier fires late). Inert
    /// unless the rank's channels negotiated the symmetric-heap mechanism.
    pub fn with_delayed_shmem_signals(mut self, rank: usize, every: u64, delay_us: f64) -> Self {
        let f = entry_of(&mut self.shmem_signals, rank);
        f.delay_every = every;
        f.delay_us = delay_us;
        self
    }

    /// Lose every `every`-th device shmem-signal emission on `rank`
    /// entirely (recoverable when the escalation ladder is armed: the put
    /// is replayed host-side on the next epoch retry; otherwise arm a
    /// watchdog to get a typed timeout).
    pub fn with_lost_shmem_signals(mut self, rank: usize, every: u64) -> Self {
        let f = entry_of(&mut self.shmem_signals, rank);
        f.lose_every = every;
        self
    }

    /// Fail `rank`'s symmetric-heap registration at world construction:
    /// every shmem negotiation touching that rank demotes to the
    /// Progression Engine with a typed denial (survivable by design).
    pub fn with_shmem_heap_failure(mut self, rank: usize) -> Self {
        if !self.shmem_heap_fail.contains(&rank) {
            self.shmem_heap_fail.push(rank);
        }
        self
    }

    /// Check every probability, duration, and window in the plan.
    ///
    /// Hand-built and JSON-decoded plans go through the same gate the
    /// builders enforce: probabilities in `[0, 1]`, durations non-negative
    /// (`f64::INFINITY` is a legal `until_us`), outage windows ordered.
    pub fn validate(&self) -> Result<(), PlanError> {
        fn prob(what: &'static str, v: f64) -> Result<(), PlanError> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(PlanError::RateOutOfRange { what, rate: v })
            }
        }
        if let Some(w) = self.watchdog_us {
            nonneg("watchdog_us", w)?;
        }
        if let Some(net) = &self.net {
            prob("drop_prob", net.drop_prob)?;
            prob("spike_prob", net.spike_prob)?;
            nonneg("retransmit_delay_us", net.retransmit_delay_us)?;
            nonneg("spike_us", net.spike_us)?;
            for o in &net.nic_outages {
                check_outage(o)?;
            }
        }
        for (_, f) in &self.pe {
            nonneg("pe stall_at_us", f.stall_at_us)?;
            nonneg("pe stall_us", f.stall_us)?;
            if let Some(c) = f.crash_at_us {
                nonneg("pe crash_at_us", c)?;
            }
        }
        for (_, f) in &self.flags {
            nonneg("flag delay_us", f.delay_us)?;
        }
        for (_, f) in &self.shmem_signals {
            nonneg("shmem signal delay_us", f.delay_us)?;
        }
        Ok(())
    }

    /// Encode the plan as a [`JsonValue`] tree.
    ///
    /// `u64` fields (seeds, every-N counters) are hex strings — JSON
    /// numbers are `f64` and cannot carry a full 64-bit seed exactly —
    /// and non-finite durations encode as the string `"inf"`.
    pub fn to_json(&self) -> JsonValue {
        let mut root: Vec<(String, JsonValue)> =
            vec![("seed".into(), hex_to_json(self.seed))];
        if let Some(w) = self.watchdog_us {
            root.push(("watchdog_us".into(), dur_to_json(w)));
        }
        if let Some(net) = &self.net {
            let outages: Vec<JsonValue> = net
                .nic_outages
                .iter()
                .map(|o| {
                    JsonValue::Object(vec![
                        ("node".into(), JsonValue::Number(o.node as f64)),
                        ("nic".into(), JsonValue::Number(o.nic as f64)),
                        ("from_us".into(), dur_to_json(o.from_us)),
                        ("until_us".into(), dur_to_json(o.until_us)),
                    ])
                })
                .collect();
            root.push((
                "net".into(),
                JsonValue::Object(vec![
                    ("seed".into(), hex_to_json(net.seed)),
                    ("drop_prob".into(), JsonValue::Number(net.drop_prob)),
                    ("retransmit_delay_us".into(), JsonValue::Number(net.retransmit_delay_us)),
                    ("spike_prob".into(), JsonValue::Number(net.spike_prob)),
                    ("spike_us".into(), JsonValue::Number(net.spike_us)),
                    ("nic_outages".into(), JsonValue::Array(outages)),
                ]),
            ));
        }
        if !self.pe.is_empty() {
            let pe: Vec<JsonValue> = self
                .pe
                .iter()
                .map(|(rank, f)| {
                    let mut m = vec![
                        ("rank".into(), JsonValue::Number(*rank as f64)),
                        ("stall_at_us".into(), dur_to_json(f.stall_at_us)),
                        ("stall_us".into(), dur_to_json(f.stall_us)),
                    ];
                    if let Some(c) = f.crash_at_us {
                        m.push(("crash_at_us".into(), dur_to_json(c)));
                    }
                    JsonValue::Object(m)
                })
                .collect();
            root.push(("pe".into(), JsonValue::Array(pe)));
        }
        for (key, entries) in [("flags", &self.flags), ("shmem_signals", &self.shmem_signals)] {
            if !entries.is_empty() {
                root.push((key.into(), emissions_to_json(entries)));
            }
        }
        if !self.shmem_heap_fail.is_empty() {
            let ranks: Vec<JsonValue> = self
                .shmem_heap_fail
                .iter()
                .map(|r| JsonValue::Number(*r as f64))
                .collect();
            root.push(("shmem_heap_fail".into(), JsonValue::Array(ranks)));
        }
        JsonValue::Object(root)
    }

    /// Render the plan as a JSON string (see [`FaultPlan::to_json`]).
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Decode a plan from a [`JsonValue`] tree and [`FaultPlan::validate`] it.
    pub fn from_json(v: &JsonValue) -> Result<Self, PlanError> {
        let mut plan = FaultPlan {
            seed: hex_from_json(req(v, "seed")?, "seed")?,
            ..FaultPlan::default()
        };
        if let Some(w) = v.get("watchdog_us") {
            plan.watchdog_us = Some(dur_from_json(w, "watchdog_us")?);
        }
        if let Some(net) = v.get("net") {
            let mut cfg = NetFaultConfig {
                seed: hex_from_json(req(net, "seed")?, "net.seed")?,
                drop_prob: num_from_json(req(net, "drop_prob")?, "net.drop_prob")?,
                retransmit_delay_us: num_from_json(
                    req(net, "retransmit_delay_us")?,
                    "net.retransmit_delay_us",
                )?,
                spike_prob: num_from_json(req(net, "spike_prob")?, "net.spike_prob")?,
                spike_us: num_from_json(req(net, "spike_us")?, "net.spike_us")?,
                nic_outages: Vec::new(),
            };
            let outages = req(net, "nic_outages")?
                .as_array()
                .ok_or_else(|| PlanError::Malformed("net.nic_outages is not an array".into()))?;
            for o in outages {
                cfg.nic_outages.push(NicOutage {
                    node: num_from_json(req(o, "node")?, "outage.node")? as u16,
                    nic: num_from_json(req(o, "nic")?, "outage.nic")? as u8,
                    from_us: dur_from_json(req(o, "from_us")?, "outage.from_us")?,
                    until_us: dur_from_json(req(o, "until_us")?, "outage.until_us")?,
                });
            }
            plan.net = Some(cfg);
        }
        for e in list_at(v, "pe")? {
            let mut f = PeFaultConfig {
                stall_at_us: dur_from_json(req(e, "stall_at_us")?, "pe.stall_at_us")?,
                stall_us: dur_from_json(req(e, "stall_us")?, "pe.stall_us")?,
                crash_at_us: None,
            };
            if let Some(c) = e.get("crash_at_us") {
                f.crash_at_us = Some(dur_from_json(c, "pe.crash_at_us")?);
            }
            let rank = num_from_json(req(e, "rank")?, "pe.rank")? as usize;
            plan.pe.push((rank, f));
        }
        plan.flags = emissions_from_json(v, "flags")?;
        plan.shmem_signals = emissions_from_json(v, "shmem_signals")?;
        for r in list_at(v, "shmem_heap_fail")? {
            plan.shmem_heap_fail.push(num_from_json(r, "shmem_heap_fail rank")? as usize);
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Parse a plan from a JSON string and [`FaultPlan::validate`] it.
    pub fn from_json_str(s: &str) -> Result<Self, PlanError> {
        let v = json::parse(s)
            .map_err(|e| PlanError::Malformed(e.to_string()))?;
        FaultPlan::from_json(&v)
    }
}

fn nonneg(what: &'static str, v: f64) -> Result<(), PlanError> {
    if v >= 0.0 {
        Ok(())
    } else {
        Err(PlanError::NegativeDuration { what, value: v })
    }
}

/// An outage window must start at a non-negative instant and end no
/// earlier (`f64::INFINITY` is a legal end).
fn check_outage(o: &NicOutage) -> Result<(), PlanError> {
    nonneg("nic outage from_us", o.from_us)?;
    if o.until_us.is_nan() {
        return Err(PlanError::NegativeDuration { what: "nic outage until_us", value: o.until_us });
    }
    if o.until_us < o.from_us {
        return Err(PlanError::EmptyWindow { from_us: o.from_us, until_us: o.until_us });
    }
    Ok(())
}

/// `rank`'s entry in a per-rank fault list, if it has one.
pub(crate) fn rank_entry<T>(entries: &[(usize, T)], rank: usize) -> Option<&T> {
    entries.iter().find(|(r, _)| *r == rank).map(|(_, f)| f)
}

/// `rank`'s entry in a per-rank fault list, created at its default if
/// absent, so builders for the same rank merge onto one entry.
fn entry_of<T: Default>(entries: &mut Vec<(usize, T)>, rank: usize) -> &mut T {
    let i = match entries.iter().position(|(r, _)| *r == rank) {
        Some(i) => i,
        None => {
            entries.push((rank, T::default()));
            entries.len() - 1
        }
    };
    &mut entries[i].1
}

/// Encode a per-rank emission fault list.
fn emissions_to_json(entries: &[(usize, EmissionFaultConfig)]) -> JsonValue {
    let entries = entries.iter().map(|(rank, f)| {
        JsonValue::Object(vec![
            ("rank".into(), JsonValue::Number(*rank as f64)),
            ("delay_every".into(), hex_to_json(f.delay_every)),
            ("delay_us".into(), dur_to_json(f.delay_us)),
            ("lose_every".into(), hex_to_json(f.lose_every)),
        ])
    });
    JsonValue::Array(entries.collect())
}

/// Decode the per-rank emission fault list under `key` (empty if absent).
fn emissions_from_json(
    v: &JsonValue,
    key: &str,
) -> Result<Vec<(usize, EmissionFaultConfig)>, PlanError> {
    let what = |field: &str| format!("{key}.{field}");
    list_at(v, key)?
        .iter()
        .map(|e| {
            let f = EmissionFaultConfig {
                delay_every: hex_from_json(req(e, "delay_every")?, &what("delay_every"))?,
                delay_us: dur_from_json(req(e, "delay_us")?, &what("delay_us"))?,
                lose_every: hex_from_json(req(e, "lose_every")?, &what("lose_every"))?,
            };
            Ok((num_from_json(req(e, "rank")?, &what("rank"))? as usize, f))
        })
        .collect()
}

/// The optional list under `key` (empty if absent).
fn list_at<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], PlanError> {
    let Some(list) = v.get(key) else { return Ok(&[]) };
    list.as_array().ok_or_else(|| PlanError::Malformed(format!("{key} is not an array")))
}

fn req<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, PlanError> {
    v.get(key)
        .ok_or_else(|| PlanError::Malformed(format!("missing field `{key}`")))
}

fn hex_to_json(v: u64) -> JsonValue {
    JsonValue::String(format!("{v:x}"))
}

fn hex_from_json(v: &JsonValue, what: &str) -> Result<u64, PlanError> {
    v.as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| PlanError::Malformed(format!("{what}: expected hex string")))
}

fn num_from_json(v: &JsonValue, what: &str) -> Result<f64, PlanError> {
    v.as_f64()
        .ok_or_else(|| PlanError::Malformed(format!("{what}: expected number")))
}

fn dur_to_json(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::Number(v)
    } else {
        JsonValue::String("inf".into())
    }
}

fn dur_from_json(v: &JsonValue, what: &str) -> Result<f64, PlanError> {
    if let Some(n) = v.as_f64() {
        return Ok(n);
    }
    if v.as_str() == Some("inf") {
        return Ok(f64::INFINITY);
    }
    Err(PlanError::Malformed(format!("{what}: expected number or \"inf\"")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_default_is_the_inert_plan() {
        assert_eq!(crate::WorldConfig::gh200(2).faults, FaultPlan::none());
    }

    #[test]
    fn chaos_is_seed_deterministic() {
        let a = FaultPlan::chaos(42, 0.5).expect("rate in range");
        let b = FaultPlan::chaos(42, 0.5).expect("rate in range");
        assert_eq!(a, b);
        let c = FaultPlan::chaos(43, 0.5).expect("rate in range");
        assert_ne!(a, c, "different seed => different plan");
        assert_ne!(a, FaultPlan::none());
    }

    #[test]
    fn chaos_scales_with_rate() {
        let quiet = FaultPlan::chaos(7, 0.0).expect("rate in range");
        let loud = FaultPlan::chaos(7, 1.0).expect("rate in range");
        let (q, l) = (quiet.net.expect("net"), loud.net.expect("net"));
        assert_eq!(q.drop_prob, 0.0);
        assert!(l.drop_prob > 0.0);
        assert!(q.nic_outages.is_empty(), "low rate: no outage");
        assert_eq!(l.nic_outages.len(), 1, "high rate: one down-window");
    }

    #[test]
    fn chaos_rejects_out_of_range_rate() {
        assert!(matches!(
            FaultPlan::chaos(1, -0.1),
            Err(PlanError::RateOutOfRange { .. })
        ));
        assert!(matches!(
            FaultPlan::chaos(1, 1.5),
            Err(PlanError::RateOutOfRange { .. })
        ));
        assert!(matches!(
            FaultPlan::chaos(1, f64::NAN),
            Err(PlanError::RateOutOfRange { .. })
        ));
    }

    #[test]
    fn nic_outage_rejects_bad_windows() {
        assert!(matches!(
            FaultPlan::none().with_nic_outage(0, 0, -5.0, 10.0),
            Err(PlanError::NegativeDuration { .. })
        ));
        assert!(matches!(
            FaultPlan::none().with_nic_outage(0, 0, 10.0, 5.0),
            Err(PlanError::EmptyWindow { .. })
        ));
        assert!(matches!(
            FaultPlan::none().with_nic_outage(0, 0, 0.0, f64::NAN),
            Err(PlanError::NegativeDuration { .. })
        ));
        // A permanent outage is legal.
        let p = FaultPlan::none()
            .with_nic_outage(0, 0, 0.0, f64::INFINITY)
            .expect("infinite window is valid");
        p.validate().expect("plan validates");
    }

    #[test]
    fn validate_catches_hand_built_badness() {
        let mut plan = FaultPlan::none().with_link_faults(1.5, 0.0, 10.0);
        assert!(matches!(plan.validate(), Err(PlanError::RateOutOfRange { .. })));
        plan = FaultPlan::none().with_pe_stall(0, -1.0, 10.0);
        assert!(matches!(plan.validate(), Err(PlanError::NegativeDuration { .. })));
        plan = FaultPlan::chaos(9, 0.6).expect("rate in range");
        plan.validate().expect("chaos plans validate");
    }

    #[test]
    fn builders_accumulate_per_rank() {
        let plan = FaultPlan::none()
            .with_pe_stall(1, 100.0, 50.0)
            .with_pe_crash(1, 400.0)
            .with_lost_flag_writes(2, 3)
            .with_delayed_flag_writes(2, 5, 30.0)
            .with_nic_outage(0, 1, 10.0, 20.0)
            .expect("valid window")
            .with_watchdog(1e6);
        assert_eq!(plan.pe.len(), 1, "stall and crash merge onto rank 1");
        assert_eq!(plan.pe[0].1.crash_at_us, Some(400.0));
        assert_eq!(plan.pe[0].1.stall_us, 50.0);
        assert_eq!(plan.flags.len(), 1);
        assert_eq!(plan.flags[0].1.lose_every, 3);
        assert_eq!(plan.flags[0].1.delay_every, 5);
        assert_eq!(plan.watchdog_us, Some(1e6));
        assert_eq!(plan.net.expect("net").nic_outages.len(), 1);
    }

    #[test]
    fn json_round_trip_preserves_plan() {
        let plan = FaultPlan::chaos(0xDEAD_BEEF_CAFE_F00D, 0.7)
            .expect("rate in range")
            .with_pe_stall(1, 100.0, 50.0)
            .with_pe_crash(2, 400.0)
            .with_delayed_flag_writes(3, 5, 30.0)
            .with_lost_flag_writes(4, 7)
            .with_delayed_shmem_signals(5, 2, 45.0)
            .with_lost_shmem_signals(6, 9)
            .with_shmem_heap_failure(7)
            .with_nic_outage(1, 2, 25.0, f64::INFINITY)
            .expect("valid window");
        let text = plan.to_json_string();
        let back = FaultPlan::from_json_str(&text).expect("round-trip decodes");
        assert_eq!(plan, back, "JSON round-trip is lossless");
        // u64 seeds survive exactly even above 2^53.
        assert_eq!(back.seed, 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn shmem_builders_accumulate() {
        let plan = FaultPlan::none()
            .with_delayed_shmem_signals(1, 3, 25.0)
            .with_lost_shmem_signals(1, 4)
            .with_shmem_heap_failure(2)
            .with_shmem_heap_failure(2); // idempotent
        assert_eq!(plan.shmem_signals.len(), 1, "delay and loss merge onto rank 1");
        assert_eq!(plan.shmem_signals[0].1.delay_every, 3);
        assert_eq!(plan.shmem_signals[0].1.lose_every, 4);
        assert_eq!(plan.shmem_heap_fail, vec![2]);
        assert_ne!(plan, FaultPlan::none());
        plan.validate().expect("shmem plan validates");
        // A negative shmem delay is caught like every other duration.
        let bad = FaultPlan::none().with_delayed_shmem_signals(0, 1, -4.0);
        assert!(matches!(bad.validate(), Err(PlanError::NegativeDuration { .. })));
    }

    #[test]
    fn from_json_rejects_invalid_plans() {
        assert!(matches!(
            FaultPlan::from_json_str("{"),
            Err(PlanError::Malformed(_))
        ));
        assert!(matches!(
            FaultPlan::from_json_str("{\"watchdog_us\": 1.0}"),
            Err(PlanError::Malformed(_)),
        ));
        // Decodes structurally but fails validation: drop_prob > 1.
        let bad = "{\"seed\": \"0\", \"net\": {\"seed\": \"0\", \"drop_prob\": 2.0, \
                   \"retransmit_delay_us\": 5.0, \"spike_prob\": 0.0, \"spike_us\": 0.0, \
                   \"nic_outages\": []}}";
        assert!(matches!(
            FaultPlan::from_json_str(bad),
            Err(PlanError::RateOutOfRange { .. })
        ));
    }
}
