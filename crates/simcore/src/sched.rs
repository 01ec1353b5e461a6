//! The discrete-event scheduler.
//!
//! ## Execution model
//!
//! The simulation is *process-oriented* (SimGrid / SimPy style): user code is
//! written as ordinary blocking Rust running in **simulation processes**, each
//! backed by its own OS thread, while fine-grained hardware actions (DMA
//! completions, flag writes) are **scheduled callbacks**.
//!
//! At any wall-clock instant exactly one thread holds the *baton*, and only
//! the baton holder runs the event loop ([`dispatch`]). A process that yields
//! keeps the baton: it queues its own resume (or registers as a waiter), then
//! pops queue items itself and runs callbacks inline, on its own thread. When
//! it pops a resume for another process it posts that process's one-slot
//! wake and sleeps on its own; when it pops its own resume it returns with no
//! thread switch at all. [`Simulation::run`] only starts the baton and waits
//! for whichever thread ends the run to report the outcome.
//!
//! Virtual time only advances inside `dispatch`, between process steps, and
//! the queue pops in `(time, seq)` order whichever thread runs it. That makes
//! the simulation deterministic: a given program + seed always produces the
//! identical event trace.
//!
//! ## Shutdown semantics
//!
//! Processes are either *regular* or *daemon*. The simulation completes when
//! every regular process has finished. Daemons (progression engines, pollers)
//! are then woken one final time, in pid order, with the global shutdown flag
//! set so that their `while !ctx.is_shutdown()` loops can exit cleanly.
//!
//! ## Deadlock detection
//!
//! If no timed work remains but regular processes are still blocked, the
//! scheduler aborts with a diagnostic listing every blocked process by name —
//! turning would-be hangs into test failures. A failed run wakes every
//! parked process with a teardown token, so its thread unwinds and is joined
//! before [`Simulation::run`] returns.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

use crate::lock::Mutex;

use crate::error::{BlockedProcess, SimError};
use crate::event::Event;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Identifier of a simulation process (dense, assigned at spawn).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProcessId(pub(crate) u64);

impl ProcessId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A callback scheduled to run at a virtual instant, on whichever thread
/// holds the baton when its time comes (hence `Send`).
pub type Callback = Box<dyn FnOnce(&SimHandle) + Send + 'static>;

/// What an entry in the event queue does when its time arrives.
enum QueueItem {
    /// Resume process `pid` if it is still parked with the given epoch.
    /// Stale epochs (the process was woken earlier by an event) are ignored.
    Resume { pid: ProcessId, epoch: u64 },
    /// Run a closure on the baton holder's thread.
    Callback(Callback),
}

/// A one-value rendezvous: [`post`](Slot::post) fills it and
/// [`take`](Slot::take) sleeps until it is full, then empties it. A post
/// that lands before the taker sleeps is kept, so no wake is ever lost.
pub(crate) struct Slot<T> {
    value: Mutex<Option<T>>,
    filled: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot { value: Mutex::new(None), filled: Condvar::new() }
    }

    fn post(&self, value: T) {
        *self.value.lock() = Some(value);
        self.filled.notify_one();
    }

    pub(crate) fn take(&self) -> T {
        let mut guard = self.value.lock();
        loop {
            if let Some(value) = guard.take() {
                return value;
            }
            guard = self.filled.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// The token a parked process thread wakes up with.
pub(crate) enum Wake {
    /// Run: this process now holds the baton.
    Run,
    /// The run is over and this process never finished: unwind and exit.
    Teardown,
}

/// How a run ended, posted by whichever thread ended it.
enum Outcome {
    Finished,
    Failed(SimError),
    /// A scheduled callback panicked; `run` re-raises the payload.
    CallbackPanic(Box<dyn Any + Send>),
}

/// What [`dispatch`] did with the baton.
pub(crate) enum Baton {
    /// Popped the caller's own resume: carry on, no thread switch.
    Kept,
    /// Woke another process, or ended the run: the caller must sleep.
    Passed,
}

struct ProcRecord {
    name: String,
    daemon: bool,
    wake: Arc<Slot<Wake>>,
    /// Bumped every time the process parks; used to discard stale timed wakes.
    park_epoch: u64,
    parked: bool,
    finished: bool,
    done: Event,
    join: Option<JoinHandle<()>>,
    /// Description of the primitive the process is currently blocked on
    /// (set by `Ctx` wait methods); surfaced in deadlock diagnostics.
    waiting_on: Option<String>,
}

/// Shared scheduler state. Lives behind `Arc` in [`SimHandle`] and `Ctx`.
pub(crate) struct SchedCore {
    pub(crate) state: Mutex<SchedState>,
    /// Global shutdown flag: set once all regular processes have finished.
    shutdown: AtomicBool,
    /// Filled once, by the thread that ends the run; `run` waits on it.
    outcome: Slot<Outcome>,
    /// Span tracing (disabled by default).
    pub(crate) trace: Trace,
}

pub(crate) struct SchedState {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(SimTime, u64, QueueSlot)>>,
    items: HashMap<u64, QueueItem>,
    /// Indexed by the dense [`ProcessId`].
    procs: Vec<ProcRecord>,
    live_regular: usize,
    live_daemons: usize,
    pub(crate) rng: SimRng,
    events_processed: u64,
    counts: SchedCounts,
}

/// Scheduler work counters reported in [`SimReport`].
#[derive(Default, Clone, Copy)]
struct SchedCounts {
    resumes: u64,
    callbacks: u64,
    handoffs: u64,
    stale_wakes: u64,
    tombstones: u64,
}

/// Heap key helper: items with identical timestamps pop in insertion order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct QueueSlot(u64);

/// A cloneable capability handle onto the running simulation.
///
/// `SimHandle` is what scheduled callbacks receive, and what long-lived model
/// objects (GPU devices, network links, UCX workers) store so they can read
/// the clock, schedule callbacks, and fire [`Event`]s. It deliberately cannot
/// block: blocking is only possible from a process `Ctx`. Callbacks run on
/// whichever thread holds the baton, so they must be `Send`; no crate keeps
/// thread-local state.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) core: Arc<SchedCore>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.state.lock().now
    }

    /// True once every regular process has finished and daemons are being
    /// wound down.
    pub fn is_shutdown(&self) -> bool {
        self.core.shutdown.load(Ordering::Acquire)
    }

    /// Schedule `f` to run `delay` after the current virtual time.
    pub fn schedule_in(&self, delay: SimDuration, f: impl FnOnce(&SimHandle) + Send + 'static) {
        let mut st = self.core.state.lock();
        let at = st.now + delay;
        st.push(at, QueueItem::Callback(Box::new(f)));
    }

    /// Schedule `f` at an absolute virtual instant (must not be in the past).
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce(&SimHandle) + Send + 'static) {
        let mut st = self.core.state.lock();
        assert!(at >= st.now, "schedule_at: {at:?} is in the past (now {:?})", st.now);
        st.push(at, QueueItem::Callback(Box::new(f)));
    }

    /// Draw from the simulation's deterministic RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SimRng) -> T) -> T {
        f(&mut self.core.state.lock().rng)
    }

    /// Sample a normally distributed duration (clamped at zero) around
    /// `mean` with standard deviation `sd`, both in microseconds.
    pub fn jitter_us(&self, mean: f64, sd: f64) -> SimDuration {
        self.with_rng(|rng| SimDuration::from_micros_f64(rng.normal(mean, sd)))
    }

    /// The simulation's span trace (recording is a no-op until the trace
    /// is enabled via [`crate::Simulation::trace`]).
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    pub(crate) fn wake(&self, pid: ProcessId, epoch: u64) {
        let mut st = self.core.state.lock();
        let at = st.now;
        st.push(at, QueueItem::Resume { pid, epoch });
    }
}

impl SchedState {
    /// Enqueue `item` at `at`; the returned id can cancel it via
    /// [`cancel_queued`] before it fires.
    fn push(&mut self, at: SimTime, item: QueueItem) -> u64 {
        let id = self.seq;
        self.seq += 1;
        self.items.insert(id, item);
        self.queue.push(Reverse((at, id, QueueSlot(id))));
        id
    }
}

/// Statistics returned by [`Simulation::run`].
///
/// The scheduler counts are deterministic for a given program and seed, but
/// describe how the scheduler did its work, not what the model did: keep
/// them out of behaviour digests.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time at which the last event was processed.
    pub end_time: SimTime,
    /// Number of queue items (resumes + callbacks) processed.
    pub events_processed: u64,
    /// Number of processes that ran (regular + daemon).
    pub processes: u64,
    /// Resumes that ran a process step.
    pub resumes: u64,
    /// Scheduled callbacks run.
    pub callbacks: u64,
    /// Resumes that switched OS threads: one process handing the baton to
    /// another. The run's first resume, started by [`Simulation::run`], is
    /// not counted, so `handoffs <= resumes`.
    pub handoffs: u64,
    /// Resumes discarded because the process had already been woken for
    /// that park (an event and a timed backstop both fired) or had finished.
    pub stale_wakes: u64,
    /// Cancelled queue entries skipped without advancing the clock or
    /// `events_processed`.
    pub tombstones: u64,
}

/// Configuration for a [`Simulation`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the deterministic RNG. Two runs with the same seed produce
    /// identical traces.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0x5EED_CAFE }
    }
}

/// A configured simulation: spawn processes, then [`run`](Simulation::run).
///
/// Dropping a simulation without running it tears its process threads down.
pub struct Simulation {
    core: Arc<SchedCore>,
}

impl Simulation {
    /// Create a simulation with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let core = Arc::new(SchedCore {
            state: Mutex::new(SchedState {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                items: HashMap::new(),
                procs: Vec::new(),
                live_regular: 0,
                live_daemons: 0,
                rng: SimRng::seeded(cfg.seed),
                events_processed: 0,
                counts: SchedCounts::default(),
            }),
            shutdown: AtomicBool::new(false),
            outcome: Slot::new(),
            trace: Trace::for_sim(cfg.seed),
        });
        Simulation { core }
    }

    /// Create a simulation with the default configuration (fixed seed).
    pub fn with_seed(seed: u64) -> Self {
        Simulation::new(SimConfig { seed })
    }

    /// Handle usable to pre-build model objects before `run`.
    pub fn handle(&self) -> SimHandle {
        SimHandle { core: self.core.clone() }
    }

    /// The simulation's span trace; call [`Trace::enable`] to record.
    pub fn trace(&self) -> Trace {
        self.core.trace.clone()
    }

    /// Spawn a regular root process starting at t = 0.
    pub fn spawn(&mut self, name: impl Into<String>, body: impl FnOnce(&mut crate::process::Ctx) + Send + 'static) {
        spawn_process(&self.core, name.into(), false, body);
    }

    /// Spawn a daemon root process starting at t = 0 (see module docs).
    pub fn spawn_daemon(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut crate::process::Ctx) + Send + 'static,
    ) {
        spawn_process(&self.core, name.into(), true, body);
    }

    /// Run the event loop to completion.
    ///
    /// Returns once every regular process has finished and the queue has
    /// drained. Fails with [`SimError::Deadlock`] if regular processes remain
    /// blocked with no timed work pending, or [`SimError::ProcessPanic`] if
    /// any process body panicked; either way every process thread has been
    /// torn down and joined first. A panic inside a scheduled callback is
    /// re-raised here.
    pub fn run(self) -> Result<SimReport, SimError> {
        dispatch(&self.handle(), None);
        let outcome = self.core.outcome.take();
        self.teardown();
        match outcome {
            Outcome::Finished => {}
            Outcome::Failed(err) => return Err(err),
            Outcome::CallbackPanic(payload) => panic::resume_unwind(payload),
        }
        let st = self.core.state.lock();
        let c = st.counts;
        Ok(SimReport {
            end_time: st.now,
            events_processed: st.events_processed,
            processes: st.procs.len() as u64,
            resumes: c.resumes,
            callbacks: c.callbacks,
            handoffs: c.handoffs,
            stale_wakes: c.stale_wakes,
            tombstones: c.tombstones,
        })
    }

    /// Wake every process that never finished with a teardown token, then
    /// join every process thread. Idempotent.
    fn teardown(&self) {
        let joins: Vec<JoinHandle<()>> = {
            let mut st = self.core.state.lock();
            st.procs
                .iter_mut()
                .filter_map(|p| {
                    let join = p.join.take()?;
                    if !p.finished {
                        p.wake.post(Wake::Teardown);
                    }
                    Some(join)
                })
                .collect()
        };
        for j in joins {
            let _ = j.join();
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// The event loop, run by whichever thread holds the baton: the thread in
/// [`Simulation::run`] (`me == None`) until the first process resumes, then
/// the yielding or finishing process `me`.
///
/// Pops queue items in `(time, seq)` order and runs callbacks inline until it
/// pops a live resume. Its own resume returns [`Baton::Kept`]; another
/// process's resume posts that process's wake and returns [`Baton::Passed`].
/// Ending the run (completion, deadlock or a callback panic) posts the
/// outcome and also returns `Passed`.
pub(crate) fn dispatch(handle: &SimHandle, me: Option<ProcessId>) -> Baton {
    let core = &handle.core;
    loop {
        // Pop up to the next callback or live resume, under one lock.
        // Cancelled items (e.g. timeout backstops whose wait completed
        // early) left a tombstone in the heap: skip them without advancing
        // the clock or the event count, so an armed-but-unused watchdog
        // never stretches the run's end time. Stale resumes are counted as
        // events but resume nothing.
        let next = {
            let mut guard = core.state.lock();
            let st = &mut *guard;
            loop {
                let Some(Reverse((at, id, _))) = st.queue.pop() else {
                    break Next::Empty;
                };
                let Some(item) = st.items.remove(&id) else {
                    st.counts.tombstones += 1;
                    continue;
                };
                st.now = at;
                st.events_processed += 1;
                let (pid, epoch) = match item {
                    QueueItem::Callback(f) => {
                        st.counts.callbacks += 1;
                        break Next::Callback(f);
                    }
                    QueueItem::Resume { pid, epoch } => (pid, epoch),
                };
                let p = &mut st.procs[pid.index()];
                if !(p.parked && !p.finished && p.park_epoch == epoch) {
                    st.counts.stale_wakes += 1;
                    continue;
                }
                p.parked = false;
                let wake = p.wake.clone();
                st.counts.resumes += 1;
                match me {
                    Some(m) if m == pid => return Baton::Kept,
                    Some(_) => st.counts.handoffs += 1,
                    None => {}
                }
                break Next::Wake(wake);
            }
        };

        match next {
            Next::Callback(f) => {
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(handle))) {
                    return end_run(core, Outcome::CallbackPanic(payload));
                }
                maybe_begin_shutdown(core);
            }
            Next::Wake(wake) => {
                wake.post(Wake::Run);
                return Baton::Passed;
            }
            Next::Empty => {
                // Queue empty: either done, shutdown phase, or deadlock.
                let mut st = core.state.lock();
                if st.live_regular == 0 && st.live_daemons == 0 {
                    drop(st);
                    return end_run(core, Outcome::Finished);
                }
                if st.live_regular == 0 {
                    // Only daemons remain: initiate shutdown, wake them all.
                    begin_shutdown(core, &mut st);
                    continue;
                }
                let mut blocked: Vec<BlockedProcess> = st
                    .procs
                    .iter()
                    .filter(|p| p.parked && !p.finished)
                    .map(|p| BlockedProcess { process: p.name.clone(), waiting_on: p.waiting_on.clone() })
                    .collect();
                drop(st);
                blocked.sort_by(|a, b| a.process.cmp(&b.process));
                return end_run(core, Outcome::Failed(SimError::Deadlock { blocked }));
            }
        }
    }
}

/// What one locked pass over the queue found.
enum Next {
    Callback(Callback),
    /// A live resume of another process: post this wake.
    Wake(Arc<Slot<Wake>>),
    Empty,
}

fn end_run(core: &SchedCore, outcome: Outcome) -> Baton {
    core.outcome.post(outcome);
    Baton::Passed
}

/// Process `pid` parked (its resume is queued or its waiter registered):
/// run the post-yield shutdown check, then the event loop.
pub(crate) fn yield_baton(handle: &SimHandle, pid: ProcessId) -> Baton {
    maybe_begin_shutdown(&handle.core);
    dispatch(handle, Some(pid))
}

/// If the last regular process just finished, wind daemons down.
fn maybe_begin_shutdown(core: &SchedCore) {
    if core.shutdown.load(Ordering::Acquire) {
        return;
    }
    let mut st = core.state.lock();
    if st.live_regular == 0 && st.live_daemons > 0 {
        begin_shutdown(core, &mut st);
    }
}

/// Set the shutdown flag and wake every parked process, in pid order, so
/// daemon poll loops can observe the flag and exit.
fn begin_shutdown(core: &SchedCore, st: &mut SchedState) {
    core.shutdown.store(true, Ordering::Release);
    let now = st.now;
    let parked: Vec<(ProcessId, u64)> = st
        .procs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.parked && !p.finished)
        .map(|(i, p)| (ProcessId(i as u64), p.park_epoch))
        .collect();
    for (pid, epoch) in parked {
        st.push(now, QueueItem::Resume { pid, epoch });
    }
}

/// Process `pid`'s body returned (`Ok`) or panicked (`Err(message)`) on its
/// own thread, which holds the baton: record it, fire its join event, then
/// end the run on a panic or pass the baton on.
fn finish(handle: &SimHandle, pid: ProcessId, result: Result<(), String>) {
    let core = &handle.core;
    let (name, done) = {
        let mut st = core.state.lock();
        let p = &mut st.procs[pid.index()];
        p.finished = true;
        p.parked = false;
        let name = p.name.clone();
        let done = p.done.clone();
        if p.daemon {
            st.live_daemons -= 1;
        } else {
            st.live_regular -= 1;
        }
        (name, done)
    };
    done.set(handle);
    match result {
        Ok(()) => {
            yield_baton(handle, pid);
        }
        Err(message) => {
            end_run(core, Outcome::Failed(SimError::ProcessPanic { name, message }));
        }
    }
}

/// Handle returned by dynamic spawn; lets other processes await completion.
#[derive(Clone)]
pub struct SpawnHandle {
    pub(crate) pid: ProcessId,
    /// Fired when the process body returns.
    pub done: Event,
}

impl SpawnHandle {
    /// The spawned process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }
}

/// Internal: register and start a process thread. The thread immediately
/// sleeps on its wake slot; the baton reaches it via a `Resume` queue item
/// at the current virtual time.
pub(crate) fn spawn_process(
    core: &Arc<SchedCore>,
    name: String,
    daemon: bool,
    body: impl FnOnce(&mut crate::process::Ctx) + Send + 'static,
) -> SpawnHandle {
    let wake = Arc::new(Slot::new());
    let done = Event::named(format!("join '{name}'"));

    let pid = {
        let mut st = core.state.lock();
        let pid = ProcessId(st.procs.len() as u64);
        if daemon {
            st.live_daemons += 1;
        } else {
            st.live_regular += 1;
        }
        st.procs.push(ProcRecord {
            name: name.clone(),
            daemon,
            wake: wake.clone(),
            park_epoch: 0,
            parked: true,
            finished: false,
            done: done.clone(),
            join: None,
            waiting_on: None,
        });
        let now = st.now;
        st.push(now, QueueItem::Resume { pid, epoch: 0 });
        pid
    };

    let core2 = core.clone();
    let thread_name = format!("sim:{name}");
    let join = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || {
            // Wait for the baton (or for a teardown before we ever ran).
            if let Wake::Teardown = wake.take() {
                return;
            }
            let mut ctx = crate::process::Ctx::new(pid, core2, wake);
            let result = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)))
                .map_err(|payload| payload_to_string(payload.as_ref()));
            // A teardown unwind means the run is already over: leave quietly.
            if matches!(&result, Err(m) if m == crate::process::TEARDOWN_MSG) {
                return;
            }
            finish(&ctx.handle(), pid, result);
        })
        .expect("failed to spawn simulation process thread");

    core.state.lock().procs[pid.index()].join = Some(join);
    SpawnHandle { pid, done }
}

fn payload_to_string(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Internal: record what `pid` is blocked on (None clears it). Read only by
/// the deadlock diagnostic; has no effect on scheduling.
pub(crate) fn set_waiting_on(core: &Arc<SchedCore>, pid: ProcessId, what: Option<String>) {
    if let Some(p) = core.state.lock().procs.get_mut(pid.index()) {
        p.waiting_on = what;
    }
}

/// Internal API used by `Ctx`: mark `pid` parked under a fresh epoch.
pub(crate) fn park_and_bump(core: &Arc<SchedCore>, pid: ProcessId) -> u64 {
    let mut st = core.state.lock();
    let p = &mut st.procs[pid.index()];
    p.park_epoch += 1;
    p.parked = true;
    p.park_epoch
}

/// Internal API used by `Ctx::advance`: park `pid` and queue its resume
/// `dt` from now, under one lock.
pub(crate) fn park_for(core: &Arc<SchedCore>, pid: ProcessId, dt: SimDuration) {
    let mut st = core.state.lock();
    let p = &mut st.procs[pid.index()];
    p.park_epoch += 1;
    p.parked = true;
    let epoch = p.park_epoch;
    let at = st.now + dt;
    st.push(at, QueueItem::Resume { pid, epoch });
}

pub(crate) fn now_of(core: &Arc<SchedCore>) -> SimTime {
    core.state.lock().now
}

pub(crate) fn schedule_resume(core: &Arc<SchedCore>, at: SimTime, pid: ProcessId, epoch: u64) -> u64 {
    let mut st = core.state.lock();
    st.push(at, QueueItem::Resume { pid, epoch })
}

/// Cancel a queued item by id before it fires (no-op if it already fired).
/// The heap entry stays behind as a tombstone that the run loop discards
/// without advancing virtual time.
pub(crate) fn cancel_queued(core: &Arc<SchedCore>, id: u64) {
    core.state.lock().items.remove(&id);
}

pub(crate) fn is_shutdown(core: &Arc<SchedCore>) -> bool {
    core.shutdown.load(Ordering::Acquire)
}
