//! The process-side API: what simulation code can do.
//!
//! Every simulation process receives a `&mut Ctx`. All blocking operations
//! (`advance`, `wait`, channel receives) go through it; the mutable borrow
//! statically prevents a process from blocking re-entrantly.

use std::sync::Arc;

use crate::event::Event;
use crate::rng::SimRng;
use crate::sched::{self, Baton, ProcessId, SchedCore, SimHandle, Slot, SpawnHandle, Wake};
use crate::time::{SimDuration, SimTime};

/// Sentinel panic payload used to unwind a parked process thread when its
/// simulation ends without it (a failed run, or a simulation dropped
/// unrun).
pub(crate) const TEARDOWN_MSG: &str = "__parcomm_sim_teardown__";

/// Per-process execution context.
///
/// Not `Clone` and not `Send`-shareable: it owns the process's wake slot.
/// To give long-lived model objects access to the simulation, use
/// [`Ctx::handle`].
pub struct Ctx {
    pid: ProcessId,
    core: Arc<SchedCore>,
    wake: Arc<Slot<Wake>>,
    handle: SimHandle,
}

impl Ctx {
    pub(crate) fn new(pid: ProcessId, core: Arc<SchedCore>, wake: Arc<Slot<Wake>>) -> Self {
        let handle = SimHandle { core: core.clone() };
        Ctx { pid, core, wake, handle }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        sched::now_of(&self.core)
    }

    /// A cloneable, non-blocking capability handle (for model objects and
    /// scheduled callbacks).
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// True once the simulation is winding down daemons (all regular
    /// processes finished). Daemon poll loops should check this.
    pub fn is_shutdown(&self) -> bool {
        sched::is_shutdown(&self.core)
    }

    /// Let virtual time pass: park this process and resume it `dt` later.
    ///
    /// `advance(SimDuration::ZERO)` yields to other same-instant work
    /// (FIFO order among equal timestamps).
    pub fn advance(&mut self, dt: SimDuration) {
        sched::park_for(&self.core, self.pid, dt);
        self.park();
    }

    /// Yield to other processes/callbacks scheduled at the current instant.
    pub fn yield_now(&mut self) {
        self.advance(SimDuration::ZERO);
    }

    /// Block until `event` fires. Returns `true` if the event is set, or
    /// `false` if the process was released by simulation shutdown instead
    /// (only happens to daemons).
    pub fn wait(&mut self, event: &Event) -> bool {
        loop {
            if event.is_set() {
                self.clear_wait_note();
                return true;
            }
            if self.is_shutdown() {
                self.clear_wait_note();
                return false;
            }
            self.note_wait(describe_event(event));
            let epoch = sched::park_and_bump(&self.core, self.pid);
            // Register *after* bumping so the event wakes the right epoch.
            if !event.register_waiter(self.pid, epoch) {
                // Event fired between the check and registration: un-park by
                // scheduling an immediate resume for our epoch.
                sched::schedule_resume(&self.core, self.now(), self.pid, epoch);
            }
            self.park();
        }
    }

    /// Block until `event` fires or `dt` elapses. Returns `true` if the event
    /// is set (even if it fired exactly at the deadline).
    pub fn wait_timeout(&mut self, event: &Event, dt: SimDuration) -> bool {
        let deadline = self.now() + dt;
        loop {
            if event.is_set() {
                self.clear_wait_note();
                return true;
            }
            if self.is_shutdown() || self.now() >= deadline {
                self.clear_wait_note();
                return event.is_set();
            }
            self.note_wait(describe_event(event));
            let epoch = sched::park_and_bump(&self.core, self.pid);
            if !event.register_waiter(self.pid, epoch) {
                sched::schedule_resume(&self.core, self.now(), self.pid, epoch);
            }
            // Timed backstop at the deadline; cancelled below if the event
            // wins, so it can never stretch the simulation's end time.
            let backstop = sched::schedule_resume(&self.core, deadline, self.pid, epoch);
            self.park();
            sched::cancel_queued(&self.core, backstop);
        }
    }

    /// Block until all events in `events` have fired.
    pub fn wait_all(&mut self, events: &[Event]) {
        for e in events {
            self.wait(e);
        }
    }

    /// Block until `counter` reaches at least `threshold` (or shutdown).
    pub fn wait_count(&mut self, counter: &crate::event::CountEvent, threshold: u64) {
        loop {
            if counter.count() >= threshold || self.is_shutdown() {
                self.clear_wait_note();
                return;
            }
            self.note_wait(describe_count(counter, threshold));
            let epoch = sched::park_and_bump(&self.core, self.pid);
            if !counter.register_waiter(threshold, self.pid, epoch) {
                sched::schedule_resume(&self.core, self.now(), self.pid, epoch);
            }
            self.park();
        }
    }

    /// Block until `counter` reaches at least `threshold`, `dt` elapses, or
    /// shutdown. Returns `true` if the threshold was met (even exactly at the
    /// deadline). The timed backstop is only scheduled when this method is
    /// called, so code paths that never arm a timeout cost no extra events.
    pub fn wait_count_timeout(
        &mut self,
        counter: &crate::event::CountEvent,
        threshold: u64,
        dt: SimDuration,
    ) -> bool {
        let deadline = self.now() + dt;
        loop {
            if counter.count() >= threshold {
                self.clear_wait_note();
                return true;
            }
            if self.is_shutdown() || self.now() >= deadline {
                self.clear_wait_note();
                return counter.count() >= threshold;
            }
            self.note_wait(describe_count(counter, threshold));
            let epoch = sched::park_and_bump(&self.core, self.pid);
            if !counter.register_waiter(threshold, self.pid, epoch) {
                sched::schedule_resume(&self.core, self.now(), self.pid, epoch);
            }
            // Timed backstop at the deadline; cancelled below if the counter
            // wins, so it can never stretch the simulation's end time.
            let backstop = sched::schedule_resume(&self.core, deadline, self.pid, epoch);
            self.park();
            sched::cancel_queued(&self.core, backstop);
        }
    }

    /// Spawn a regular child process starting at the current virtual time.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) + Send + 'static,
    ) -> SpawnHandle {
        sched::spawn_process(&self.core, name.into(), false, body)
    }

    /// Spawn a daemon child process (released at shutdown; see crate docs).
    pub fn spawn_daemon(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) + Send + 'static,
    ) -> SpawnHandle {
        sched::spawn_process(&self.core, name.into(), true, body)
    }

    /// Block until the given spawned process finishes.
    pub fn join(&mut self, handle: &SpawnHandle) {
        self.wait(&handle.done);
    }

    /// Draw from the simulation's deterministic RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SimRng) -> T) -> T {
        self.handle.with_rng(f)
    }

    /// Sample a normally distributed duration (clamped at zero), in
    /// microseconds.
    pub fn jitter_us(&self, mean: f64, sd: f64) -> SimDuration {
        self.handle.jitter_us(mean, sd)
    }

    /// Yield the baton (this process is parked: its resume is queued or its
    /// waiter registered) and return once this process is resumed.
    fn park(&mut self) {
        if let Baton::Passed = sched::yield_baton(&self.handle, self.pid) {
            if let Wake::Teardown = self.wake.take() {
                // The run ended without us. Unwind quietly: no panic hook.
                std::panic::resume_unwind(Box::new(TEARDOWN_MSG.to_string()));
            }
        }
    }

    /// Record what this process is about to block on (deadlock diagnosis).
    fn note_wait(&self, what: String) {
        sched::set_waiting_on(&self.core, self.pid, Some(what));
    }

    /// Clear the wait-for note once unblocked.
    fn clear_wait_note(&self) {
        sched::set_waiting_on(&self.core, self.pid, None);
    }
}

/// Wait-for description of an [`Event`] for deadlock diagnostics.
fn describe_event(event: &Event) -> String {
    match event.label() {
        Some(l) => format!("event '{l}'"),
        None => "event <unnamed>".to_string(),
    }
}

/// Wait-for description of a [`crate::event::CountEvent`], including how far
/// along the counter was when the process last parked.
fn describe_count(counter: &crate::event::CountEvent, threshold: u64) -> String {
    let cur = counter.count();
    match counter.label() {
        Some(l) => format!("count '{l}' ({cur}/{threshold})"),
        None => format!("count <unnamed> ({cur}/{threshold})"),
    }
}
