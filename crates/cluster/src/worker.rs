//! Worker nodes: cooperative multitasking executor threads (§IV-F1).
//!
//! "Presto schedules many concurrent tasks on every worker node to achieve
//! multi-tenancy and uses a cooperative multi-tasking model. Any given
//! split is only allowed to run on a thread for a maximum quanta of one
//! second, after which it must relinquish the thread and return to the
//! queue. When output buffers are full … input buffers are empty … or the
//! system is out of memory, the local scheduler simply switches to
//! processing another task."

use parking_lot::Mutex;
use presto_common::wake::{self, Wake};
use presto_common::{NodeId, PrestoError, QueryId, TaskId, TraceBuffer, TraceKind};
use presto_exec::{Driver, DriverState, Task};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::memory::NodeMemoryPool;
use crate::mlfq::MultilevelQueue;
use crate::telemetry::ClusterTelemetry;

/// How soon a driver whose memory reservation was refused runs again if no
/// release signal comes first.
const MEMORY_RETRY_BACKOFF: Duration = Duration::from_micros(200);

/// Lifecycle of a worker node, exported by `ClusterSnapshot` (§IV-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Healthy: accepts new task placement.
    Active = 0,
    /// Graceful drain ("shutting down" in the paper): no new placement,
    /// running tasks finish.
    Draining = 1,
    /// Crashed or declared dead by the liveness detector; tasks failed.
    Lost = 2,
    /// Threads stopped cleanly (drain completed or cluster shutdown).
    Shutdown = 3,
}

impl WorkerState {
    pub fn as_str(&self) -> &'static str {
        match self {
            WorkerState::Active => "active",
            WorkerState::Draining => "draining",
            WorkerState::Lost => "lost",
            WorkerState::Shutdown => "shutdown",
        }
    }

    pub fn parse(s: &str) -> Option<WorkerState> {
        Some(match s {
            "active" => WorkerState::Active,
            "draining" => WorkerState::Draining,
            "lost" => WorkerState::Lost,
            "shutdown" => WorkerState::Shutdown,
            _ => return None,
        })
    }

    fn from_u8(v: u8) -> WorkerState {
        match v {
            1 => WorkerState::Draining,
            2 => WorkerState::Lost,
            3 => WorkerState::Shutdown,
            _ => WorkerState::Active,
        }
    }
}

/// Live [`QueryState`]s in this process: the leak check for the state ↔
/// task-handle reference cycle (every `TaskHandle` holds its query's state).
static LIVE_QUERY_STATES: AtomicUsize = AtomicUsize::new(0);

/// Shared, cluster-wide state of one query (error slot + cancellation).
pub struct QueryState {
    pub query: QueryId,
    error: Mutex<Option<PrestoError>>,
    cancelled: AtomicBool,
    cpu_nanos: AtomicU64,
    tasks: Mutex<Vec<Arc<TaskHandle>>>,
    /// What the coordinator parks on while this query runs: its root and
    /// writer-scaling buffers, its task completions and its failure or
    /// cancellation signal here.
    wake: Arc<Wake>,
}

impl QueryState {
    pub fn new(query: QueryId) -> Arc<QueryState> {
        LIVE_QUERY_STATES.fetch_add(1, Ordering::Relaxed);
        Arc::new(QueryState {
            query,
            error: Mutex::new(None),
            cancelled: AtomicBool::new(false),
            cpu_nanos: AtomicU64::new(0),
            tasks: Mutex::new(Vec::new()),
            wake: Arc::new(Wake::new()),
        })
    }

    /// `QueryState`s alive in this process. Each live `TaskHandle` keeps
    /// one alive, so 0 also means no task handle survived.
    pub fn live_count() -> usize {
        LIVE_QUERY_STATES.load(Ordering::Relaxed)
    }

    pub fn register_task(&self, task: Arc<TaskHandle>) {
        self.tasks.lock().push(task);
    }

    /// Record a failure and cancel every task of the query. First error
    /// wins.
    pub fn fail(&self, error: PrestoError) {
        {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(error);
            }
        }
        self.cancel();
    }

    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        for task in self.tasks.lock().iter() {
            task.cancel();
        }
        self.wake.signal();
        wake::signal();
    }

    /// This query's own wake; see the field.
    pub fn wake(&self) -> &Arc<Wake> {
        &self.wake
    }

    /// Drop the query's references to its task handles. Each handle points
    /// back at this state, so without this a finished query's state, task
    /// handles and compiled tasks would keep each other alive forever.
    /// Called once the query has been cancelled during cleanup; drivers
    /// still queued hold their own handle references until they retire.
    pub fn release_tasks(&self) {
        self.tasks.lock().clear();
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    pub fn error(&self) -> Option<PrestoError> {
        self.error.lock().clone()
    }

    pub fn add_cpu(&self, d: Duration) {
        self.cpu_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn cpu(&self) -> Duration {
        Duration::from_nanos(self.cpu_nanos.load(Ordering::Relaxed))
    }
}

impl Drop for QueryState {
    fn drop(&mut self) {
        LIVE_QUERY_STATES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One task as the worker sees it.
pub struct TaskHandle {
    pub id: TaskId,
    pub query_state: Arc<QueryState>,
    /// The compiled task (output buffer, scan queues, exchange inputs) —
    /// the coordinator wires exchanges and feeds splits through this.
    pub task: Arc<Task>,
    cpu_nanos: AtomicU64,
    remaining_drivers: AtomicUsize,
    cancelled: AtomicBool,
    done: AtomicBool,
    quanta: Duration,
    spill_enabled: bool,
}

impl TaskHandle {
    pub fn cpu(&self) -> Duration {
        Duration::from_nanos(self.cpu_nanos.load(Ordering::Relaxed))
    }

    /// Clean teardown (§IV-G): stop the task's drivers, release the output
    /// buffer's retained wire bytes (consumers observe a clean
    /// end-of-stream), and stop this task's own exchange fetches/retries
    /// immediately. Called for every sibling task when a query fails, is
    /// cancelled, or completes early (LIMIT).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        self.task.output.close();
        for e in &self.task.exchanges {
            e.client.cancel();
        }
    }

    /// Forced teardown for tasks on a crashed or lost worker: like
    /// [`cancel`](Self::cancel), but the output buffer is *aborted* so
    /// remote consumers surface `WorkerFailed` instead of a clean
    /// end-of-stream, and the task is marked done immediately — its queued
    /// drivers will never run, so nothing else would ever retire it.
    pub fn abort(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        self.task.output.abort();
        for e in &self.task.exchanges {
            e.client.cancel();
        }
        if !self.done.swap(true, Ordering::SeqCst) {
            self.task.memory.release_all();
            // Guaranteed spill cleanup: any run file this task wrote (agg,
            // sort, grace join — including runs still referenced by a
            // published hash table) is deleted here, not when the last Arc
            // happens to drop.
            self.task.spill.remove_all();
        }
        self.query_state.wake.signal();
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Retire one driver, folding its statistics into the task rollup.
    /// Every retirement path (finished, failed, cancelled) comes through
    /// here so the §VII counters survive the driver itself.
    fn driver_done(&self, driver: Option<&Driver>) {
        if let Some(driver) = driver {
            self.task.stats.record(driver.stats_report());
        }
        if self.remaining_drivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.done.store(true, Ordering::SeqCst);
            self.task.memory.release_all();
            // All drivers retired: no operator can read a spill run again.
            self.task.spill.remove_all();
            self.query_state.wake.signal();
        }
    }
}

/// One queued unit of work: a driver plus its task. Public in name only —
/// it appears in [`Worker::scheduler_queue`]'s type, but its fields and
/// construction stay private to this module.
pub struct DriverRun {
    driver: Driver,
    task: Arc<TaskHandle>,
    /// When the signal that made this blocked driver runnable again was
    /// sent; consumed by its next quantum for the wake-latency histogram.
    woken_by: Option<Instant>,
}

/// A worker node: N executor threads over a multilevel feedback queue.
pub struct Worker {
    pub node: NodeId,
    pub pool: Arc<NodeMemoryPool>,
    queue: Arc<MultilevelQueue<DriverRun>>,
    /// Drivers whose last quantum ended blocked, each with the wake epoch
    /// read before that quantum started. A driver becomes runnable again
    /// as soon as the epoch differs from its stamp (see `presto_common::wake`).
    blocked: Mutex<Vec<(u64, DriverRun)>>,
    shutdown: Arc<AtomicBool>,
    dead: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    telemetry: ClusterTelemetry,
    worker_index: usize,
    /// Tasks submitted to this worker (for kill() and snapshots). Weak: a
    /// task lives as long as its query or one of its drivers holds it.
    tasks: Mutex<Vec<Weak<TaskHandle>>>,
    running_drivers: Arc<AtomicUsize>,
    trace: Option<Arc<TraceBuffer>>,
    /// Lifecycle state ([`WorkerState`] as u8), exported to snapshots and
    /// consulted by placement.
    state: AtomicU8,
    /// Monotone liveness counter, bumped by executor threads between quanta
    /// (and while idle, at least every `heartbeat_interval`). The
    /// coordinator's failure detector declares the worker lost when it
    /// stops advancing for `liveness_timeout`.
    heartbeat: AtomicU64,
    heartbeat_interval: Duration,
    /// Chaos hook: a paused worker's scheduler stops taking quanta (and
    /// stops heartbeating) — the injected "hung worker" fault.
    paused: AtomicBool,
    /// Coordinators mid-placement hold a lease so a graceful drain cannot
    /// stop the threads between placement and task submission.
    leases: AtomicUsize,
}

impl Worker {
    pub fn start(
        node: NodeId,
        worker_index: usize,
        threads: usize,
        pool: Arc<NodeMemoryPool>,
        telemetry: ClusterTelemetry,
        trace: Option<Arc<TraceBuffer>>,
        heartbeat_interval: Duration,
    ) -> Arc<Worker> {
        let worker = Arc::new(Worker {
            node,
            pool,
            queue: Arc::new(MultilevelQueue::new()),
            blocked: Mutex::new(Vec::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            dead: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
            telemetry,
            worker_index,
            tasks: Mutex::new(Vec::new()),
            running_drivers: Arc::new(AtomicUsize::new(0)),
            trace,
            state: AtomicU8::new(WorkerState::Active as u8),
            heartbeat: AtomicU64::new(0),
            heartbeat_interval,
            paused: AtomicBool::new(false),
            leases: AtomicUsize::new(0),
        });
        let mut handles = Vec::new();
        for t in 0..threads {
            let w = Arc::clone(&worker);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("worker-{}-{t}", node.0))
                    .spawn(move || w.run_executor(t as u32))
                    .expect("spawn worker thread"),
            );
        }
        *worker.threads.lock() = handles;
        worker
    }

    /// Accept a compiled task: its drivers enter the scheduling queue.
    pub fn submit_task(
        &self,
        task: Task,
        query_state: Arc<QueryState>,
        quanta: Duration,
        spill_enabled: bool,
    ) -> Arc<TaskHandle> {
        let drivers = std::mem::take(&mut *task.drivers.lock());
        let handle = Arc::new(TaskHandle {
            id: task.id,
            query_state: Arc::clone(&query_state),
            task: Arc::new(task),
            cpu_nanos: AtomicU64::new(0),
            remaining_drivers: AtomicUsize::new(drivers.len().max(1)),
            cancelled: AtomicBool::new(false),
            done: AtomicBool::new(drivers.is_empty()),
            quanta,
            spill_enabled,
        });
        query_state.register_task(Arc::clone(&handle));
        // A dead or stopped worker will never run these drivers; fail the
        // query promptly instead of letting the task hang forever.
        if self.is_dead() || self.state() == WorkerState::Shutdown {
            query_state.fail(PrestoError::worker_failed(format!(
                "worker {} is not accepting tasks ({})",
                self.node,
                self.state().as_str()
            )));
            handle.abort();
            return handle;
        }
        {
            // Prune freed tasks so the list stays as long as the live set.
            let mut tasks = self.tasks.lock();
            tasks.retain(|t| t.strong_count() > 0);
            tasks.push(Arc::downgrade(&handle));
        }
        for driver in drivers {
            self.queue.push(
                DriverRun {
                    driver,
                    task: Arc::clone(&handle),
                    woken_by: None,
                },
                Duration::ZERO,
            );
        }
        wake::signal();
        // Close the race with a concurrent kill(): if the worker died while
        // we were enqueuing, the kill may have drained the queue before (or
        // while) our drivers landed — abort them here so the task retires.
        if self.is_dead() {
            query_state.fail(PrestoError::worker_failed(format!(
                "worker {} crashed",
                self.node
            )));
            drop(self.queue.drain());
            self.blocked.lock().clear();
            handle.abort();
        }
        handle
    }

    /// Pending work (runnable + parked drivers).
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.blocked.lock().len()
    }

    /// Drivers currently executing a quantum on this worker's threads.
    pub fn running_drivers(&self) -> usize {
        self.running_drivers.load(Ordering::Relaxed)
    }

    /// Drivers parked on a blocked condition, waiting for a wake signal.
    pub fn blocked_drivers(&self) -> usize {
        self.blocked.lock().len()
    }

    /// The worker's MLFQ, for metrics snapshots.
    pub fn scheduler_queue(&self) -> &MultilevelQueue<DriverRun> {
        &self.queue
    }

    /// Tasks submitted to this worker that have not completed yet (the
    /// source of the mid-flight shuffle gauges in metrics snapshots).
    pub fn live_tasks(&self) -> Vec<Arc<TaskHandle>> {
        self.tasks
            .lock()
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|t| !t.is_done())
            .collect()
    }

    /// Simulated crash (§IV-G): every task on this worker fails with the
    /// retryable `WorkerFailed` code; the node stops processing.
    pub fn kill(&self) {
        self.kill_with("crashed");
    }

    /// Crash / declare-lost implementation shared by [`kill`](Self::kill)
    /// and the liveness detector. In-flight tasks fail their queries
    /// promptly (peers must not block on exchange fetch from a dead
    /// source), queued drivers are aborted so no task lingers half-retired,
    /// and the worker's task memory returns to the pool.
    pub fn kill_with(&self, why: &str) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        self.set_state(WorkerState::Lost);
        let tasks: Vec<Arc<TaskHandle>> =
            self.tasks.lock().iter().filter_map(Weak::upgrade).collect();
        for task in tasks {
            if !task.is_done() {
                task.query_state.fail(PrestoError::worker_failed(format!(
                    "worker {} {why}",
                    self.node
                )));
                task.abort();
            }
        }
        drop(self.queue.drain());
        self.blocked.lock().clear();
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Current lifecycle state.
    pub fn state(&self) -> WorkerState {
        WorkerState::from_u8(self.state.load(Ordering::SeqCst))
    }

    fn set_state(&self, state: WorkerState) {
        self.state.store(state as u8, Ordering::SeqCst);
    }

    /// Healthy and accepting new placement: `Active`, not dead, not paused
    /// into oblivion (a hung worker stays nominally available until the
    /// detector declares it lost — exactly the window the paper's
    /// heartbeat monitoring closes).
    pub fn is_available(&self) -> bool {
        self.state() == WorkerState::Active && !self.is_dead()
    }

    /// Enter graceful drain ("shutting down", §IV-G): placement skips this
    /// worker from now on; running tasks continue to completion.
    pub fn begin_drain(&self) {
        let _ = self.state.compare_exchange(
            WorkerState::Active as u8,
            WorkerState::Draining as u8,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Liveness counter; advances while executor threads are taking (or
    /// waiting for) quanta. Frozen when hung or dead.
    pub fn heartbeat(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// Chaos hook: pause/unpause the scheduler loop. A paused worker stops
    /// taking quanta and stops heartbeating — indistinguishable from a hung
    /// process to the failure detector.
    pub fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
    }

    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    /// Take a placement lease. While any coordinator holds one, a graceful
    /// drain must keep the worker's threads running: the lease closes the
    /// race between "placement computed" and "tasks submitted".
    pub fn lease(&self) {
        self.leases.fetch_add(1, Ordering::SeqCst);
    }

    pub fn release_lease(&self) {
        self.leases.fetch_sub(1, Ordering::SeqCst);
    }

    pub fn leases(&self) -> usize {
        self.leases.load(Ordering::SeqCst)
    }

    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake::signal();
        if self.state() != WorkerState::Lost {
            self.set_state(WorkerState::Shutdown);
        }
        let handles = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    /// Requeue every blocked driver whose stamp predates `epoch`: some
    /// state changed after its quantum started, so its condition may have
    /// cleared.
    fn readmit_blocked(&self, epoch: u64) {
        let mut blocked = self.blocked.lock();
        let mut i = 0;
        while i < blocked.len() {
            if blocked[i].0 >= epoch {
                i += 1;
                continue;
            }
            let (stamp, mut run) = blocked.swap_remove(i);
            run.woken_by = wake::global().signalled_at(stamp + 1);
            self.queue.push(run, Duration::ZERO);
        }
    }

    fn run_executor(&self, thread_index: u32) {
        while !self.shutdown.load(Ordering::SeqCst) {
            if self.dead.load(Ordering::SeqCst) {
                // kill() aborted every task and emptied the queues.
                return;
            }
            // A hung scheduler (chaos injection) stops taking quanta AND
            // stops heartbeating — the detector must notice.
            if self.paused.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            self.heartbeat.fetch_add(1, Ordering::Relaxed);
            let epoch = wake::epoch();
            self.readmit_blocked(epoch);
            let Some(mut run) = self.queue.pop() else {
                // Park until the next signal. The timeout only keeps the
                // heartbeat advancing on an idle worker.
                wake::wait(epoch, Some(self.heartbeat_interval));
                continue;
            };
            if run.task.is_cancelled() || run.task.query_state.is_cancelled() {
                run.task.driver_done(Some(&run.driver));
                continue;
            }
            self.running_drivers.fetch_add(1, Ordering::Relaxed);
            let cpu_before = run.task.cpu();
            let started = Instant::now();
            if let Some(signalled) = run.woken_by.take() {
                self.telemetry
                    .record_wake_latency(started.saturating_duration_since(signalled));
            }
            // Stamp before the quantum: a signal that lands while it runs
            // makes a blocked outcome runnable again at once.
            let stamp = wake::epoch();
            // Operator panics (engine bugs, storage I/O panics in lazy
            // loaders) must fail the query, never kill the executor thread.
            let quanta = run.task.quanta;
            let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run.driver.process(quanta)
            })) {
                Ok(r) => r,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker task panicked".to_string());
                    Err(PrestoError::internal(format!("task panicked: {msg}")))
                }
            };
            let elapsed = started.elapsed();
            self.running_drivers.fetch_sub(1, Ordering::Relaxed);
            // Charge actual thread time to the task (§IV-F1).
            run.task
                .cpu_nanos
                .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
            run.task.query_state.add_cpu(elapsed);
            self.queue.charge(cpu_before, elapsed);
            self.telemetry
                .record_worker_busy(self.worker_index, elapsed);
            if let Some(trace) = &self.trace {
                trace.record_span(
                    TraceKind::DriverQuantum,
                    elapsed.as_nanos() as u64,
                    self.node.0,
                    thread_index,
                    run.task.id.stage.query.0,
                    run.task.id.stage.stage as u64,
                );
            }
            match result {
                Ok(DriverState::Ready) => {
                    self.queue.push(run, cpu_before + elapsed);
                }
                Ok(DriverState::Blocked(reason)) => {
                    use presto_exec::BlockedReason;
                    if reason == BlockedReason::Memory && run.task.spill_enabled {
                        // Revoke (spill) and retry immediately (§IV-F2).
                        match run.driver.revoke_memory() {
                            Ok(freed) if freed > 0 => {
                                self.queue.push(run, cpu_before + elapsed);
                                continue;
                            }
                            Ok(_) => {}
                            Err(e) => {
                                run.task.query_state.fail(e);
                                run.task.driver_done(Some(&run.driver));
                                continue;
                            }
                        }
                    }
                    if reason == BlockedReason::Memory {
                        // Memory is reconciled after the quantum moved its
                        // pages, so a refused driver has already made
                        // progress and may be the only one that can. Retry
                        // it after a short backoff as well as on release.
                        wake::wake_at(Instant::now() + MEMORY_RETRY_BACKOFF);
                    }
                    self.blocked.lock().push((stamp, run));
                }
                Ok(DriverState::Finished) => {
                    run.task.driver_done(Some(&run.driver));
                }
                Err(e) => {
                    run.task.query_state.fail(e);
                    run.task.driver_done(Some(&run.driver));
                }
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}
