//! Asynchronous planning service over the sharded [`Engine`].
//!
//! Hardware-multitasking schedulers don't plan in batch: tasks arrive
//! online, from several tenants, and the scheduler wants each PRR plan
//! without stalling its own loop. [`PlanService`] wraps one shared
//! [`Engine`] behind a submit/await front-end:
//!
//! * **Bounded admission queue with backpressure** — [`PlanService::submit`]
//!   enqueues a request and returns a [`PlanTicket`] immediately; when the
//!   queue is at capacity it blocks until a worker drains space.
//! * **Batched admission** — each worker drains up to
//!   [`ServiceConfig::batch_size`] jobs per queue-lock acquisition, so the
//!   queue lock is touched once per batch rather than once per job, and
//!   per-tenant metrics are flushed once per batch rather than once per
//!   plan.
//! * **Tickets, sync or async** — a [`PlanTicket`] is both a blocking
//!   handle ([`PlanTicket::wait`]) and a [`Future`], so the service drops
//!   into an async executor unchanged; no runtime is required (or used)
//!   here. Results are the engine's memoized
//!   `Arc<Result<PrrPlan, CostError>>` — byte-identical to calling
//!   [`plan_prr`](crate::plan_prr) directly, allocation-free on memo hits.
//! * **Per-tenant labeled metrics** — every completed plan is tallied
//!   under `tenant:<name>` in the engine's registry, alongside
//!   service-level counters (`service:submitted`, `service:completed`,
//!   `service:batches`) and a `"service"` latency stage whose snapshot
//!   carries submit→completion p50/p90/p99.
//!
//! Shutdown is graceful: [`PlanService::shutdown`] (or drop) stops
//! admission, lets the workers drain every queued job, and joins them —
//! no ticket is ever abandoned unresolved. A worker that panics drops the
//! jobs it claimed, and their tickets re-raise the failure from
//! [`PlanTicket::wait`] and `.await` instead of blocking for good. The
//! last worker to exit, by panic or by shutdown, closes the queue: the
//! jobs still queued re-raise the same way, and a `submit` blocked on the
//! full queue returns [`SubmitError::Closed`]. Counters are flushed after
//! each batch's tickets resolve, so they are exact once `shutdown()`
//! returns.

use crate::engine::{DeviceHandle, Engine};
use crate::error::CostError;
use crate::requirements::PrrRequirements;
use crate::search::{PlanScratch, PrrPlan};
use fabric::Device;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning knobs of a [`PlanService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue (min 1).
    pub workers: usize,
    /// Admission-queue capacity; full ⇒ `submit` blocks (min 1).
    pub queue_capacity: usize,
    /// Maximum jobs one worker claims per queue-lock acquisition (min 1).
    pub batch_size: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 1024,
            batch_size: 32,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The service has been shut down, or every worker has exited; no
    /// further admissions.
    Closed,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "planning service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A planning result shared out of the engine's memo.
pub type PlanResult = Arc<Result<PrrPlan, CostError>>;

/// Pending / resolved state shared between a ticket and the worker that
/// completes it.
#[derive(Debug, Default)]
struct TicketState {
    result: Option<PlanResult>,
    /// The job was dropped unresolved: its worker panicked.
    abandoned: bool,
    waker: Option<Waker>,
}

impl TicketState {
    /// The result once resolved; panics if the job was abandoned.
    fn result(&self) -> Option<PlanResult> {
        assert!(
            !self.abandoned,
            "the plan worker panicked before resolving this ticket"
        );
        self.result.clone()
    }
}

#[derive(Debug, Default)]
struct TicketShared {
    state: Mutex<TicketState>,
    done: Condvar,
}

impl TicketShared {
    /// Resolve with `result`, or as abandoned (`None`), and wake the
    /// waiter.
    fn resolve(&self, result: Option<PlanResult>) {
        let waker = {
            // Also runs from `Resolver::drop` while a worker unwinds, so
            // it must not panic; the state holds no multi-step invariant.
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            match result {
                Some(result) => state.result = Some(result),
                None => state.abandoned = true,
            }
            state.waker.take()
        };
        self.done.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
    }
}

/// Handle to one submitted plan request: block on it with
/// [`PlanTicket::wait`], or `.await` it — the ticket is a [`Future`]
/// resolving to the shared [`PlanResult`].
#[derive(Debug)]
pub struct PlanTicket {
    shared: Arc<TicketShared>,
}

impl PlanTicket {
    /// Block until the plan completes. Panics if the worker planning it
    /// panicked.
    pub fn wait(&self) -> PlanResult {
        let mut state = self.shared.state.lock().expect("ticket lock poisoned");
        loop {
            if let Some(result) = state.result() {
                return result;
            }
            state = self.shared.done.wait(state).expect("ticket lock poisoned");
        }
    }
}

impl Future for PlanTicket {
    type Output = PlanResult;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.shared.state.lock().expect("ticket lock poisoned");
        if let Some(result) = state.result() {
            Poll::Ready(result)
        } else {
            // Latest-poll-wins: a ticket lives in one task at a time.
            state.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// The worker's end of a ticket. Dropping it unresolved — a worker that
/// panics mid-batch drops the jobs it claimed — marks the ticket
/// abandoned, so its waiter re-raises the failure instead of blocking
/// for good.
#[derive(Debug)]
struct Resolver(Option<Arc<TicketShared>>);

impl Resolver {
    fn complete(mut self, result: PlanResult) {
        if let Some(shared) = self.0.take() {
            shared.resolve(Some(result));
        }
    }
}

impl Drop for Resolver {
    fn drop(&mut self) {
        if let Some(shared) = self.0.take() {
            shared.resolve(None);
        }
    }
}

/// One queued planning job. The device is resolved to a handle at
/// admission, outside the queue lock, so a worker's plan is one memo
/// probe with no device hashing or comparison.
#[derive(Debug)]
struct Job {
    tenant: Arc<str>,
    requirements: PrrRequirements,
    device: DeviceHandle,
    submitted: Instant,
    ticket: Resolver,
}

#[derive(Debug, Default)]
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
    /// Workers still running; the last one to exit closes the queue.
    live_workers: usize,
}

#[derive(Debug)]
struct ServiceInner {
    engine: Arc<Engine>,
    config: ServiceConfig,
    queue: Mutex<Queue>,
    /// Signals workers: jobs available (or shutdown).
    jobs_ready: Condvar,
    /// Signals blocked submitters: queue has space (or shutdown).
    space_ready: Condvar,
}

/// The asynchronous planning service (see the module docs).
#[derive(Debug)]
pub struct PlanService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl PlanService {
    /// Start a service on a fresh engine.
    pub fn new(config: ServiceConfig) -> Self {
        PlanService::with_engine(Arc::new(Engine::new()), config)
    }

    /// Start a service over an existing engine — e.g. one restored via
    /// [`Engine::import_state`], so a warm memo survives process restarts.
    pub fn with_engine(engine: Arc<Engine>, config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            batch_size: config.batch_size.max(1),
        };
        let inner = Arc::new(ServiceInner {
            engine,
            queue: Mutex::new(Queue {
                live_workers: config.workers,
                ..Queue::default()
            }),
            config,
            jobs_ready: Condvar::new(),
            space_ready: Condvar::new(),
        });
        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("plan-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn plan worker")
            })
            .collect();
        PlanService { inner, workers }
    }

    /// The shared engine (memo state, metrics, snapshot export).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner.engine
    }

    /// Submit a plan request for `tenant`, blocking while the queue is at
    /// capacity (bounded-queue backpressure). Returns the ticket, or
    /// [`SubmitError::Closed`] after shutdown or once every worker has
    /// exited.
    pub fn submit(
        &self,
        tenant: &str,
        requirements: PrrRequirements,
        device: &Device,
    ) -> Result<PlanTicket, SubmitError> {
        // Resolve outside the queue lock: warm devices cost a hash, a read
        // lock and a comparison here and nothing in the workers.
        let device = self.inner.engine.intern_device(device);
        let shared = Arc::new(TicketShared::default());
        let ticket = PlanTicket {
            shared: Arc::clone(&shared),
        };
        let job = Job {
            tenant: Arc::from(tenant),
            requirements,
            device,
            submitted: Instant::now(),
            ticket: Resolver(Some(shared)),
        };
        let mut queue = self.inner.queue.lock().expect("service queue poisoned");
        loop {
            if queue.closed {
                return Err(SubmitError::Closed);
            }
            if queue.jobs.len() < self.inner.config.queue_capacity {
                break;
            }
            queue = self
                .inner
                .space_ready
                .wait(queue)
                .expect("service queue poisoned");
        }
        queue.jobs.push_back(job);
        drop(queue);
        self.inner
            .engine
            .metrics()
            .incr_labeled("service:submitted");
        self.inner.jobs_ready.notify_one();
        Ok(ticket)
    }

    /// Stop admission, drain every queued job, and join the workers.
    /// Every ticket issued before shutdown resolves; later submissions
    /// are refused with [`SubmitError::Closed`]. Idempotent, and also run
    /// on drop.
    pub fn shutdown(&mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut queue = self.inner.queue.lock().expect("service queue poisoned");
            queue.closed = true;
        }
        self.inner.jobs_ready.notify_all();
        self.inner.space_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// A worker's exit guard, dropped on return and while unwinding: the last
/// worker out closes the queue, drops the jobs still queued (their
/// tickets re-raise, like a claimed batch's) and wakes the blocked
/// submitters, which then see [`SubmitError::Closed`].
struct WorkerExit<'a>(&'a ServiceInner);

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        let orphans = {
            // Runs while unwinding, so it must not panic on a poisoned lock.
            let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.live_workers -= 1;
            if queue.live_workers > 0 {
                return;
            }
            queue.closed = true;
            std::mem::take(&mut queue.jobs)
        };
        self.0.space_ready.notify_all();
        drop(orphans);
    }
}

/// Worker: claim up to `batch_size` jobs per lock acquisition, plan them
/// against the shared engine, resolve tickets, and flush per-tenant
/// counters once per batch.
fn worker_loop(inner: &ServiceInner) {
    let _exit = WorkerExit(inner);
    let mut scratch = PlanScratch::default();
    let mut batch: Vec<Job> = Vec::with_capacity(inner.config.batch_size);
    let mut tenant_counts: BTreeMap<Arc<str>, u64> = BTreeMap::new();
    loop {
        {
            let mut queue = inner.queue.lock().expect("service queue poisoned");
            loop {
                if !queue.jobs.is_empty() {
                    break;
                }
                if queue.closed {
                    return;
                }
                queue = inner
                    .jobs_ready
                    .wait(queue)
                    .expect("service queue poisoned");
            }
            let take = queue.jobs.len().min(inner.config.batch_size);
            batch.extend(queue.jobs.drain(..take));
        }
        // Freed `take` slots: wake every blocked submitter (they re-check
        // capacity themselves) and, if jobs remain, another worker.
        inner.space_ready.notify_all();
        inner.jobs_ready.notify_one();

        let metrics = inner.engine.metrics();
        for job in batch.drain(..) {
            let result = inner
                .engine
                .plan_on(&job.requirements, &job.device, &mut scratch);
            metrics.record_stage("service", job.submitted.elapsed());
            *tenant_counts.entry(Arc::clone(&job.tenant)).or_insert(0) += 1;
            job.ticket.complete(result);
        }
        let completed: u64 = tenant_counts.values().sum();
        for (tenant, count) in &tenant_counts {
            metrics.add_labeled(&format!("tenant:{tenant}"), *count);
        }
        tenant_counts.clear();
        metrics.add_labeled("service:completed", completed);
        metrics.incr_labeled("service:batches");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::plan_prr_from_requirements;
    use fabric::database::{xc5vlx110t, xc6vlx75t};
    use fabric::Family;
    use std::task::Wake;

    fn reqs(family: Family, n: u64) -> PrrRequirements {
        PrrRequirements::new(family, 40 * n + 8, 30 * n, 30 * n, n % 5, n % 3)
    }

    #[test]
    fn service_results_match_direct_planning() {
        let mut service = PlanService::new(ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            batch_size: 8,
        });
        let v5 = xc5vlx110t();
        let tickets: Vec<(PrrRequirements, PlanTicket)> = (0..40)
            .map(|n| {
                let r = reqs(Family::Virtex5, n);
                let t = service.submit("alice", r, &v5).unwrap();
                (r, t)
            })
            .collect();
        for (r, ticket) in tickets {
            let via_service = ticket.wait();
            let direct = plan_prr_from_requirements(&r, &v5);
            assert_eq!(*via_service, direct, "{r:?}");
        }
        service.shutdown();
        let snap = service.engine().snapshot();
        assert_eq!(snap.labeled_value("tenant:alice"), 40);
        assert_eq!(snap.labeled_value("service:submitted"), 40);
        assert_eq!(snap.labeled_value("service:completed"), 40);
        assert!(snap
            .stages
            .iter()
            .any(|s| s.name == "service" && s.count == 40));
    }

    #[test]
    fn tenants_are_tallied_separately() {
        let mut service = PlanService::new(ServiceConfig::default());
        let v6 = xc6vlx75t();
        let mut tickets = Vec::new();
        for n in 0..6 {
            tickets.push(
                service
                    .submit("alice", reqs(Family::Virtex6, n), &v6)
                    .unwrap(),
            );
        }
        for n in 0..3 {
            tickets.push(
                service
                    .submit("bob", reqs(Family::Virtex6, n), &v6)
                    .unwrap(),
            );
        }
        for t in tickets {
            t.wait();
        }
        service.shutdown();
        let snap = service.engine().snapshot();
        assert_eq!(snap.labeled_value("tenant:alice"), 6);
        assert_eq!(snap.labeled_value("tenant:bob"), 3);
        // Bob's three points repeat Alice's: served from the shared memo.
        assert_eq!(snap.counters.plan_cache_hits, 3);
        assert_eq!(snap.counters.plan_builds, 6);
    }

    #[test]
    fn shutdown_resolves_all_pending_tickets_and_closes_admission() {
        let mut service = PlanService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 256,
            batch_size: 4,
        });
        let v5 = xc5vlx110t();
        let tickets: Vec<PlanTicket> = (0..64)
            .map(|n| service.submit("t", reqs(Family::Virtex5, n), &v5).unwrap())
            .collect();
        let engine = Arc::clone(service.engine());
        service.shutdown();
        for t in &tickets {
            let state = t.shared.state.lock().unwrap();
            assert!(state.result.is_some(), "shutdown drained every job");
        }
        assert_eq!(engine.snapshot().labeled_value("service:completed"), 64);
    }

    struct Unparker(std::thread::Thread);

    impl Wake for Unparker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }

    /// Minimal park-based executor: enough to prove the ticket is a real
    /// `Future` that wakes its task on completion. `Unpin` keeps this
    /// inside the crate's `forbid(unsafe_code)` (tickets are trivially
    /// `Unpin`: their only field is an `Arc`).
    fn block_on<F: Future + Unpin>(mut future: F) -> F::Output {
        let waker = Waker::from(Arc::new(Unparker(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        loop {
            match Pin::new(&mut future).poll(&mut cx) {
                Poll::Ready(out) => return out,
                Poll::Pending => std::thread::park(),
            }
        }
    }

    #[test]
    fn tickets_are_awaitable_futures() {
        let mut service = PlanService::new(ServiceConfig::default());
        let v5 = xc5vlx110t();
        let r = reqs(Family::Virtex5, 3);
        let ticket = service.submit("async", r, &v5).unwrap();
        let via_await = block_on(ticket);
        assert_eq!(*via_await, plan_prr_from_requirements(&r, &v5));
        service.shutdown();
    }

    /// A worker that panics mid-batch drops the jobs it claimed: their
    /// tickets resolve as abandoned, and waiting re-raises the failure
    /// instead of blocking for good.
    #[test]
    fn dropped_jobs_abandon_their_tickets() {
        let shared = Arc::new(TicketShared::default());
        let ticket = PlanTicket {
            shared: Arc::clone(&shared),
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait()));
            let _ = done_tx.send(waited.is_err());
        });
        drop(Resolver(Some(shared)));
        let reraised = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("wait blocked on an abandoned ticket");
        assert!(reraised, "wait re-raised the abandonment");
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let mut service = PlanService::new(ServiceConfig::default());
        let v5 = xc5vlx110t();
        service.submit("t", reqs(Family::Virtex5, 1), &v5).unwrap();
        service.shutdown();
        assert!(matches!(
            service.submit("t", reqs(Family::Virtex5, 2), &v5),
            Err(SubmitError::Closed)
        ));
    }

    /// Once the only worker has panicked, a job still queued re-raises
    /// from its ticket and a `submit` blocked on the full queue returns
    /// `Closed`, instead of both waiting until the service is dropped.
    #[test]
    fn the_last_worker_to_exit_closes_the_service() {
        let service = Arc::new(PlanService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            batch_size: 1,
        }));
        let v5 = xc5vlx110t();
        let job = |device: DeviceHandle| {
            let shared = Arc::new(TicketShared::default());
            let ticket = PlanTicket {
                shared: Arc::clone(&shared),
            };
            let job = Job {
                tenant: Arc::from("t"),
                requirements: reqs(Family::Virtex5, 1),
                device,
                submitted: Instant::now(),
                ticket: Resolver(Some(shared)),
            };
            (job, ticket)
        };
        // `plan_on` panics on a handle another engine resolved, so the
        // first job kills the worker; the second waits behind it, and
        // the queue is over capacity, so the next `submit` blocks.
        let (poison, _) = job(Engine::new().intern_device(&v5));
        let (queued, ticket) = job(service.engine().intern_device(&v5));
        let (submit_tx, submit_rx) = std::sync::mpsc::channel();
        let submitter = {
            let mut queue = service.inner.queue.lock().unwrap();
            queue.jobs.extend([poison, queued]);
            let service = Arc::clone(&service);
            let v5 = v5.clone();
            std::thread::spawn(move || {
                let _ = submit_tx.send(service.submit("t", reqs(Family::Virtex5, 2), &v5).err());
            })
        };
        service.inner.jobs_ready.notify_all();
        let (wait_tx, wait_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait()));
            let _ = wait_tx.send(waited.is_err());
        });
        // Receive with a watchdog instead of joining: at fault, both
        // threads block for good.
        let watchdog = std::time::Duration::from_secs(30);
        let reraised = wait_rx
            .recv_timeout(watchdog)
            .expect("wait blocked on a job no worker is left to plan");
        assert!(reraised, "the queued ticket re-raised the worker's panic");
        let refused = submit_rx
            .recv_timeout(watchdog)
            .expect("submit blocked on a queue no worker is left to drain");
        assert_eq!(refused, Some(SubmitError::Closed));
        waiter.join().unwrap();
        submitter.join().unwrap();
    }
}
