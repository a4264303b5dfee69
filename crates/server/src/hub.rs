//! The server's shared state: the job table, the work queue, the
//! warm caches and the worker pool.
//!
//! A [`Hub`] is shared (`Arc`) between every connection handler and
//! `N` worker threads. Handlers enqueue deck text ([`Hub::submit`]);
//! workers pop jobs and run them through
//! [`Deck::run_streaming`](cntfet_circuit::deck::Deck) against the
//! hub's process-wide [`ModelCache`] and [`EnginePool`], appending
//! serialized [`RunEvent`]s to the job's event log as they land — the
//! backing store of the `stream` op. One mutex + condvar pair guards
//! the table; every state change broadcasts, waking queue-waiting
//! workers and result/stream-waiting handlers alike (contention is
//! bounded by worker count, not job count).
//!
//! Jobs are evicted when their `result` is retrieved (default), and a
//! bounded number of unretrieved terminal jobs is retained
//! ([`RETAINED_JOBS`]) so a fire-and-forget client cannot grow the
//! table without bound.

use crate::json::Json;
use crate::proto::ErrorCode;
use cntfet_circuit::deck::{
    push_csv_rows, AnalysisReport, CacheStats, CardStats, Deck, DeckRun, EnginePool, ModelCache,
    RunContext, RunEvent,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How many unretrieved terminal jobs the table retains before
/// evicting the oldest.
pub const RETAINED_JOBS: usize = 1024;

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; its result is available.
    Done,
    /// Failed (parse or run error); code and message are available.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// The wire text of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

#[derive(Debug)]
struct Job {
    deck_text: String,
    state: JobState,
    cancel: Arc<AtomicBool>,
    /// Serialized stream events, in emission order; the event index is
    /// the stream sequence number. A terminal event (`done` / `error`
    /// / `cancelled`) is always appended last.
    events: Vec<String>,
    /// Rendered result members (`title`, `reports`, `caches`) once
    /// `Done`.
    result: Option<Json>,
    /// Error code and message once `Failed`.
    error: Option<(ErrorCode, String)>,
}

#[derive(Debug, Default)]
struct Table {
    jobs: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
    running: usize,
    /// Terminal-but-unretrieved job ids, oldest first (the eviction
    /// order).
    retired: VecDeque<u64>,
    /// Jobs completed over the server's lifetime, by final state.
    finished: [u64; 3], // done, failed, cancelled
    /// Lifetime engine-counter totals summed over successful runs.
    counters: CardStats,
}

impl Table {
    fn retire(&mut self, id: u64, state: JobState) {
        debug_assert!(state.terminal());
        let slot = match state {
            JobState::Done => 0,
            JobState::Failed => 1,
            _ => 2,
        };
        self.finished[slot] += 1;
        self.retired.push_back(id);
        while self.retired.len() > RETAINED_JOBS {
            if let Some(old) = self.retired.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }
}

/// The shared server state. See the [module docs](self).
#[derive(Debug)]
pub struct Hub {
    table: Mutex<Table>,
    /// Woken on job *state* transitions (submit, settle, cancel,
    /// shutdown) — what workers and `result` waiters care about.
    state_changed: Condvar,
    /// Woken on every appended stream event. Kept separate from
    /// `state_changed` so a long transient's per-step row events don't
    /// spuriously wake result-waiting clients and idle workers
    /// thousands of times per job — that wakeup storm is measurable in
    /// warm throughput.
    events_changed: Condvar,
    /// Process-wide fitted-model cache, shared by every job.
    pub models: ModelCache,
    /// Process-wide warm-engine pool, shared by every job.
    pub engines: EnginePool,
    shutdown: AtomicBool,
    workers: usize,
}

impl Hub {
    /// Creates a hub that will be served by `workers` worker threads
    /// (recorded for the `stats` op; spawn them with
    /// [`spawn_workers`]).
    pub fn new(workers: usize) -> Arc<Hub> {
        Arc::new(Hub {
            table: Mutex::new(Table::default()),
            state_changed: Condvar::new(),
            events_changed: Condvar::new(),
            models: ModelCache::new(),
            engines: EnginePool::new(),
            shutdown: AtomicBool::new(false),
            workers,
        })
    }

    /// `true` once [`Hub::shutdown`] ran.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Accepts a deck for execution and returns its job id.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::ShuttingDown`] after [`Hub::shutdown`].
    pub fn submit(&self, deck_text: String) -> Result<u64, (ErrorCode, String)> {
        if self.is_shutting_down() {
            return Err((
                ErrorCode::ShuttingDown,
                "the server is shutting down and accepts no new jobs".into(),
            ));
        }
        let mut table = self.lock();
        table.next_id += 1;
        let id = table.next_id;
        table.jobs.insert(
            id,
            Job {
                deck_text,
                state: JobState::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                events: Vec::new(),
                result: None,
                error: None,
            },
        );
        table.queue.push_back(id);
        self.state_changed.notify_all();
        Ok(id)
    }

    /// Requests cancellation. Queued jobs cancel immediately; running
    /// jobs get their flag raised and cancel within one accepted
    /// transient step / Newton iteration / AC point. Returns the
    /// job's state as of this call.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownJob`] for unknown or evicted ids.
    pub fn cancel(&self, id: u64) -> Result<JobState, (ErrorCode, String)> {
        let mut table = self.lock();
        let Some(job) = table.jobs.get_mut(&id) else {
            return Err(unknown_job(id));
        };
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.cancel.store(true, Ordering::SeqCst);
                job.events.push(terminal_event("cancelled", None));
                table.queue.retain(|&q| q != id);
                table.retire(id, JobState::Cancelled);
                self.state_changed.notify_all();
                self.events_changed.notify_all();
                Ok(JobState::Cancelled)
            }
            JobState::Running => {
                job.cancel.store(true, Ordering::SeqCst);
                Ok(JobState::Running)
            }
            state => Ok(state),
        }
    }

    /// The job's current state, event count and (for failed jobs) its
    /// error, as a response object.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownJob`] for unknown or evicted ids.
    pub fn status(&self, id: u64) -> Result<Json, (ErrorCode, String)> {
        let table = self.lock();
        let Some(job) = table.jobs.get(&id) else {
            return Err(unknown_job(id));
        };
        let mut pairs = vec![
            ("ok", Json::Bool(true)),
            ("job", Json::num(id)),
            ("state", Json::str(job.state.as_str())),
            ("events", Json::num(job.events.len() as u64)),
        ];
        if let Some((code, message)) = &job.error {
            pairs.push(("code", Json::str(code.as_str())));
            pairs.push(("error", Json::str(message.clone())));
        }
        Ok(Json::obj(pairs))
    }

    /// The job's result, blocking until it reaches a terminal state
    /// when `wait` is set. On success the job is evicted unless `keep`
    /// is set (a kept job can be re-fetched or streamed later).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownJob`] for unknown ids; the job's own
    /// [`ErrorCode`] for failed jobs; [`ErrorCode::BadRequest`] when
    /// the job is still in flight and `wait` is unset. Cancelled jobs
    /// report [`ErrorCode::RunError`] with a `"cancelled"` message.
    pub fn result(&self, id: u64, wait: bool, keep: bool) -> Result<Json, (ErrorCode, String)> {
        let mut table = self.lock();
        loop {
            let Some(job) = table.jobs.get(&id) else {
                return Err(unknown_job(id));
            };
            match job.state {
                JobState::Done => break,
                JobState::Failed => {
                    let (code, message) = job.error.clone().unwrap_or((
                        ErrorCode::RunError,
                        "job failed without a recorded error".into(),
                    ));
                    return Err((code, message));
                }
                JobState::Cancelled => {
                    return Err((ErrorCode::RunError, format!("job {id} was cancelled")));
                }
                _ if !wait => {
                    return Err((
                        ErrorCode::BadRequest,
                        format!(
                            "job {id} is {}; pass \"wait\": true to block",
                            job.state.as_str()
                        ),
                    ));
                }
                _ => table = self.wait_state(table),
            }
        }
        let result = if keep {
            table.jobs.get(&id).and_then(|j| j.result.clone())
        } else {
            table.retired.retain(|&r| r != id);
            table.jobs.remove(&id).and_then(|j| j.result)
        };
        let Some(Json::Obj(members)) = result else {
            return Err((
                ErrorCode::RunError,
                format!("job {id} finished without a result payload"),
            ));
        };
        let mut pairs = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("job".to_string(), Json::num(id)),
            ("state".to_string(), Json::str("done")),
        ];
        pairs.extend(members);
        Ok(Json::Obj(pairs))
    }

    /// The next stream events after sequence number `from`, blocking
    /// until at least one is available. Returns the events (each a
    /// pre-serialized JSON object) and `true` when the log is complete
    /// (the last returned event is the terminal one).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownJob`] for unknown or evicted ids.
    pub fn next_events(
        &self,
        id: u64,
        from: usize,
    ) -> Result<(Vec<String>, bool), (ErrorCode, String)> {
        let mut table = self.lock();
        loop {
            let Some(job) = table.jobs.get(&id) else {
                return Err(unknown_job(id));
            };
            if job.events.len() > from {
                let events = job.events[from..].to_vec();
                let done = job.state.terminal();
                return Ok((events, done));
            }
            if job.state.terminal() {
                return Ok((Vec::new(), true));
            }
            table = self.wait_events(table);
        }
    }

    /// Server-level statistics: job counts, worker count, lifetime
    /// engine counters, cache hit/miss counters — the `stats` op
    /// response.
    pub fn stats(&self) -> Json {
        let table = self.lock();
        let queued = table.queue.len() as u64;
        let running = table.running as u64;
        let [done, failed, cancelled] = table.finished;
        let counters = table.counters;
        drop(table);
        let models = self.models.stats();
        let engines = self.engines.stats();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            (
                "jobs",
                Json::obj(vec![
                    ("queued", Json::num(queued)),
                    ("running", Json::num(running)),
                    ("done", Json::num(done)),
                    ("failed", Json::num(failed)),
                    ("cancelled", Json::num(cancelled)),
                ]),
            ),
            ("workers", Json::num(self.workers as u64)),
            ("counters", counters_json(&counters)),
            (
                "caches",
                Json::obj(vec![
                    ("models", cache_stats_json(models, self.models.len() as u64)),
                    (
                        "engines",
                        cache_stats_json(engines, self.engines.len() as u64),
                    ),
                ]),
            ),
        ])
    }

    /// Initiates shutdown: no new jobs are accepted and idle workers
    /// exit once the queue drains. With `abort`, queued jobs are
    /// cancelled immediately and running jobs get their cancel flags
    /// raised, so the drain completes within one accepted step per
    /// worker.
    pub fn shutdown(&self, abort: bool) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut table = self.lock();
        if abort {
            while let Some(id) = table.queue.pop_front() {
                if let Some(job) = table.jobs.get_mut(&id) {
                    job.state = JobState::Cancelled;
                    job.cancel.store(true, Ordering::SeqCst);
                    job.events.push(terminal_event("cancelled", None));
                    table.retire(id, JobState::Cancelled);
                }
            }
            for job in table.jobs.values_mut() {
                if job.state == JobState::Running {
                    job.cancel.store(true, Ordering::SeqCst);
                }
            }
        }
        self.state_changed.notify_all();
        self.events_changed.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table> {
        self.table.lock().expect("hub mutex poisoned")
    }

    fn wait_state<'a>(
        &self,
        guard: std::sync::MutexGuard<'a, Table>,
    ) -> std::sync::MutexGuard<'a, Table> {
        self.state_changed.wait(guard).expect("hub mutex poisoned")
    }

    fn wait_events<'a>(
        &self,
        guard: std::sync::MutexGuard<'a, Table>,
    ) -> std::sync::MutexGuard<'a, Table> {
        self.events_changed.wait(guard).expect("hub mutex poisoned")
    }

    /// Worker side: pops the next queued job, blocking. Returns `None`
    /// when the hub is shutting down and the queue is empty.
    fn next_job(&self) -> Option<(u64, String, Arc<AtomicBool>)> {
        let mut table = self.lock();
        loop {
            if let Some(id) = table.queue.pop_front() {
                if let Some(job) = table.jobs.get_mut(&id) {
                    job.state = JobState::Running;
                    table.running += 1;
                    let job = &table.jobs[&id];
                    return Some((id, job.deck_text.clone(), Arc::clone(&job.cancel)));
                }
                continue; // evicted while queued (cancel raced); skip
            }
            if self.is_shutting_down() {
                return None;
            }
            table = self.wait_state(table);
        }
    }

    /// Folds a finished run's per-card counters into the lifetime
    /// totals reported by the `stats` op.
    fn record_counters(&self, run: &DeckRun) {
        let mut table = self.lock();
        for report in &run.reports {
            table.counters += report.stats;
        }
    }

    fn push_event(&self, id: u64, event: String) {
        let mut table = self.lock();
        if let Some(job) = table.jobs.get_mut(&id) {
            job.events.push(event);
        }
        self.events_changed.notify_all();
    }

    fn settle(&self, id: u64, state: JobState, outcome: SettleOutcome) {
        let mut table = self.lock();
        table.running = table.running.saturating_sub(1);
        if let Some(job) = table.jobs.get_mut(&id) {
            job.state = state;
            job.deck_text.clear(); // the text is no longer needed; drop the bytes
            match outcome {
                SettleOutcome::Result(result) => {
                    job.events.push(terminal_event("done", None));
                    job.result = Some(result);
                }
                SettleOutcome::Error(code, message) => {
                    job.events
                        .push(terminal_event("error", Some((code, &message))));
                    job.error = Some((code, message));
                }
                SettleOutcome::Cancelled => {
                    job.events.push(terminal_event("cancelled", None));
                }
            }
            table.retire(id, state);
        }
        self.state_changed.notify_all();
        self.events_changed.notify_all();
    }
}

enum SettleOutcome {
    Result(Json),
    Error(ErrorCode, String),
    Cancelled,
}

fn unknown_job(id: u64) -> (ErrorCode, String) {
    (ErrorCode::UnknownJob, format!("no job with id {id}"))
}

fn terminal_event(kind: &str, error: Option<(ErrorCode, &str)>) -> String {
    let mut pairs = vec![("type", Json::str(kind))];
    if let Some((code, message)) = error {
        pairs.push(("code", Json::str(code.as_str())));
        pairs.push(("error", Json::str(message)));
    }
    Json::obj(pairs).render()
}

fn cache_stats_json(stats: CacheStats, size: u64) -> Json {
    Json::obj(vec![
        ("hits", Json::num(stats.hits)),
        ("misses", Json::num(stats.misses)),
        ("size", Json::num(size)),
    ])
}

/// Renders one [`RunEvent`] as its wire JSON. Row batches become CSV
/// lines without a header, rendered by [`push_csv_rows`] as the final
/// report CSV is, so streamed samples are bitwise-identical to it.
pub fn render_event(event: &RunEvent) -> String {
    match event {
        RunEvent::ReportStart(h) => Json::obj(vec![
            ("type", Json::str("start")),
            ("index", Json::num(h.index as u64)),
            ("label", Json::str(h.label.clone())),
            (
                "columns",
                Json::Arr(h.columns.iter().map(Json::str).collect()),
            ),
        ])
        .render(),
        RunEvent::Rows { index, rows } => {
            let mut csv = String::new();
            push_csv_rows(&mut csv, rows);
            Json::obj(vec![
                ("type", Json::str("rows")),
                ("index", Json::num(*index as u64)),
                ("csv", Json::Str(csv)),
            ])
            .render()
        }
        RunEvent::ReportEnd { index, stats } => Json::obj(vec![
            ("type", Json::str("end")),
            ("index", Json::num(*index as u64)),
            ("stats", counters_json(stats)),
        ])
        .render(),
    }
}

/// Every engine counter as a JSON member, named as the engine names it.
fn counters_json(counters: &CardStats) -> Json {
    Json::Obj(
        counters
            .named()
            .map(|(name, v)| (name.to_string(), Json::num(v)))
            .collect(),
    )
}

fn report_json(report: &AnalysisReport) -> Json {
    Json::obj(vec![
        ("label", Json::str(report.label.clone())),
        (
            "columns",
            Json::Arr(report.columns.iter().map(Json::str).collect()),
        ),
        ("csv", Json::Str(report.to_csv())),
        ("stats", counters_json(&report.stats)),
    ])
}

/// Renders a finished [`DeckRun`] as the result payload members
/// (`title`, `reports`, `caches`).
pub fn render_result(run: &DeckRun) -> Json {
    Json::obj(vec![
        ("title", Json::str(run.title.clone())),
        (
            "reports",
            Json::Arr(run.reports.iter().map(report_json).collect()),
        ),
        (
            "caches",
            Json::obj(vec![
                ("models", cache_stats_json(run.caches.models, 0)),
                ("engines", cache_stats_json(run.caches.engines, 0)),
            ]),
        ),
    ])
}

/// Executes one job start to finish (parse → run → settle). Public
/// for the worker threads and the in-process bench harness.
pub fn run_job(hub: &Hub, id: u64, deck_text: &str, cancel: &Arc<AtomicBool>) {
    let deck = match Deck::parse(deck_text) {
        Ok(deck) => deck,
        Err(e) => {
            hub.settle(
                id,
                JobState::Failed,
                SettleOutcome::Error(ErrorCode::ParseError, e.to_string()),
            );
            return;
        }
    };
    let ctx = RunContext {
        models: Some(&hub.models),
        engines: Some(&hub.engines),
    };
    let outcome = deck.run_streaming(&ctx, Some(cancel), &mut |event| {
        hub.push_event(id, render_event(&event));
    });
    match outcome {
        Ok(run) => {
            hub.record_counters(&run);
            hub.settle(
                id,
                JobState::Done,
                SettleOutcome::Result(render_result(&run)),
            );
        }
        Err(_) if cancel.load(Ordering::SeqCst) => {
            hub.settle(id, JobState::Cancelled, SettleOutcome::Cancelled);
        }
        Err(e) => hub.settle(
            id,
            JobState::Failed,
            SettleOutcome::Error(ErrorCode::RunError, e.to_string()),
        ),
    }
}

/// Spawns the hub's worker threads. Each worker loops popping queued
/// jobs until [`Hub::shutdown`] ran and the queue is empty.
pub fn spawn_workers(hub: &Arc<Hub>, workers: usize) -> Vec<JoinHandle<()>> {
    (0..workers)
        .map(|k| {
            let hub = Arc::clone(hub);
            std::thread::Builder::new()
                .name(format!("cntfet-worker-{k}"))
                .spawn(move || {
                    while let Some((id, text, cancel)) = hub.next_job() {
                        run_job(&hub, id, &text, &cancel);
                    }
                })
                .expect("spawn worker thread")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIVIDER: &str =
        "divider\nV1 in 0 DC 2\nR1 in out 1k\nR2 out 0 1k\n.op\n.print op v(out)\n.end\n";

    #[test]
    fn submit_run_result_lifecycle() {
        let hub = Hub::new(1);
        let workers = spawn_workers(&hub, 1);
        let id = hub.submit(DIVIDER.to_string()).unwrap();
        let result = hub.result(id, true, false).unwrap();
        assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));
        let reports = result.get("reports").and_then(Json::as_arr).unwrap();
        assert_eq!(reports.len(), 1);
        let csv = reports[0].get("csv").and_then(Json::as_str).unwrap();
        assert!(csv.starts_with("v(out)\n"), "{csv}");
        // Evicted after retrieval.
        assert_eq!(hub.status(id).unwrap_err().0, ErrorCode::UnknownJob);
        hub.shutdown(false);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn parse_errors_fail_with_diagnostic() {
        let hub = Hub::new(1);
        let workers = spawn_workers(&hub, 1);
        let id = hub.submit("broken\nR1 a\n.end\n".to_string()).unwrap();
        let (code, message) = hub.result(id, true, false).unwrap_err();
        assert_eq!(code, ErrorCode::ParseError);
        assert!(message.contains("R1"), "{message}");
        hub.shutdown(false);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn runaway_cards_fail_to_parse_and_the_worker_serves_on() {
        // Each card would ask for 1e12 or more points or steps: they
        // settle as parse errors, and the one worker then runs the next
        // job.
        let hub = Hub::new(1);
        let workers = spawn_workers(&hub, 1);
        for card in [".dc V1 0 1 1p", ".ac lin 1e12 1k 1meg", ".tran 1f 1"] {
            let deck = format!("runaway\nV1 in 0 DC 1 AC 1\nR1 in 0 1k\n{card}\n.end\n");
            let id = hub.submit(deck).unwrap();
            let (code, message) = hub.result(id, true, false).unwrap_err();
            assert_eq!(code, ErrorCode::ParseError, "{card}: {message}");
            assert!(message.contains("the bound is 10000000"), "{message}");
        }
        let id = hub.submit(DIVIDER.to_string()).unwrap();
        let result = hub.result(id, true, false).unwrap();
        assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));
        hub.shutdown(false);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn queued_jobs_cancel_immediately_and_shutdown_rejects_submits() {
        let hub = Hub::new(1); // no workers spawned: stays queued
        let id = hub.submit(DIVIDER.to_string()).unwrap();
        assert_eq!(hub.cancel(id).unwrap(), JobState::Cancelled);
        let (code, _) = hub.result(id, true, false).unwrap_err();
        assert_eq!(code, ErrorCode::RunError);
        hub.shutdown(false);
        assert_eq!(
            hub.submit(DIVIDER.to_string()).unwrap_err().0,
            ErrorCode::ShuttingDown
        );
    }

    #[test]
    fn stream_events_cover_the_whole_run() {
        let hub = Hub::new(1);
        let workers = spawn_workers(&hub, 1);
        let id = hub.submit(DIVIDER.to_string()).unwrap();
        let mut seq = 0;
        let mut kinds = Vec::new();
        loop {
            let (events, done) = hub.next_events(id, seq).unwrap();
            seq += events.len();
            for text in events {
                let event = Json::parse(&text).unwrap();
                kinds.push(event.get("type").unwrap().as_str().unwrap().to_string());
            }
            if done {
                break;
            }
        }
        assert_eq!(kinds, ["start", "rows", "end", "done"]);
        hub.shutdown(false);
        for w in workers {
            w.join().unwrap();
        }
    }
}
