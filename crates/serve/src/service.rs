//! The campaign service: a job table, a shared worker pool and the
//! store-backed resume/dedup logic.
//!
//! ## Scheduling
//!
//! Jobs take *turns*: a worker pops the next job off a FIFO run queue, runs
//! exactly **one batch** of its campaign (the spec's `batch` size), persists
//! the accumulated outcome prefix, emits a progress event and requeues the
//! job. With more jobs than workers this round-robins fairly — every queued
//! job advances by one batch per cycle — and concurrent jobs make
//! interleaved progress by construction.
//!
//! ## Resumability
//!
//! A turn rebuilds the job's
//! [`CampaignSession`](tmr_fpga::faultsim::CampaignSession) from its flow
//! artifacts (all memoized, so only the first turn pays) and seeds it with
//! the persisted prefix via `with_prefix`. Because session outcomes are
//! bit-identical to the matching prefix of an uninterrupted run (the
//! exact-prefix guarantee), a job interrupted by a crash or shutdown and
//! resumed in a fresh process produces a **byte-identical**
//! [`CampaignResult`]. Prefixes live in the store under stage
//! `campaign.partial`, keyed by the same campaign fingerprint as the final
//! result; completed results are stored under stage `campaign`, so a
//! re-submitted job — or a [`Flow::campaign`](tmr_fpga::flow::Flow) call
//! over the same configuration — is served without a single simulation.

use crate::protocol::{Event, JobSpec, JobStatus, ResultSource};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use tmr_core::pipeline::{ArtifactCache, CacheKey};
use tmr_fpga::arch::{Device, DeviceParams};
use tmr_fpga::faultsim::CampaignResult;
use tmr_fpga::flow::{device_params_for, Flow, FlowBuilder};
use tmr_fpga::store::CampaignPrefix;
use tmr_fpga::Store;

/// Identifies one submitted job.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobId(pub String);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker turn.
    Queued,
    /// A worker is running one of its batches right now.
    Running,
    /// Parked by [`CampaignService::pause`]; resume to continue.
    Paused,
    /// Finished; the result was emitted and stored.
    Done,
    /// Failed; the error was emitted.
    Failed,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// Configuration of a [`CampaignService`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Worker threads (0 = default of 2).
    pub workers: usize,
    /// The disk store backing resumable prefixes, result dedup and all
    /// stage artifacts. `None` = memory-only: jobs still interleave and
    /// pause/resume, but nothing survives the process.
    pub store: Option<Arc<Store>>,
}

struct Job {
    id: String,
    spec: JobSpec,
    state: JobState,
    pause_requested: bool,
    batches: usize,
    injected: usize,
    planned: usize,
    wrong_answers: usize,
    /// In-memory copy of the persisted prefix (the only copy when no store
    /// is attached).
    prefix: Option<CampaignPrefix>,
    started_emitted: bool,
}

#[derive(Default)]
struct State {
    jobs: Vec<Job>,
    queue: VecDeque<usize>,
    active: usize,
    shutdown: bool,
}

struct Inner {
    mem: Arc<ArtifactCache>,
    store: Option<Arc<Store>>,
    /// Every device the service's jobs have asked for, built once and held
    /// for the service's lifetime. One `OnceLock` per key lets concurrent
    /// workers wait for a single build instead of racing to duplicate it.
    devices: Mutex<HashMap<DeviceParams, Arc<OnceLock<Device>>>>,
    completed: Mutex<HashMap<u64, Arc<CampaignResult>>>,
    events: Mutex<Sender<Event>>,
    state: Mutex<State>,
    wake: Condvar,
    idle: Condvar,
}

/// The in-process campaign service driving a pool of worker threads. The
/// daemon binaries wrap it in the NDJSON protocol; tests and embedders use
/// it directly.
pub struct CampaignService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

enum Turn {
    Requeue,
    Finished(JobState),
}

impl CampaignService {
    /// Starts the worker pool and returns the service plus the stream of
    /// [`Event`]s it emits.
    pub fn new(config: ServiceConfig) -> (Self, Receiver<Event>) {
        let (sender, receiver) = mpsc::channel();
        let inner = Arc::new(Inner {
            mem: ArtifactCache::shared(),
            store: config.store,
            devices: Mutex::new(HashMap::new()),
            completed: Mutex::new(HashMap::new()),
            events: Mutex::new(sender),
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = if config.workers == 0 {
            2
        } else {
            config.workers
        };
        let workers = (0..workers)
            .map(|n| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("tmr-serve-worker-{n}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a worker thread")
            })
            .collect();
        (Self { inner, workers }, receiver)
    }

    /// The disk store backing the service, if one is attached.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.inner.store.as_ref()
    }

    /// Validates and enqueues a job. Emits [`Event::Accepted`] on success
    /// and [`Event::Error`] on failure.
    ///
    /// # Errors
    ///
    /// Returns the validation or duplicate-id message (also emitted).
    pub fn submit(&self, id: Option<String>, spec: JobSpec) -> Result<JobId, String> {
        let result = self.try_submit(id.clone(), spec);
        if let Err(message) = &result {
            self.inner.emit(Event::Error {
                id,
                message: message.clone(),
            });
        }
        result
    }

    fn try_submit(&self, id: Option<String>, spec: JobSpec) -> Result<JobId, String> {
        spec.validate()?;
        let mut state = self.inner.state.lock().unwrap();
        if state.shutdown {
            return Err("service is shutting down".to_string());
        }
        let id = id.unwrap_or_else(|| format!("job-{}", state.jobs.len() + 1));
        if state.jobs.iter().any(|job| job.id == id) {
            return Err(format!("duplicate job id {id:?}"));
        }
        let planned = spec.faults;
        state.jobs.push(Job {
            id: id.clone(),
            spec,
            state: JobState::Queued,
            pause_requested: false,
            batches: 0,
            injected: 0,
            planned,
            wrong_answers: 0,
            prefix: None,
            started_emitted: false,
        });
        let index = state.jobs.len() - 1;
        state.queue.push_back(index);
        drop(state);
        self.inner.wake.notify_one();
        self.inner.emit(Event::Accepted { id: id.clone() });
        Ok(JobId(id))
    }

    /// Parks a queued or running job after its current batch (its prefix
    /// stays persisted). Emits [`Event::Paused`] once parked.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown ids and terminal jobs.
    pub fn pause(&self, id: &str) -> Result<(), String> {
        let mut state = self.inner.state.lock().unwrap();
        let index = find_job(&state.jobs, id)?;
        match state.jobs[index].state {
            JobState::Queued => {
                state.queue.retain(|&queued| queued != index);
                let job = &mut state.jobs[index];
                job.state = JobState::Paused;
                let event = Event::Paused {
                    id: job.id.clone(),
                    injected: job.injected,
                };
                drop(state);
                self.inner.idle.notify_all();
                self.inner.emit(event);
                Ok(())
            }
            JobState::Running => {
                state.jobs[index].pause_requested = true;
                Ok(())
            }
            JobState::Paused => Ok(()),
            JobState::Done | JobState::Failed => Err(format!("job {id:?} already finished")),
        }
    }

    /// Re-queues a paused job; its next turn continues from the persisted
    /// prefix.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown ids and finished jobs.
    pub fn resume(&self, id: &str) -> Result<(), String> {
        let mut state = self.inner.state.lock().unwrap();
        let index = find_job(&state.jobs, id)?;
        let job = &mut state.jobs[index];
        match job.state {
            JobState::Paused => {
                job.state = JobState::Queued;
                job.pause_requested = false;
                state.queue.push_back(index);
                drop(state);
                self.inner.wake.notify_one();
                Ok(())
            }
            JobState::Queued | JobState::Running => Ok(()),
            JobState::Done | JobState::Failed => Err(format!("job {id:?} already finished")),
        }
    }

    /// A snapshot of every job, in submission order.
    pub fn status(&self) -> Vec<JobStatus> {
        let state = self.inner.state.lock().unwrap();
        state
            .jobs
            .iter()
            .map(|job| JobStatus {
                id: job.id.clone(),
                state: job.state.as_str().to_string(),
                injected: job.injected,
                planned: job.planned,
                wrong_answers: job.wrong_answers,
                batches: job.batches,
            })
            .collect()
    }

    /// Blocks until no job is queued or running (all are done, failed or
    /// paused).
    pub fn wait_idle(&self) {
        let mut state = self.inner.state.lock().unwrap();
        while !(state.queue.is_empty() && state.active == 0) {
            state = self.inner.idle.wait(state).unwrap();
        }
    }

    /// Stops the workers after their current turns and joins them. Unfinished
    /// jobs keep their persisted prefixes and resume byte-identically when
    /// re-submitted to a new service over the same store.
    pub fn shutdown(self) {
        // Drop runs the actual shutdown.
    }
}

impl Drop for CampaignService {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.shutdown = true;
        }
        self.inner.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Inner {
    /// The device built from `params`, from the memo. The map lock is held
    /// only to fetch the key's cell, so builds of different sizes overlap.
    fn device(&self, params: DeviceParams) -> Device {
        let cell = self
            .devices
            .lock()
            .unwrap()
            .entry(params)
            .or_default()
            .clone();
        cell.get_or_init(|| Device::new(params)).clone()
    }

    fn emit(&self, event: Event) {
        // A dropped receiver just means nobody is listening any more.
        let _ = self.events.lock().unwrap().send(event);
    }
}

fn find_job(jobs: &[Job], id: &str) -> Result<usize, String> {
    jobs.iter()
        .position(|job| job.id == id)
        .ok_or_else(|| format!("unknown job id {id:?}"))
}

fn worker_loop(inner: &Inner) {
    loop {
        let index = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(index) = state.queue.pop_front() {
                    state.jobs[index].state = JobState::Running;
                    state.active += 1;
                    break index;
                }
                state = inner.wake.wait(state).unwrap();
            }
        };
        let turn = run_turn(inner, index);
        let mut state = inner.state.lock().unwrap();
        state.active -= 1;
        let job = &mut state.jobs[index];
        let mut paused_event = None;
        match turn {
            Ok(Turn::Requeue) => {
                if job.pause_requested {
                    job.state = JobState::Paused;
                    paused_event = Some(Event::Paused {
                        id: job.id.clone(),
                        injected: job.injected,
                    });
                } else {
                    job.state = JobState::Queued;
                    state.queue.push_back(index);
                    inner.wake.notify_one();
                }
            }
            Ok(Turn::Finished(final_state)) => job.state = final_state,
            Err(message) => {
                let id = job.id.clone();
                job.state = JobState::Failed;
                drop(state);
                inner.emit(Event::Error {
                    id: Some(id),
                    message,
                });
                inner.idle.notify_all();
                continue;
            }
        }
        drop(state);
        if let Some(event) = paused_event {
            inner.emit(event);
        }
        inner.idle.notify_all();
    }
}

/// One scheduling turn of one job: rebuild the flow (memoized), probe the
/// stores, run one batch, persist the prefix.
fn run_turn(inner: &Inner, index: usize) -> Result<Turn, String> {
    let (id, spec, prefix, batches) = {
        let state = inner.state.lock().unwrap();
        let job = &state.jobs[index];
        (
            job.id.clone(),
            job.spec.clone(),
            job.prefix.clone(),
            job.batches,
        )
    };
    let _job_span = tmr_trace::span("serve.job");
    tmr_trace::attr_current("id", id.as_str());
    tmr_trace::attr_current("turn", batches);

    let flow = build_flow(inner, &spec).map_err(|err| err.to_string())?;
    let campaign = spec.campaign()?;
    let fingerprint = flow.campaign_fingerprint(&campaign);
    let result_key = CacheKey::new("campaign", fingerprint);
    let prefix_key = CacheKey::new("campaign.partial", fingerprint);

    // First turn: a finished result in the in-process table or the store
    // answers the whole job with zero simulations.
    if batches == 0 && prefix.is_none() {
        let memory_hit = inner.completed.lock().unwrap().get(&fingerprint).cloned();
        let (hit, source) = match memory_hit {
            Some(result) => (Some(result), ResultSource::Memory),
            None => match inner
                .store
                .as_ref()
                .and_then(|store| store.load_as::<CampaignResult>(result_key))
            {
                Some(result) => (Some(Arc::new(result)), ResultSource::Store),
                None => (None, ResultSource::Run),
            },
        };
        if let Some(result) = hit {
            inner
                .completed
                .lock()
                .unwrap()
                .insert(fingerprint, result.clone());
            emit_started(inner, index, &id, fingerprint, spec.faults, 0);
            finish(inner, index, &id, &result, source, 0, false);
            return Ok(Turn::Finished(JobState::Done));
        }
    }

    // Recover the prefix: the job table keeps the freshest copy; the store
    // covers resumption across processes.
    let prefix = prefix.or_else(|| {
        inner
            .store
            .as_ref()
            .and_then(|store| store.load_as::<CampaignPrefix>(prefix_key))
    });
    let resumed = prefix.as_ref().map_or(0, |p| p.outcomes.len());
    emit_started(inner, index, &id, fingerprint, spec.faults, resumed);

    let routed = flow.routed().map_err(|err| err.to_string())?;
    let mut session = flow
        .campaign_session(&routed, &campaign)
        .map_err(|err| err.to_string())?;
    if let Some(prefix) = prefix {
        session = session.with_prefix(prefix.outcomes, prefix.simulated, prefix.stats);
    }

    let batch = {
        let _batch_span = tmr_trace::span("serve.batch");
        tmr_trace::attr_current("id", id.as_str());
        let batch = session.next_batch().map(<[_]>::len);
        tmr_trace::attr_current("faults", batch.unwrap_or(0));
        batch
    };
    let progress = session.progress();
    let ci = session.ci_half_width();
    let stopped_early = session.stopped_early();
    let done = batch.is_none() || progress.injected >= progress.planned;
    let turns = batches + 1;

    {
        let mut state = inner.state.lock().unwrap();
        let job = &mut state.jobs[index];
        job.batches = turns;
        job.injected = progress.injected;
        job.planned = progress.planned;
        job.wrong_answers = progress.wrong_answers;
    }

    if done {
        let result = Arc::new(session.into_result());
        if let Some(store) = &inner.store {
            store.save_value(result_key, result.as_ref());
            store.remove(prefix_key);
        }
        inner
            .completed
            .lock()
            .unwrap()
            .insert(fingerprint, result.clone());
        finish(
            inner,
            index,
            &id,
            &result,
            ResultSource::Run,
            turns,
            stopped_early,
        );
        return Ok(Turn::Finished(JobState::Done));
    }

    // Persist the prefix at the batch boundary: the exact-prefix guarantee
    // makes any later resume byte-identical.
    let so_far = session.into_result();
    let prefix = CampaignPrefix {
        outcomes: so_far.outcomes,
        simulated: so_far.simulated,
        stats: so_far.stats,
    };
    if let Some(store) = &inner.store {
        store.save_value(prefix_key, &prefix);
    }
    {
        let mut state = inner.state.lock().unwrap();
        state.jobs[index].prefix = Some(prefix);
    }
    inner.emit(Event::Progress {
        id,
        injected: progress.injected,
        planned: progress.planned,
        wrong_answers: progress.wrong_answers,
        simulated: progress.simulated,
        ci,
        batches: turns,
    });
    Ok(Turn::Requeue)
}

fn emit_started(
    inner: &Inner,
    index: usize,
    id: &str,
    fingerprint: u64,
    planned: usize,
    resumed: usize,
) {
    let first = {
        let mut state = inner.state.lock().unwrap();
        let job = &mut state.jobs[index];
        !std::mem::replace(&mut job.started_emitted, true)
    };
    if first {
        inner.emit(Event::Started {
            id: id.to_string(),
            fingerprint,
            planned,
            resumed,
        });
    }
}

fn finish(
    inner: &Inner,
    index: usize,
    id: &str,
    result: &CampaignResult,
    served_from: ResultSource,
    batches: usize,
    stopped_early: bool,
) {
    {
        let mut state = inner.state.lock().unwrap();
        let job = &mut state.jobs[index];
        job.injected = result.injected();
        job.planned = result.injected();
        job.wrong_answers = result.wrong_answers();
        job.batches = batches;
    }
    inner.emit(Event::Result {
        id: id.to_string(),
        design: result.design.clone(),
        injected: result.injected(),
        wrong_answers: result.wrong_answers(),
        rate_percent: result.wrong_answer_percent(),
        simulated: result.simulated,
        stopped_early,
        served_from,
        batches,
    });
}

/// Builds the job's flow: shared memory cache, shared store, single-shard
/// batches (fairness comes from turn scheduling, not intra-batch threads).
/// Every device comes from the service's device memo: the spec's pinned
/// size, or else an XC2S200E-like architecture auto-sized to the
/// synthesized netlist. The probe flow that synthesizes for auto-sizing
/// shares the synthesis stage with the real flow, which is keyed by design
/// identity only.
fn build_flow(inner: &Inner, spec: &JobSpec) -> Result<Flow, tmr_fpga::Error> {
    let design = spec
        .design_instance()
        .expect("spec validated at submission");
    let tmr = spec.tmr_config().expect("spec validated at submission");
    let params = match spec.device_params() {
        Some(params) => params,
        None => {
            let params = DeviceParams::xc2s200e_like();
            let probe = configure(
                FlowBuilder::new(&inner.device(params), &design),
                inner,
                spec,
                tmr.clone(),
            )
            .build();
            let synthesized = probe.synthesized()?;
            device_params_for(params, &[synthesized.netlist()], 0.50)
        }
    };
    let device = inner.device(params);
    Ok(configure(FlowBuilder::new(&device, &design), inner, spec, tmr).build())
}

fn configure(
    builder: FlowBuilder,
    inner: &Inner,
    spec: &JobSpec,
    tmr: Option<tmr_core::TmrConfig>,
) -> FlowBuilder {
    let mut builder = builder.seed(spec.seed).shards(1).cache(inner.mem.clone());
    if let Some(config) = tmr {
        builder = builder.tmr(config);
    }
    if let Some(store) = &inner.store {
        builder = builder.store(store.clone());
    }
    builder
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tmr_fpga::flow::device_for;

    fn spec(variant: &str, device: Option<(u16, u16)>) -> JobSpec {
        let mut spec = JobSpec::new("counter:4");
        spec.variant = variant.to_string();
        spec.faults = 96;
        spec.batch = 32;
        spec.device = device;
        spec
    }

    /// The job's flow built the way it was before the memo: a fresh probe
    /// device and a fresh auto-sized (or pinned) device per call.
    fn unmemoized_flow(inner: &Inner, spec: &JobSpec) -> Flow {
        let design = spec.design_instance().unwrap();
        let tmr = spec.tmr_config().unwrap();
        let device = spec.device_instance().unwrap_or_else(|| {
            let params = DeviceParams::xc2s200e_like();
            let probe = configure(
                FlowBuilder::new(&Device::new(params), &design),
                inner,
                spec,
                tmr.clone(),
            )
            .build();
            device_for(params, &[probe.synthesized().unwrap().netlist()], 0.50)
        });
        configure(FlowBuilder::new(&device, &design), inner, spec, tmr).build()
    }

    #[test]
    fn jobs_share_one_device_per_size_and_match_unmemoized_results() {
        let specs = [
            spec("standard", None),
            spec("p2", None),
            spec("p3", None),
            spec("p2", Some((8, 8))),
        ];
        let (service, _events) = CampaignService::new(ServiceConfig::default());
        for spec in &specs {
            service.submit(None, spec.clone()).unwrap();
        }
        service.wait_idle();
        let inner = &service.inner;
        let fresh = CampaignService::new(ServiceConfig::default()).0;
        let references: Vec<Flow> = specs
            .iter()
            .map(|spec| unmemoized_flow(&fresh.inner, spec))
            .collect();

        // The memo holds the probe entry plus one entry per fitted or pinned
        // size, and each entry was built once.
        let mut expected = HashSet::from([DeviceParams::xc2s200e_like()]);
        expected.extend(references.iter().map(|flow| *flow.device().params()));
        assert!(expected.contains(&DeviceParams::small(8, 8)));
        let built: HashSet<DeviceParams> = inner
            .devices
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, cell)| cell.get().is_some())
            .map(|(params, _)| *params)
            .collect();
        assert_eq!(built, expected);

        let completed = inner.completed.lock().unwrap();
        for (spec, reference) in specs.iter().zip(&references) {
            // Rebuilding a job's flow reuses the memoized device.
            let flow = build_flow(inner, spec).unwrap();
            let again = build_flow(inner, spec).unwrap();
            assert!(std::ptr::eq(
                flow.device().config_layout(),
                again.device().config_layout()
            ));
            assert_eq!(flow.device().params(), reference.device().params());

            let campaign = spec.campaign().unwrap();
            let fingerprint = flow.campaign_fingerprint(&campaign);
            assert_eq!(reference.campaign_fingerprint(&campaign), fingerprint);
            assert_eq!(
                *completed[&fingerprint],
                *reference.campaign(&campaign).unwrap(),
                "{} on {:?}",
                spec.variant,
                spec.device
            );
        }
        drop(completed);
        assert_eq!(inner.devices.lock().unwrap().len(), expected.len());
        assert!(fresh.inner.devices.lock().unwrap().is_empty());
    }
}
