//! `service_store`: an in-process `CampaignService` (2 workers) over a fresh
//! disk `Store`, fed registry designs. The set-up is the cold phase: the
//! whole job set is submitted at once, so every job is implemented on an
//! auto-sized device, simulated and written to the store. The timed warm
//! phase restarts the service over the same store and resubmits the same
//! specs from two closed-loop clients; every job is then served from the
//! store. This is the only workload that touches `tmr-store`, `tmr-serve`
//! and `device_for` auto-sizing.

use crate::layers;
use crate::stats::{Digest, SeedStream};
use crate::trace::Tracer;
use crate::{Config, LayerCounters, Report};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmr_fpga::arch::{Device, DeviceParams};
use tmr_fpga::flow::device_for;
use tmr_fpga::tmr::pipeline::CacheKey;
use tmr_fpga::{DiskStats, Store};
use tmr_serve::{CampaignService, Event, JobSpec, ResultSource, ServiceConfig};

const DESIGNS: [&str; 3] = ["counter:4", "accumulator:4", "moving_sum:3,4,6"];
const VARIANTS: [&str; 5] = ["standard", "p1", "p2", "p3", "p3_nv"];
const MODELS: [&str; 3] = ["single", "mbu:2x2", "accumulate:4"];
const FAULTS: usize = 128;
/// Faults per scheduling turn: every cold job takes two turns.
const BATCH: usize = 64;
const WORKERS: usize = 2;
/// Closed-loop clients of the warm phase.
const CLIENTS: usize = 2;
/// Longest wait for one service event before the run is abandoned.
const EVENT_TIMEOUT: Duration = Duration::from_secs(150);

/// The generated inputs: one job per design and variant; the seed picks
/// each job's fault model and its stimulus and sampling seeds. Placement
/// stays at the service default, for the reason given in `paper_sweep`.
pub fn inputs(seed: u64) -> Vec<JobSpec> {
    let mut seeds = SeedStream::new(seed);
    let mut specs = Vec::new();
    for design in DESIGNS {
        for variant in VARIANTS {
            let mut spec = JobSpec::new(design);
            spec.variant = variant.to_string();
            spec.model = MODELS[(seeds.next_seed() % 3) as usize].to_string();
            spec.faults = FAULTS;
            spec.batch = BATCH;
            spec.stimulus_seed = Some(seeds.next_seed());
            spec.sampling_seed = Some(seeds.next_seed());
            specs.push(spec);
        }
    }
    specs
}

/// The campaign outcome a `Result` event reports.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    design: String,
    injected: usize,
    wrong_answers: usize,
    simulated: usize,
}

/// What the client saw of one job.
#[derive(Debug, Clone, Default)]
struct Job {
    submitted: Option<Instant>,
    started: Option<Instant>,
    finished: Option<Instant>,
    fingerprint: u64,
    progress_events: usize,
    outcome: Option<Outcome>,
    served_from: Option<ResultSource>,
    /// Scheduling turns the service spent on the job.
    turns: usize,
}

impl Job {
    fn latency(&self) -> Option<f64> {
        Some((self.finished? - self.submitted?).as_secs_f64())
    }
}

/// Runs one service over `store`, submitting `specs` from `clients`
/// closed-loop clients (`clients == specs.len()` submits everything at
/// once), until every submitted job finished. Stops submitting at
/// `deadline`.
fn serve(
    store: &Arc<Store>,
    specs: &[JobSpec],
    clients: usize,
    deadline: Option<Instant>,
) -> Result<(Vec<Job>, f64), String> {
    let (service, events) = CampaignService::new(ServiceConfig {
        workers: WORKERS,
        store: Some(store.clone()),
    });
    let mut jobs = vec![Job::default(); specs.len()];
    let began = Instant::now();
    let mut next = 0;
    let mut pending = 0;
    let submit = |jobs: &mut [Job], next: &mut usize, pending: &mut usize| {
        if *next == specs.len() || deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(());
        }
        jobs[*next].submitted = Some(Instant::now());
        service.submit(Some(format!("job-{next}")), specs[*next].clone())?;
        *next += 1;
        *pending += 1;
        Ok::<_, String>(())
    };
    for _ in 0..clients {
        submit(&mut jobs, &mut next, &mut pending)?;
    }
    let count = specs.len();
    while pending > 0 {
        let event = events
            .recv_timeout(EVENT_TIMEOUT)
            .map_err(|err| format!("no service event within {EVENT_TIMEOUT:?}: {err}"))?;
        let at = Instant::now();
        let index = |id: &str| {
            id.strip_prefix("job-")
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n < count)
                .ok_or_else(|| format!("unexpected job id {id:?}"))
        };
        match event {
            Event::Started {
                id, fingerprint, ..
            } => {
                let job = &mut jobs[index(&id)?];
                job.started = Some(at);
                job.fingerprint = fingerprint;
            }
            Event::Progress { id, .. } => jobs[index(&id)?].progress_events += 1,
            Event::Result {
                id,
                design,
                injected,
                wrong_answers,
                simulated,
                served_from,
                batches,
                ..
            } => {
                let job = &mut jobs[index(&id)?];
                job.finished = Some(at);
                job.outcome = Some(Outcome {
                    design,
                    injected,
                    wrong_answers,
                    simulated,
                });
                job.served_from = Some(served_from);
                job.turns = batches;
                pending -= 1;
                submit(&mut jobs, &mut next, &mut pending)?;
            }
            Event::Error { id, message } => {
                return Err(format!("job {id:?} failed: {message}"));
            }
            _ => {}
        }
    }
    let wall = began.elapsed().as_secs_f64();
    drop(service);
    jobs.truncate(next);
    Ok((jobs, wall))
}

/// A fresh store directory inside the working directory.
fn fresh_store(label: &str) -> Result<(PathBuf, Arc<Store>), String> {
    let dir = PathBuf::from(crate::OUT_DIR).join(format!("store-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).map_err(|err| format!("cannot open {}: {err}", dir.display()))?;
    Ok((dir, Arc::new(store)))
}

fn remove(dir: &Path) {
    if let Err(err) = std::fs::remove_dir_all(dir) {
        eprintln!("cannot remove {}: {err}", dir.display());
    }
}

/// Cold-phase checks: every job ran, injected its budget and was computed.
fn check_cold(report: &mut Report, cold: &[Job]) {
    for (i, job) in cold.iter().enumerate() {
        let injected = job.outcome.as_ref().map(|o| o.injected);
        let ok = injected == Some(FAULTS) && job.served_from == Some(ResultSource::Run);
        report.check(ok, || {
            format!(
                "cold job-{i}: injected {injected:?}, from {:?}",
                job.served_from
            )
        });
    }
}

/// Warm-phase checks: each job equals its cold result, came from the store
/// and simulated nothing (no turn taken, no progress event).
fn check_warm(report: &mut Report, cold: &[Job], warm: &[Job]) {
    for (i, job) in warm.iter().enumerate() {
        report.check(job.outcome == cold[i].outcome, || {
            format!(
                "warm job-{i}: {:?} differs from cold {:?}",
                job.outcome, cold[i].outcome
            )
        });
        let served = job.served_from == Some(ResultSource::Store) && job.turns == 0;
        report.check(served && job.progress_events == 0, || {
            format!(
                "warm job-{i} was not served from the store: from {:?}, {} turns, {} progress events",
                job.served_from, job.turns, job.progress_events
            )
        });
    }
}

/// Records the store counters one phase added (`after` minus `before`).
fn record_store(phase: &str, before: DiskStats, after: DiskStats) {
    crate::record(&format!("store.{phase}.hits"), after.hits - before.hits);
    crate::record(
        &format!("store.{phase}.misses"),
        after.misses - before.misses,
    );
    crate::record(
        &format!("store.{phase}.writes"),
        after.writes - before.writes,
    );
}

fn record_results(cold: &[Job]) {
    let mut digest = Digest::default();
    for outcome in cold.iter().filter_map(|job| job.outcome.as_ref()) {
        digest
            .write(outcome.injected as u64)
            .write(outcome.wrong_answers as u64)
            .write(outcome.simulated as u64);
    }
    crate::record("jobs.results.digest", format!("{:016x}", digest.finish()));
    crate::record(
        "jobs.simulated",
        cold.iter()
            .filter_map(|job| job.outcome.as_ref())
            .map(|o| o.simulated)
            .sum::<usize>(),
    );
}

pub fn run(config: &Config, report: &mut Report) -> Result<(), String> {
    let specs = inputs(config.seed);
    if config.trace {
        return run_traced(config, report, &specs);
    }
    let mut setup = Vec::new();
    let mut cold_latencies = Vec::new();
    let mut kept = None;
    for repeat in 0..config.setup_repeats() {
        let (dir, store) = fresh_store(&format!("cold{repeat}"))?;
        let (cold, wall) = serve(&store, &specs, specs.len(), None)?;
        setup.push(wall);
        report.attempted += cold.len() as u64;
        check_cold(report, &cold);
        cold_latencies.extend(cold.iter().filter_map(Job::latency));
        if let Some((old_dir, ..)) = kept.replace((dir, store, cold)) {
            remove(&old_dir);
        }
    }
    let (dir, store, cold) = kept.expect("at least one set-up");
    record_results(&cold);
    record_store("cold", DiskStats::default(), store.stats());

    let mut warm_latencies = Vec::new();
    let mut served_faults = 0;
    let mut busy = 0.0;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(config.seconds);
    let mut rounds = 0;
    while config.more(start, rounds) {
        let before = store.stats();
        let (warm, wall) = serve(&store, &specs, CLIENTS, (rounds > 0).then_some(deadline))?;
        if rounds == 0 {
            record_store("warm_round", before, store.stats());
        }
        rounds += 1;
        busy += wall;
        report.attempted += warm.len() as u64;
        check_warm(report, &cold, &warm);
        warm_latencies.extend(warm.iter().filter_map(Job::latency));
        served_faults += warm
            .iter()
            .filter_map(|job| job.outcome.as_ref())
            .map(|o| o.injected)
            .sum::<usize>();
    }
    remove(&dir);

    println!(
        "cold_job_p50_s: {}",
        crate::stats::describe(&cold_latencies, 1.0, "s")
    );
    println!(
        "warm_job_p50_ms / warm_job_tail_ms: {}",
        crate::stats::describe(&warm_latencies, 1e3, "ms")
    );
    crate::end_to_end(
        report,
        &setup,
        &warm_latencies,
        served_faults,
        busy,
        "warm job",
    );
    Ok(())
}

/// Layer-driven replica of what one cold job computes — synthesis, the
/// service's device auto-sizing, implementation, simulation set-up and the
/// campaign — with a span around each layer call.
fn replicate(
    tracer: &Tracer,
    counters: &mut LayerCounters,
    spec: &JobSpec,
    key: &str,
) -> Result<Outcome, String> {
    let error = |err: tmr_fpga::Error| err.to_string();
    tracer.span("bench.job", key, None, |parent| {
        let design = spec.design_instance()?;
        let config = spec.tmr_config()?;
        let netlist =
            layers::synthesize(tracer, parent, key, &design, config.as_ref()).map_err(error)?;
        let params = DeviceParams::xc2s200e_like();
        tracer.span("arch.device_new", key, parent, |_| Device::new(params));
        let device = tracer.span("arch.device_for", key, parent, |_| {
            device_for(params, &[&netlist], 0.50)
        });
        counters.devices_built += 2;
        let variant = match spec.variant.as_str() {
            "standard" => "standard".to_string(),
            other => format!("tmr_{other}"),
        };
        let implemented = layers::implement(tracer, parent, &variant, &device, &netlist, spec.seed)
            .map_err(error)?;
        let campaign = spec.campaign()?.shards(1);
        let simulation = layers::simulation(
            tracer,
            parent,
            key,
            &netlist,
            campaign.options().cycles(),
            campaign.options().stimulus_seed(),
        )
        .map_err(error)?;
        let result = layers::campaign(
            tracer,
            parent,
            key,
            &campaign,
            &simulation,
            &device,
            &implemented.routed,
        )
        .map_err(error)?;
        counters.implemented(&implemented);
        counters.compiled(&simulation.compiled);
        counters.campaign(&result);
        Ok(Outcome {
            design: result.design.clone(),
            injected: result.injected(),
            wrong_answers: result.wrong_answers(),
            simulated: result.simulated,
        })
    })
}

/// Records the service spans of one phase: submit → `Result`, split at
/// `Started` into queue wait and run.
fn record_jobs(tracer: &Tracer, phase: &'static str, jobs: &[Job]) {
    for (i, job) in jobs.iter().enumerate() {
        let key = format!("{phase}/job-{i}");
        let (Some(submitted), Some(started), Some(finished)) =
            (job.submitted, job.started, job.finished)
        else {
            continue;
        };
        let span = tracer.record("serve.job", &key, None, submitted, finished);
        tracer.record("serve.queue", &key, span, submitted, started);
        tracer.record("serve.run", &key, span, started, finished);
    }
}

fn run_traced(config: &Config, report: &mut Report, specs: &[JobSpec]) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let mut counters = LayerCounters::default();
    let (dir, store) = fresh_store("traced")?;
    let (cold, _) = serve(&store, specs, specs.len(), None)?;
    report.attempted += cold.len() as u64;
    check_cold(report, &cold);
    record_jobs(&tracer, "cold", &cold);
    let turns: usize = cold.iter().map(|job| job.turns).sum();
    let cold_stats = store.stats();

    for (i, spec) in specs.iter().enumerate() {
        let replica = replicate(&tracer, &mut counters, spec, &format!("job-{i}"))?;
        report.check(cold[i].outcome.as_ref() == Some(&replica), || {
            format!("job-{i}: layer-driven replica {replica:?} differs from the service")
        });
    }

    let (scratch_dir, scratch) = fresh_store("scratch")?;
    for (i, job) in cold.iter().enumerate() {
        let key = CacheKey::new("campaign", job.fingerprint);
        let payload = tracer.span("store.load", &format!("job-{i}"), None, |_| store.load(key));
        report.check(payload.is_some(), || {
            format!("job-{i}: result missing from the store")
        });
        if let Some(payload) = payload {
            tracer.span("store.save", &format!("job-{i}"), None, |_| {
                scratch.save(key, &payload)
            });
        }
    }
    remove(&scratch_dir);

    let (reference, untraced) = serve(&store, specs, CLIENTS, None)?;
    let before = store.stats();
    let (warm, traced) = serve(&store, specs, CLIENTS, None)?;
    let after = store.stats();
    report.attempted += (reference.len() + warm.len()) as u64;
    check_warm(report, &cold, &reference);
    check_warm(report, &cold, &warm);
    record_jobs(&tracer, "warm", &warm);
    remove(&dir);

    let own = tracer.self_seconds();
    let call = |name: &str| own.get(name).copied().unwrap_or(0.0);
    println!(
        "store.load_s {:.4} s · store.save_s {:.4} s · cold phase: store.misses {} · \
         store.writes {} · warm round: store.hits {}",
        call("store.load"),
        call("store.save"),
        cold_stats.misses,
        cold_stats.writes,
        after.hits - before.hits
    );
    println!(
        "serve.queue_wait_s {:.4} s · serve.run_s {:.4} s · serve.turns {turns}",
        call("serve.queue"),
        call("serve.run")
    );
    println!("warm round: untraced {untraced:.3} s · traced {traced:.3} s");
    crate::per_layer(
        report,
        &tracer,
        &counters,
        traced - untraced,
        "service_store",
        config.seed,
    );
    Ok(())
}
