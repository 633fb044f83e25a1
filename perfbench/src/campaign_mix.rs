//! `campaign_mix`: many long campaigns per implemented design — the use that
//! feeds campaign rates into dependability models. The set-up implements
//! the paper variants once; the timed rounds then run four campaigns on
//! every variant. Fault simulation, sharding and pruning do nearly all of
//! the work; routing does none.

use crate::layers::{self, Implemented, Simulation};
use crate::stats::SeedStream;
use crate::trace::{SpanId, Tracer};
use crate::{Config, LayerCounters, Report};
use std::time::Instant;
use tmr_fpga::analyze::{PruneWith, StaticAnalysis};
use tmr_fpga::arch::{Device, MbuPattern};
use tmr_fpga::designs::FirFilter;
use tmr_fpga::faultsim::{CampaignBuilder, CampaignResult, SimBackend};
use tmr_fpga::Error;

/// Placement seed of every variant; fixed for the reason given in
/// `paper_sweep`.
const PLACEMENT_SEED: u64 = 1;
const CYCLES: usize = 16;
const SINGLE_FAULTS: usize = 20_000;
const MULTI_FAULTS: usize = 5_000;
/// Faults per batch of the streamed (session) campaign.
const STREAM_BATCH: usize = 1_000;
/// Faults per variant of the untimed equivalence checks.
const CHECK_FAULTS: usize = 48;

/// The four campaign kinds of one round, in run order.
const KINDS: [&str; 4] = ["single", "pruned", "mbu_2x2", "accumulate_4"];

/// The generated inputs: the campaigns of one round (before pruning).
pub fn inputs(seed: u64) -> [CampaignBuilder; 3] {
    let mut seeds = SeedStream::new(seed);
    let stimulus = seeds.next_seed();
    let base = |faults| {
        CampaignBuilder::new()
            .faults(faults)
            .cycles(CYCLES)
            .stimulus_seed(stimulus)
    };
    [
        base(SINGLE_FAULTS).sampling_seed(seeds.next_seed()),
        base(MULTI_FAULTS)
            .sampling_seed(seeds.next_seed())
            .mbu(MbuPattern::Tile2x2),
        base(MULTI_FAULTS)
            .sampling_seed(seeds.next_seed())
            .accumulate(4)
            .batch_size(STREAM_BATCH),
    ]
}

/// One implemented variant with everything its campaigns reuse.
struct Prepared {
    implemented: Implemented,
    analysis: StaticAnalysis,
    simulation: Simulation,
}

/// Implements, analyzes and prepares the simulation of every paper variant,
/// one thread per variant after a sequential synthesis pass.
fn set_up(tracer: &Tracer, stimulus_seed: u64) -> Result<(Device, Vec<Prepared>), Error> {
    let base = FirFilter::small_filter().to_design();
    let device = tracer.span("arch.device_new", "", None, |_| Device::small(24, 24));
    let prepared = tracer.span("bench.setup", "", None, |root| {
        layers::for_each_variant(tracer, root, &base, |parent, name, netlist| {
            let implemented =
                layers::implement(tracer, parent, name, &device, netlist, PLACEMENT_SEED)?;
            let analysis = layers::analyze(tracer, parent, name, &device, &implemented.routed);
            let simulation =
                layers::simulation(tracer, parent, name, netlist, CYCLES, stimulus_seed)?;
            Ok(Prepared {
                implemented,
                analysis,
                simulation,
            })
        })
    })?;
    Ok((device, prepared))
}

/// Drains a streaming session batch by batch.
fn streamed(
    tracer: &Tracer,
    parent: Option<SpanId>,
    key: &str,
    campaign: &CampaignBuilder,
    prepared: &Prepared,
    device: &Device,
) -> Result<CampaignResult, Error> {
    let configured = campaign
        .clone()
        .golden(prepared.simulation.golden.clone())
        .compiled(prepared.simulation.compiled.clone());
    tracer.span("faultsim.session", key, parent, |_| {
        let mut session = configured.session(device, &prepared.implemented.routed)?;
        while session.next_batch().is_some() {}
        Ok(session.into_result())
    })
}

/// One round: the four campaign kinds on every variant. Returns per kind
/// the results in variant order and the wall time spent.
fn round(
    tracer: &Tracer,
    device: &Device,
    prepared: &[Prepared],
    campaigns: &[CampaignBuilder; 3],
) -> Result<[(Vec<CampaignResult>, f64); 4], Error> {
    let mut kinds: [(Vec<CampaignResult>, f64); 4] = Default::default();
    tracer.span("bench.round", "", None, |root| {
        for variant in prepared {
            let name = &variant.implemented.name;
            let routed = &variant.implemented.routed;
            let pruned = campaigns[0].clone().prune_with(&variant.analysis);
            let batch = [&campaigns[0], &pruned, &campaigns[1]];
            for (kind, slot) in kinds.iter_mut().enumerate() {
                let began = Instant::now();
                let result = match batch.get(kind) {
                    Some(campaign) => layers::campaign(
                        tracer,
                        root,
                        name,
                        campaign,
                        &variant.simulation,
                        device,
                        routed,
                    )?,
                    None => streamed(tracer, root, name, &campaigns[2], variant, device)?,
                };
                slot.1 += began.elapsed().as_secs_f64();
                slot.0.push(result);
            }
        }
        Ok::<_, Error>(())
    })?;
    Ok(kinds)
}

/// Per-round checks: every campaign injected its whole sample and pruning
/// left the single-bit outcomes unchanged.
fn check_round(
    report: &mut Report,
    prepared: &[Prepared],
    kinds: &[(Vec<CampaignResult>, f64); 4],
) {
    for (v, variant) in prepared.iter().enumerate() {
        let name = &variant.implemented.name;
        for (kind, planned) in [SINGLE_FAULTS, SINGLE_FAULTS, MULTI_FAULTS, MULTI_FAULTS]
            .into_iter()
            .enumerate()
        {
            let injected = kinds[kind].0[v].injected();
            report.check(injected == planned, || {
                format!("{name} {}: injected {injected} of {planned}", KINDS[kind])
            });
        }
        report.check(kinds[0].0[v].outcomes == kinds[1].0[v].outcomes, || {
            format!("{name}: pruned outcomes differ from unpruned")
        });
    }
}

/// Untimed equivalence checks on a small sample: sharded ≡ sequential and
/// compiled ≡ interpreter, for every fault model of the mix.
fn check_equivalences(
    report: &mut Report,
    device: &Device,
    prepared: &[Prepared],
    campaigns: &[CampaignBuilder; 3],
) -> Result<(), Error> {
    for variant in prepared {
        let name = &variant.implemented.name;
        let routed = &variant.implemented.routed;
        for (kind, campaign) in [0, 2, 3].into_iter().zip(campaigns) {
            let sample = campaign.clone().faults(CHECK_FAULTS);
            let sequential = sample.clone().sequential().run(device, routed)?;
            let sharded = sample.clone().shards(2).run(device, routed)?;
            let interpreted = sample
                .clone()
                .backend(SimBackend::Interpreter)
                .run(device, routed)?;
            report.check(sharded == sequential, || {
                format!("{name} {}: sharded differs from sequential", KINDS[kind])
            });
            report.check(interpreted.outcomes == sequential.outcomes, || {
                format!("{name} {}: compiled differs from interpreter", KINDS[kind])
            });
        }
    }
    Ok(())
}

pub fn run(config: &Config, report: &mut Report) -> Result<(), Error> {
    let campaigns = inputs(config.seed);
    let stimulus_seed = campaigns[0].options().stimulus_seed();
    if config.trace {
        return run_traced(config, report, &campaigns);
    }
    let untraced = Tracer::new(false);
    let mut setup = Vec::new();
    let mut implemented = None;
    for _ in 0..config.setup_repeats() {
        let began = Instant::now();
        implemented = Some(set_up(&untraced, stimulus_seed)?);
        setup.push(began.elapsed().as_secs_f64());
    }
    let (device, prepared) = implemented.expect("at least one set-up");

    let mut rounds = Vec::new();
    let mut per_kind = [(0usize, 0.0f64); 4];
    let mut first: Option<Vec<u64>> = None;
    let start = Instant::now();
    while config.more(start, rounds.len()) {
        let began = Instant::now();
        let kinds = round(&untraced, &device, &prepared, &campaigns)?;
        rounds.push(began.elapsed().as_secs_f64());
        report.attempted += (KINDS.len() * prepared.len()) as u64;
        check_round(report, &prepared, &kinds);
        for (total, (results, seconds)) in per_kind.iter_mut().zip(&kinds) {
            total.0 += results.iter().map(CampaignResult::injected).sum::<usize>();
            total.1 += seconds;
        }
        let digests: Vec<u64> = kinds
            .iter()
            .flat_map(|(results, _)| results.iter().map(layers::outcome_digest))
            .collect();
        match &first {
            None => {
                for (kind, (results, _)) in kinds.iter().enumerate() {
                    for (variant, result) in prepared.iter().zip(results) {
                        let key = format!("{}.{}", KINDS[kind], variant.implemented.name);
                        crate::record(&format!("faultsim.{key}.simulated"), result.simulated);
                        crate::record(
                            &format!("faultsim.{key}.levels_skipped"),
                            result.stats.levels_skipped,
                        );
                        crate::record(
                            &format!("outcomes.{key}.digest"),
                            format!("{:016x}", layers::outcome_digest(result)),
                        );
                    }
                }
                first = Some(digests);
            }
            Some(first) => {
                report.check(*first == digests, || {
                    "a repeated round changed its outcomes".to_string()
                });
            }
        }
    }
    check_equivalences(report, &device, &prepared, &campaigns)?;

    let rate = |(faults, seconds): (usize, f64)| faults as f64 / seconds;
    let multi = (per_kind[2].0 + per_kind[3].0, per_kind[2].1 + per_kind[3].1);
    println!(
        "faults_per_s: {:.0} faults/s (single-bit, unpruned)",
        rate(per_kind[0])
    );
    println!("pruned_faults_per_s: {:.0} faults/s", rate(per_kind[1]));
    println!(
        "mbu_faults_per_s: {:.0} faults/s (MBU 2x2 and accumulate(4))",
        rate(multi)
    );
    let faults = per_kind.iter().map(|(faults, _)| faults).sum();
    let busy = rounds.iter().sum();
    crate::end_to_end(report, &setup, &rounds, faults, busy, "round");
    Ok(())
}

fn run_traced(
    config: &Config,
    report: &mut Report,
    campaigns: &[CampaignBuilder; 3],
) -> Result<(), Error> {
    let tracer = Tracer::new(true);
    let mut counters = LayerCounters::default();
    let (device, prepared) = set_up(&tracer, campaigns[0].options().stimulus_seed())?;
    counters.devices_built += 1;
    for variant in &prepared {
        counters.implemented(&variant.implemented);
        counters.compiled(&variant.simulation.compiled);
    }

    let began = Instant::now();
    let reference = round(&Tracer::new(false), &device, &prepared, campaigns)?;
    let untraced = began.elapsed().as_secs_f64();
    let began = Instant::now();
    let kinds = round(&tracer, &device, &prepared, campaigns)?;
    let traced = began.elapsed().as_secs_f64();
    report.attempted += 2 * (KINDS.len() * prepared.len()) as u64;
    check_round(report, &prepared, &kinds);
    report.check(
        kinds
            .iter()
            .map(|k| &k.0)
            .eq(reference.iter().map(|k| &k.0)),
        || "traced round differs from untraced round".to_string(),
    );
    for (results, _) in &kinds {
        results.iter().for_each(|result| counters.campaign(result));
    }

    crate::print_analyze(&tracer, prepared.iter().map(|p| &p.analysis));
    println!("round: untraced {untraced:.3} s · traced {traced:.3} s");
    crate::per_layer(
        report,
        &tracer,
        &counters,
        traced - untraced,
        "campaign_mix",
        config.seed,
    );
    Ok(())
}
