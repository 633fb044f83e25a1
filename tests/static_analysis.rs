//! Cross-validation of the static criticality analyzer against the dynamic
//! fault-injection campaign on the paper TMR configurations.
//!
//! Two properties are asserted per design:
//!
//! 1. **Static soundness** — every fault the dynamic campaign reports with
//!    `crosses_domains == true` has its bit flagged
//!    [`Verdict::DomainCrossing`] by the static analysis (the analyzer never
//!    misses a voter-defeating candidate), and more broadly every
//!    dynamically observed wrong answer comes from a bit the analysis keeps
//!    in its observable set.
//! 2. **Pruning transparency** — the pruned campaign samples the same bits
//!    and produces *identical* outcomes while simulating strictly fewer
//!    faults.
//!
//! A differential harness also checks [`StaticAnalysis::run`], which
//! classifies only the design-related bits, against the exhaustive walk that
//! classifies every configuration bit, and [`RoutedDesign::bit_report`]
//! against a per-resource walk.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use tmr_fpga::analyze::{CriticalityReport, PruneWith, StaticAnalysis, Verdict};
use tmr_fpga::arch::{BitCategory, ConfigResource, Device, MbuPattern};
use tmr_fpga::designs::{counter, FirFilter};
use tmr_fpga::faultsim::{classify_bit, CampaignBuilder, FaultClass, FaultModel};
use tmr_fpga::flow::{device_for, FlowBuilder};
use tmr_fpga::fuzz::{variant_config, RegressionCase};
use tmr_fpga::netlist::Domain;
use tmr_fpga::pnr::{BitReport, RoutedDesign};
use tmr_fpga::synth::Design;
use tmr_fpga::tmr::TmrConfig;

/// The multi-bit fault models cross-validated against the analyzer.
fn multi_bit_models() -> [FaultModel; 3] {
    [
        FaultModel::Mbu {
            pattern: MbuPattern::PairInFrame,
        },
        FaultModel::Mbu {
            pattern: MbuPattern::Tile2x2,
        },
        FaultModel::Accumulate {
            upsets_per_scrub: 2,
        },
    ]
}

fn assert_static_soundness(config: TmrConfig, grid: u16, seed: u64) {
    let label = config.label.clone();
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(grid, grid);
    let flow = FlowBuilder::new(&device, &base)
        .tmr(config)
        .seed(seed)
        .build();
    let routed = flow.routed().expect("implementation");

    let analyzed = flow.analyzed().expect("analysis");
    let analysis = analyzed.analysis();
    assert!(
        analysis.voted_tmr(),
        "{label}: the paper TMR configs are pad-voted designs"
    );
    assert_eq!(analysis.bit_count(), device.config_layout().bit_count());

    let campaign = CampaignBuilder::new().faults(700).cycles(12).sequential();
    let unpruned = campaign
        .clone()
        .run(&device, routed.design())
        .expect("campaign");

    // 1a. Dynamic domain crossings are contained in the static critical set.
    let mut dynamic_crossings = 0;
    for outcome in &unpruned.outcomes {
        if outcome.crosses_domains {
            dynamic_crossings += 1;
            assert!(
                matches!(
                    analysis.verdict(outcome.bit),
                    Verdict::DomainCrossing { .. }
                ),
                "{label}: bit {} crosses domains dynamically but is {} statically",
                outcome.bit,
                analysis.verdict(outcome.bit)
            );
        }
    }
    assert!(
        dynamic_crossings > 0,
        "{label}: the sample must contain domain-crossing candidates"
    );

    // 1b. Every observed failure comes from a statically observable bit.
    for outcome in unpruned.outcomes.iter().filter(|o| o.wrong_answer) {
        assert!(
            analysis
                .observable_bits()
                .binary_search(&outcome.bit)
                .is_ok(),
            "{label}: bit {} caused a wrong answer but was statically pruned ({})",
            outcome.bit,
            analysis.verdict(outcome.bit)
        );
    }

    // 2. The pruned campaign is bit-identical over the same sampled bits and
    //    simulates strictly fewer faults.
    let pruned = campaign
        .prune_with(analysis)
        .run(&device, routed.design())
        .expect("campaign");
    assert_eq!(
        pruned.outcomes, unpruned.outcomes,
        "{label}: pruning must not change any outcome"
    );
    assert_eq!(pruned.fault_list_size, unpruned.fault_list_size);
    assert!(
        pruned.simulated < unpruned.simulated,
        "{label}: pruning must reduce simulated faults ({} vs {})",
        pruned.simulated,
        unpruned.simulated
    );
}

#[test]
fn static_analysis_is_sound_for_paper_p1() {
    // 24x24 = 1152 LUT sites: tmr_p1, the largest variant, needs 957.
    assert_static_soundness(TmrConfig::paper_p1(), 24, 1);
}

#[test]
fn static_analysis_is_sound_for_paper_p2() {
    assert_static_soundness(TmrConfig::paper_p2(), 20, 1);
}

/// Pruned *multi-bit* campaigns are transparent too: a cluster or scrub
/// interval is only skipped when every behaviour-changing bit is statically
/// confined to one common redundant domain, so outcomes are identical while
/// strictly fewer faults are simulated.
#[test]
fn mbu_pruning_is_transparent_and_strictly_cheaper() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(20, 20);
    let flow = FlowBuilder::new(&device, &base)
        .tmr(TmrConfig::paper_p2())
        .seed(1)
        .build();
    let routed = flow.routed().expect("implementation");
    let analysis = flow.analyzed().expect("analysis");
    assert!(analysis.analysis().voted_tmr());

    for model in multi_bit_models() {
        let campaign = CampaignBuilder::new()
            .faults(500)
            .cycles(10)
            .fault_model(model)
            .sequential();
        let unpruned = campaign
            .clone()
            .run(&device, routed.design())
            .expect("campaign");
        let pruned = campaign
            .prune_with(analysis.analysis())
            .run(&device, routed.design())
            .expect("campaign");
        assert_eq!(
            pruned.outcomes, unpruned.outcomes,
            "{model}: pruning must not change any outcome"
        );
        assert!(
            pruned.simulated < unpruned.simulated,
            "{model}: pruning must reduce simulated faults ({} vs {})",
            pruned.simulated,
            unpruned.simulated
        );
        // Every pruned-away fault is one the analyzer's merged verdict rules
        // out; every wrong answer stays statically observable.
        for outcome in unpruned.outcomes.iter().filter(|o| o.wrong_answer) {
            assert!(
                analysis.analysis().fault_possibly_observable(&outcome.bits),
                "{model}: fault {:?} caused a wrong answer but was statically maskable",
                outcome.bits
            );
        }
    }
}

#[test]
fn unprotected_designs_are_never_pruned() {
    // Without voters nothing is maskable: the observable set must keep every
    // bit whose overlay is non-empty, so pruning only skips what the engine
    // skips anyway and campaign results are unchanged — under every fault
    // model.
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(14, 14);
    let flow = FlowBuilder::new(&device, &base).seed(3).build();
    let routed = flow.routed().expect("implementation");
    let analysis = StaticAnalysis::run(&device, routed.design());
    assert!(!analysis.voted_tmr());
    assert_eq!(analysis.maskable_domains().count(), 0);

    let mut models = vec![FaultModel::SingleBit];
    models.extend(multi_bit_models());
    for model in models {
        let campaign = CampaignBuilder::new()
            .faults(300)
            .cycles(8)
            .fault_model(model)
            .sequential();
        let unpruned = campaign
            .clone()
            .run(&device, routed.design())
            .expect("campaign");
        let pruned = campaign
            .prune_with(&analysis)
            .run(&device, routed.design())
            .expect("campaign");
        assert_eq!(pruned.outcomes, unpruned.outcomes, "{model}");
        assert_eq!(
            pruned.simulated, unpruned.simulated,
            "{model}: an unprotected design offers nothing to prune"
        );
    }
}

/// The analysis as a walk over the whole configuration space: every bit
/// through [`classify_bit`] and [`Verdict::from_affected_domains`].
struct ExhaustiveWalk {
    verdicts: Vec<Verdict>,
    classes: Vec<FaultClass>,
    domains: Vec<BTreeSet<Domain>>,
    design_related: usize,
    observable: Vec<usize>,
}

impl ExhaustiveWalk {
    fn run(device: &Device, routed: &RoutedDesign, voted_tmr: bool) -> Self {
        let layout = device.config_layout();
        let mut walk = ExhaustiveWalk {
            verdicts: Vec::new(),
            classes: Vec::new(),
            domains: Vec::new(),
            design_related: 0,
            observable: Vec::new(),
        };
        for bit in 0..layout.bit_count() {
            let resource = layout.resource_at(bit).expect("bit in range");
            if routed.resource_is_design_related(device, &resource) {
                walk.design_related += 1;
            }
            let effect = classify_bit(device, routed, bit);
            let domains = effect.affected_domains(routed);
            let verdict = Verdict::from_affected_domains(&domains, effect.class);
            if verdict.possibly_observable(voted_tmr) {
                walk.observable.push(bit);
            }
            walk.verdicts.push(verdict);
            walk.classes.push(effect.class);
            walk.domains.push(domains);
        }
        walk
    }

    /// The report of the walk's verdicts.
    fn report(&self, design: &str, voted_tmr: bool) -> CriticalityReport {
        let mut report = CriticalityReport {
            design: design.to_string(),
            total_bits: self.verdicts.len(),
            design_related: self.design_related,
            observable: self.observable.len(),
            voted_tmr,
            benign: 0,
            single_domain: BTreeMap::new(),
            crossing: BTreeMap::new(),
            defeating_bits: Vec::new(),
        };
        for (bit, &verdict) in self.verdicts.iter().enumerate() {
            match verdict {
                Verdict::Benign => report.benign += 1,
                Verdict::SingleDomain(domain) => {
                    *report.single_domain.entry(domain).or_default() += 1;
                }
                Verdict::DomainCrossing { domains, class } => {
                    *report
                        .crossing
                        .entry(domains)
                        .or_default()
                        .entry(class)
                        .or_default() += 1;
                    report.defeating_bits.push(bit);
                }
            }
        }
        report
    }
}

/// Asserts that `StaticAnalysis::run` equals the exhaustive walk in every
/// field — verdict, class and affected domains of every bit, the
/// design-related count and the observable set — and in its report. The
/// structural TMR preconditions (`voted_tmr`) are not part of the walk; the
/// walk judges observability under the analysis' own.
fn assert_matches_the_exhaustive_walk(label: &str, device: &Device, routed: &RoutedDesign) {
    let analysis = StaticAnalysis::run(device, routed);
    let voted_tmr = analysis.voted_tmr();
    let walk = ExhaustiveWalk::run(device, routed, voted_tmr);
    assert_eq!(analysis.design(), routed.netlist().name(), "{label}");
    assert_eq!(analysis.bit_count(), walk.verdicts.len(), "{label}");
    assert_eq!(analysis.design_related(), walk.design_related, "{label}");
    assert_eq!(analysis.verdicts(), walk.verdicts.as_slice(), "{label}");
    assert_eq!(
        analysis.observable_bits(),
        walk.observable.as_slice(),
        "{label}"
    );
    for bit in 0..walk.verdicts.len() {
        assert_eq!(analysis.class(bit), walk.classes[bit], "{label}: bit {bit}");
        assert_eq!(
            analysis.affected_domains(bit),
            walk.domains[bit],
            "{label}: bit {bit}"
        );
    }
    assert_eq!(
        analysis.report(),
        walk.report(routed.netlist().name(), voted_tmr),
        "{label}"
    );
    assert!(walk.design_related < walk.verdicts.len(), "{label}");
}

/// `bit_report` counted the old way: every configuration bit, its resource
/// judged against the route trees and the placement directly.
fn per_resource_bit_report(device: &Device, routed: &RoutedDesign) -> BitReport {
    let used: HashSet<_> = routed
        .routes()
        .flat_map(|(_, tree)| tree.nodes.iter().copied())
        .collect();
    let layout = device.config_layout();
    let mut report = BitReport::default();
    for bit in 0..layout.bit_count() {
        let related = match layout.resource_at(bit).expect("bit in range") {
            ConfigResource::Pip(pip) => {
                let pip = device.pip(pip);
                used.contains(&pip.src) || used.contains(&pip.dst)
            }
            ConfigResource::LutBit { site, .. } | ConfigResource::FfInit { site } => {
                routed.placement().cell_at(site).is_some()
            }
        };
        if related {
            match layout.category_at(bit) {
                BitCategory::GeneralRouting => report.routing_bits += 1,
                BitCategory::ClbCustomization => report.clb_mux_bits += 1,
                BitCategory::LutContents => report.lut_bits += 1,
                BitCategory::FlipFlop => report.ff_bits += 1,
            }
        }
    }
    report
}

/// Implements `base` under `tmr` on `device` with placement seed `seed`.
fn implement(device: &Device, base: &Design, tmr: Option<TmrConfig>, seed: u64) -> RoutedDesign {
    let mut builder = FlowBuilder::new(device, base).seed(seed);
    if let Some(tmr) = tmr {
        builder = builder.tmr(tmr);
    }
    builder
        .build()
        .routed()
        .expect("implementation")
        .design()
        .clone()
}

#[test]
fn restricted_analysis_matches_the_exhaustive_walk_on_the_paper_variants() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(24, 24);
    let mut variants = vec![("standard".to_string(), None)];
    for config in TmrConfig::paper_presets() {
        variants.push((format!("tmr_{}", config.label), Some(config)));
    }
    for (label, tmr) in variants {
        let routed = implement(&device, &base, tmr, 1);
        assert_matches_the_exhaustive_walk(&label, &device, &routed);
        assert_eq!(
            routed.bit_report(&device),
            per_resource_bit_report(&device, &routed),
            "{label}"
        );
    }
}

#[test]
fn restricted_analysis_matches_the_exhaustive_walk_on_a_tmr_counter() {
    let device = Device::small(8, 8);
    let routed = implement(&device, &counter(4), Some(TmrConfig::paper_p2()), 5);
    assert_matches_the_exhaustive_walk("counter(4) p2", &device, &routed);
}

#[test]
fn restricted_analysis_matches_the_exhaustive_walk_on_the_fuzz_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_regressions");
    let mut cases = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus directory exists") {
        let path = entry.expect("corpus directory is readable").path();
        if path.extension().is_none_or(|ext| ext != "case") {
            continue;
        }
        let label = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("corpus case is readable");
        let case = RegressionCase::parse(&text).expect("corpus case parses");
        let design = case.spec.to_design().expect("corpus design rebuilds");
        let tmr = variant_config(&case.variant).expect("known variant");
        // Size the device the way the fuzzer does: synthesize on the base
        // architecture, then auto-size.
        let probe = Device::new(case.params);
        let mut builder = FlowBuilder::new(&probe, &design);
        if let Some(tmr) = &tmr {
            builder = builder.tmr(tmr.clone());
        }
        let synthesized = builder.build().synthesized().expect("synthesis");
        let device = device_for(
            case.params,
            &[synthesized.netlist()],
            case.options().max_utilisation,
        );
        let routed = implement(&device, &design, tmr, case.pnr_seed);
        assert_matches_the_exhaustive_walk(&label, &device, &routed);
        cases += 1;
    }
    assert!(cases > 0, "the fuzz corpus is not empty");
}

#[test]
fn restricted_analysis_matches_the_exhaustive_walk_on_an_xc2s200e_like_device() {
    let device = Device::xc2s200e_like();
    let base = FirFilter::small_filter().to_design();
    let routed = implement(&device, &base, Some(TmrConfig::paper_p3()), 1);
    assert_matches_the_exhaustive_walk("xc2s200e-like tmr_p3", &device, &routed);
}
