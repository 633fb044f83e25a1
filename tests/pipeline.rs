//! Determinism tests of the staged pipeline and the streaming campaign
//! session:
//!
//! * cached and cold pipeline runs produce **bit-identical** bitstreams and
//!   campaign results across placement seeds and shard counts (property
//!   test) — the artifact cache may change *when* work happens, never what
//!   it produces;
//! * an early-stopped session's outcomes equal the matching **prefix** of
//!   the full batch run;
//! * a [`Sweep`]'s variant flows, which route on one worker and run
//!   campaigns on one shard, match the same variants run one by one at
//!   default parallelism;
//! * the unified error type chains to the failing layer;
//! * device auto-sizing is pure arithmetic: `device_params_for` names
//!   exactly the device `device_for` builds.

use proptest::prelude::*;
use std::sync::Arc;
use tmr_fpga::arch::{Device, DeviceParams};
use tmr_fpga::designs::{counter, FirFilter};
use tmr_fpga::faultsim::{CampaignBuilder, EarlyStop};
use tmr_fpga::flow::{device_for, device_params_for, FlowBuilder, Sweep};
use tmr_fpga::fuzz::{variant_config, RegressionCase};
use tmr_fpga::synth::Design;
use tmr_fpga::tmr::TmrConfig;
use tmr_fpga::{ArtifactCache, Error};
use tmr_serve::JobSpec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For arbitrary placement seeds, shard counts and fault counts, a flow
    /// backed by a shared (warm) cache and a flow recomputing everything
    /// from scratch produce the same bitstream and the same campaign
    /// result, and re-requesting an artifact returns the cached `Arc`.
    #[test]
    fn cached_and_cold_flows_are_bit_identical(
        seed in 1u64..4,
        shards in 1usize..4,
        faults in 40usize..90
    ) {
        let device = Device::small(8, 8);
        let design = counter(4);
        let cache = ArtifactCache::shared();

        let warm = FlowBuilder::new(&device, &design)
            .tmr(TmrConfig::paper_p2())
            .seed(seed)
            .shards(shards)
            .cache(cache.clone())
            .build();
        let cold = FlowBuilder::new(&device, &design)
            .tmr(TmrConfig::paper_p2())
            .seed(seed)
            .shards(shards)
            .build();

        let warm_routed = warm.routed().unwrap();
        let cold_routed = cold.routed().unwrap();
        prop_assert_eq!(warm_routed.bitstream(), cold_routed.bitstream());
        prop_assert_eq!(warm_routed.fingerprint(), cold_routed.fingerprint());

        let campaign = CampaignBuilder::new().faults(faults).cycles(8);
        let warm_result = warm.campaign(&campaign).unwrap();
        let cold_result = cold.campaign(&campaign).unwrap();
        prop_assert_eq!(&*warm_result, &*cold_result);

        // Second requests are served from the cache: the same allocation
        // comes back and the hit counters move.
        let again = warm.routed().unwrap();
        prop_assert!(Arc::ptr_eq(&warm_routed, &again));
        let result_again = warm.campaign(&campaign).unwrap();
        prop_assert!(Arc::ptr_eq(&warm_result, &result_again));
        prop_assert!(cache.stats().hits > 0);
    }

    /// Flows over *different* inputs never alias in the cache: changing the
    /// placement seed changes the implementation artifacts but not the
    /// sampled fault population.
    #[test]
    fn distinct_seeds_do_not_alias_in_a_shared_cache(seed_a in 1u64..3, offset in 1u64..3) {
        let seed_b = seed_a + offset;
        let device = Device::small(8, 8);
        let design = counter(4);
        let cache = ArtifactCache::shared();
        let flow = |seed| {
            FlowBuilder::new(&device, &design)
                .tmr(TmrConfig::paper_p2())
                .seed(seed)
                .cache(cache.clone())
                .build()
        };
        let a = flow(seed_a).routed().unwrap();
        let b = flow(seed_b).routed().unwrap();
        prop_assert!(!Arc::ptr_eq(&a, &b));
        prop_assert_ne!(a.fingerprint(), b.fingerprint());
        // Different placements, same netlist: the synthesis artifact was
        // shared (one miss), the implementation artifacts were not.
        prop_assert_eq!(a.netlist().stats(), b.netlist().stats());
    }
}

#[test]
fn early_stopped_session_is_a_prefix_of_the_batch_campaign() {
    // The unprotected counter has a high wrong-answer rate, so a loose
    // confidence bound stops long before the sample is exhausted.
    let device = Device::small(8, 8);
    let design = counter(4);
    let flow = FlowBuilder::new(&device, &design).build();
    let routed = flow.routed().expect("implementation");

    let campaign = CampaignBuilder::new().faults(500).cycles(8).sequential();
    let full = flow.campaign(&campaign).expect("campaign");

    let streaming = campaign
        .batch_size(50)
        .early_stop(EarlyStop::at_half_width(0.08).with_min_injected(50));
    let mut session = flow.campaign_session(&routed, &streaming).expect("session");
    while session.next_batch().is_some() {}
    assert!(session.stopped_early(), "the loose bound must fire");
    let streamed = session.into_result();

    assert!(streamed.injected() < full.injected());
    assert_eq!(
        streamed.outcomes[..],
        full.outcomes[..streamed.injected()],
        "an early-stopped session must equal the matching prefix of the batch run"
    );
}

#[test]
fn sweep_matches_its_variants_run_one_by_one() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(24, 24);
    let campaign = CampaignBuilder::new().faults(300).cycles(8);
    let report = Sweep::paper(&base)
        .on_device(&device)
        .campaign(campaign.clone())
        .run()
        .unwrap();
    assert_eq!(report.variants.len(), 5);
    for variant in &report.variants {
        let mut builder = FlowBuilder::new(&device, &base);
        if let Some(config) = &variant.config {
            builder = builder.tmr(config.clone());
        }
        let flow = builder.build();
        assert_eq!(
            flow.routed().unwrap().bitstream().words(),
            variant.routed.bitstream().words(),
            "{}: bitstream differs",
            variant.name
        );
        assert_eq!(
            *flow.campaign(&campaign).unwrap(),
            **variant.campaign.as_ref().unwrap(),
            "{}: campaign differs",
            variant.name
        );
    }
}

#[test]
fn flow_errors_chain_to_the_failing_layer() {
    use std::error::Error as _;

    // A 3x3 grid cannot hold a TMR'd counter: placement must fail, and the
    // unified error must carry the layer error in its source chain.
    let device = Device::small(3, 3);
    let design = counter(4);
    let flow = FlowBuilder::new(&device, &design)
        .tmr(TmrConfig::paper_p2())
        .build();
    let error = flow.routed().expect_err("the device is far too small");
    assert!(matches!(error, Error::Pnr(_)));
    assert_eq!(error.to_string(), "place-and-route failed");
    let source = error.source().expect("source chain").to_string();
    assert!(
        source.contains("sites"),
        "the placement diagnostic must surface: {source}"
    );
    // A failed stage is not cached: retrying on a big enough device works
    // even with the same inputs (fresh flow, shared failure-free cache).
    assert_eq!(flow.cache().stats().entries, 2, "tmr + synth only");
}

/// Asserts that the sizing arithmetic and the built device agree for one
/// design variant, both from `base` and from a deliberately undersized
/// preset that forces the grid to grow.
fn assert_sizing_matches_built_device(
    what: &str,
    design: &Design,
    tmr: Option<TmrConfig>,
    base: DeviceParams,
    max_utilisation: f64,
) {
    let mut builder = FlowBuilder::new(&Device::small(2, 2), design);
    if let Some(tmr) = tmr {
        builder = builder.tmr(tmr);
    }
    let synthesized = builder.build().synthesized().expect("variant synthesizes");
    let netlists = [synthesized.netlist()];
    for params in [base, DeviceParams::small(4, 4)] {
        assert_eq!(
            device_params_for(params, &netlists, max_utilisation),
            *device_for(params, &netlists, max_utilisation).params(),
            "{what} from {params:?}"
        );
    }
}

#[test]
fn device_params_for_names_the_device_device_for_builds() {
    let designs = [
        "fir",
        "fir:paper",
        "counter:4",
        "accumulator:4",
        "moving_sum:3,4,6",
    ];
    let variants = ["standard", "p1", "p2", "p3", "p3_nv"];
    for design in designs {
        for variant in variants {
            let mut spec = JobSpec::new(design);
            spec.variant = variant.to_string();
            assert_sizing_matches_built_device(
                &format!("{design} {variant}"),
                &spec.design_instance().unwrap(),
                spec.tmr_config().unwrap(),
                DeviceParams::xc2s200e_like(),
                0.50,
            );
        }
    }

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_regressions");
    let mut cases = 0;
    for entry in std::fs::read_dir(&dir).expect("fuzz_regressions directory exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|ext| ext != "case") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("case file reads");
        let case = RegressionCase::parse(&text).expect("case file parses");
        assert_sizing_matches_built_device(
            &path.display().to_string(),
            &case.spec.to_design().expect("case design rebuilds"),
            variant_config(&case.variant).expect("case variant is known"),
            case.params,
            case.options().max_utilisation,
        );
        cases += 1;
    }
    assert!(cases > 0, "no regression cases found in {dir:?}");
}
