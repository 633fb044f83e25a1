//! Differential tests of the annealing placer.
//!
//! The placer maintains each net's bounding-box cost incrementally; the
//! maintained wirelength must equal the from-scratch recompute on the final
//! placement (and a `debug_assertions` check inside the placer verifies it
//! per evaluated move). This suite pins that across the five paper variants
//! and a property test over generated designs, and pins the exact placement
//! (every cell's site and the wirelength) of the full-size paper variants
//! and of the small FIR at two more seeds, so a placer change that is meant
//! to be a pure speed-up cannot silently move a single cell.

use proptest::prelude::*;
use tmr_fpga::arch::Device;
use tmr_fpga::designs::FirFilter;
use tmr_fpga::flow::{device_for, Sweep};
use tmr_fpga::pnr::{place, placement_wirelength, Placement, PlacerOptions};
use tmr_fpga::synth::{lower, optimize, techmap};

#[test]
fn incremental_placement_cost_matches_full_recompute() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(24, 24);
    let (device, flows) = Sweep::paper(&base)
        .on_device(&device)
        .flows()
        .expect("the paper variants implement on the 24x24 device");
    for (name, flow) in flows {
        let synthesized = flow.synthesized().expect("synthesis succeeds");
        let placed = flow.placed().expect("placement succeeds");
        let maintained = placed.placement().wirelength();
        let recomputed = placement_wirelength(&device, synthesized.netlist(), placed.placement());
        assert_eq!(
            maintained, recomputed,
            "variant {name}: incremental wirelength diverged from the full recompute"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Generated designs keep the incremental cost exact, explored over the
    /// fuzz generator's design space (and, through `arch_for_seed`'s
    /// rotation inside `device_for`, over lean channel configurations).
    #[test]
    fn generated_designs_keep_the_incremental_placement_cost_exact(seed in 0u64..512) {
        let config = tmr_fpga::designs::GeneratorConfig::sampled(seed);
        let design = tmr_fpga::designs::generate(seed, &config);
        let params = tmr_fpga::fuzz::arch_for_seed(seed);
        let netlist = techmap(&optimize(&lower(&design).expect("lowering"))).expect("mapping");
        let device = device_for(params, &[&netlist], 0.5);
        let placement = place(
            &device,
            &netlist,
            &PlacerOptions { seed, ..PlacerOptions::default() },
        )
        .expect("generated design places");

        let maintained = placement.wirelength();
        let recomputed = placement_wirelength(&device, &netlist, &placement);
        prop_assert_eq!(maintained, recomputed);
    }
}

/// FNV-1a over the site index of every cell, in cell order.
fn placement_fingerprint(placement: &Placement) -> u64 {
    placement
        .iter()
        .flat_map(|(_, site)| (site.index() as u32).to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Places every variant of `sweep`: the device, then per variant its name,
/// the placement fingerprint and the maintained wirelength.
fn placements(sweep: Sweep) -> (Device, Vec<(String, u64, u64)>) {
    let (device, flows) = sweep.flows().expect("the paper variants implement");
    let placed = flows
        .into_iter()
        .map(|(name, flow)| {
            let placed = flow.placed().expect("placement succeeds");
            let placement = placed.placement();
            (
                name,
                placement_fingerprint(placement),
                placement.wirelength(),
            )
        })
        .collect();
    (device, placed)
}

/// A pinned placement: variant, placement fingerprint, wirelength.
type Pin = (&'static str, u64, u64);

fn pinned(pins: &[Pin]) -> Vec<(String, u64, u64)> {
    pins.iter()
        .map(|&(name, fingerprint, wirelength)| (name.to_string(), fingerprint, wirelength))
        .collect()
}

/// The exact placement of the five 11-tap paper-FIR variants on the device
/// `Sweep::paper` auto-sizes for them (54x40, the one `table3` uses), seed
/// 1: variant, placement fingerprint, wirelength.
const PINNED_PAPER_PLACEMENTS: [Pin; 5] = [
    ("standard", 0x2f9b_1c9b_99d8_0130, 5_018),
    ("tmr_p1", 0x6248_1627_e40e_7afa, 32_662),
    ("tmr_p2", 0x7e99_675e_c01b_d534, 27_505),
    ("tmr_p3", 0x8c84_31d0_d3e2_d25b, 21_640),
    ("tmr_p3_nv", 0xee07_0303_eefc_99bc, 14_095),
];

#[test]
fn paper_filter_variants_place_exactly_as_pinned() {
    let base = FirFilter::paper_filter().to_design();
    let (device, placed) = placements(Sweep::paper(&base));
    assert_eq!((device.cols(), device.rows()), (54, 40));
    assert_eq!(
        placed,
        pinned(&PINNED_PAPER_PLACEMENTS),
        "paper-filter placements changed: bump IMPLEMENTATION_VERSION"
    );
}

/// The exact placement of the small-FIR variants on `Device::small(24, 24)`
/// at placement seeds 2 and 3 (seed 1 is pinned through the bitstream
/// fingerprints of `tests/routing_convergence.rs`).
const PINNED_SMALL_PLACEMENTS: [(u64, [Pin; 5]); 2] = [
    (
        2,
        [
            ("standard", 0xcdf2_478e_c48c_ec5d, 639),
            ("tmr_p1", 0xbf03_2de6_d2af_2f6f, 5_265),
            ("tmr_p2", 0x60e7_9287_dec5_d067, 3_991),
            ("tmr_p3", 0x46e2_185d_ae5a_4033, 3_541),
            ("tmr_p3_nv", 0x6b02_63e8_cab7_0fab, 2_823),
        ],
    ),
    (
        3,
        [
            ("standard", 0x288c_3e50_7c25_9e43, 721),
            ("tmr_p1", 0xc2bb_7189_ce21_7126, 6_136),
            ("tmr_p2", 0x1686_cb64_2ad8_32ca, 4_564),
            ("tmr_p3", 0x970c_a9c9_9a0a_3b26, 3_423),
            ("tmr_p3_nv", 0x2579_16dc_848f_3c47, 2_690),
        ],
    ),
];

#[test]
fn small_filter_variants_place_exactly_as_pinned_at_seeds_2_and_3() {
    let base = FirFilter::small_filter().to_design();
    let device = Device::small(24, 24);
    for (seed, pins) in PINNED_SMALL_PLACEMENTS {
        let (_, placed) = placements(Sweep::paper(&base).on_device(&device).seed(seed));
        assert_eq!(
            placed,
            pinned(&pins),
            "seed {seed}: small-filter placements changed: bump IMPLEMENTATION_VERSION"
        );
    }
}
