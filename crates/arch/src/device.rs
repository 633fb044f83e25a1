//! The device model: tile grid, sites, routing graph and presets.

use crate::config::ConfigLayout;
use crate::{NodeId, Pip, PipCategory, PipId, RouteNode, Site, SiteId, SiteKind, TileCoord};
use std::collections::HashMap;
use std::sync::Arc;

/// Architectural parameters of a device family.
///
/// The defaults produced by [`DeviceParams::xc2s200e_like`] are calibrated so
/// that the proportion of configuration bits per category matches the numbers
/// the paper reports for the Spartan-II XC2S200E (≈83 % general routing,
/// ≈6 % CLB customization, ≈7 % LUT contents, <1 % flip-flops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceParams {
    /// Number of tile columns.
    pub cols: u16,
    /// Number of tile rows.
    pub rows: u16,
    /// Slices per CLB tile; each slice provides 2 LUT sites and 2 FF sites.
    pub slices_per_tile: u8,
    /// General routing wires (tracks) owned by each tile.
    pub tracks: u16,
    /// Number of tracks reachable from each site output pin (output PIPs).
    pub out_pin_candidates: u16,
    /// Number of tracks that can feed each site input pin (input-mux PIPs).
    pub in_pin_candidates: u16,
    /// Same-tile track-to-track hops per track in the switch matrix.
    pub sb_same_tile: u16,
    /// Track-to-track hops per track towards each cardinal neighbour.
    pub sb_neighbor: u16,
    /// I/O blocks available on each perimeter tile.
    pub iobs_per_perimeter_tile: u8,
    /// Configuration-frame size in bits (the XC2S200E uses 576-bit frames).
    pub frame_bits: u32,
}

impl DeviceParams {
    /// Parameters approximating the Spartan-II XC2S200E of the paper:
    /// a 42 × 28 CLB array, two slices per CLB (4 LUT4 + 4 FF per tile).
    pub fn xc2s200e_like() -> Self {
        Self {
            cols: 42,
            rows: 28,
            slices_per_tile: 2,
            tracks: 36,
            out_pin_candidates: 8,
            in_pin_candidates: 4,
            sb_same_tile: 3,
            sb_neighbor: 4,
            iobs_per_perimeter_tile: 2,
            frame_bits: 576,
        }
    }

    /// Small parameters for unit tests and examples: fewer tracks and a single
    /// slice per tile, so graphs stay tiny.
    ///
    /// The channel width and pin connectivity are provisioned so that even a
    /// near-fully-utilised tile grid remains routable: TMR designs pack three
    /// redundant copies plus voters into the fabric, and with fewer track or
    /// pin candidates the PathFinder negotiation cannot resolve the resulting
    /// congestion no matter how large the grid is.
    pub fn small(cols: u16, rows: u16) -> Self {
        Self {
            cols,
            rows,
            slices_per_tile: 1,
            tracks: 32,
            out_pin_candidates: 8,
            in_pin_candidates: 6,
            sb_same_tile: 3,
            sb_neighbor: 3,
            iobs_per_perimeter_tile: 2,
            frame_bits: 64,
        }
    }

    /// LUT sites per tile (2 per slice).
    pub fn luts_per_tile(&self) -> usize {
        self.slices_per_tile as usize * 2
    }

    /// FF sites per tile (2 per slice).
    pub fn ffs_per_tile(&self) -> usize {
        self.slices_per_tile as usize * 2
    }
}

/// An island-style SRAM FPGA device: sites, routing graph and configuration
/// layout.
///
/// Construction enumerates every site, routing node and PIP of the device and
/// builds the adjacency lists used by the router, plus the
/// [`ConfigLayout`] that assigns one configuration bit to every programmable
/// resource.
///
/// A built device is immutable and shared: `clone()` copies a reference,
/// not the routing graph, so flows, sweeps and services can hold the same
/// device without paying for its construction or its memory again.
#[derive(Debug, Clone)]
pub struct Device {
    data: Arc<DeviceData>,
}

#[derive(Debug)]
struct DeviceData {
    params: DeviceParams,
    sites: Vec<Site>,
    nodes: Vec<RouteNode>,
    pips: Vec<Pip>,
    node_index: HashMap<RouteNode, NodeId>,
    pips_from: Vec<Vec<PipId>>,
    pips_to: Vec<Vec<PipId>>,
    out_pin_of_site: Vec<NodeId>,
    in_pins_of_site: Vec<Vec<NodeId>>,
    lut_sites: Vec<SiteId>,
    ff_sites: Vec<SiteId>,
    iob_sites: Vec<SiteId>,
    layout: ConfigLayout,
}

impl Device {
    /// Builds a device from explicit parameters.
    pub fn new(params: DeviceParams) -> Self {
        DeviceBuilder::new(params).build()
    }

    /// Builds the XC2S200E-like device used for the paper's tables.
    pub fn xc2s200e_like() -> Self {
        Self::new(DeviceParams::xc2s200e_like())
    }

    /// Builds a small test device.
    pub fn small(cols: u16, rows: u16) -> Self {
        Self::new(DeviceParams::small(cols, rows))
    }

    /// The parameters this device was built from.
    pub fn params(&self) -> &DeviceParams {
        &self.data.params
    }

    /// Number of tile columns.
    pub fn cols(&self) -> u16 {
        self.data.params.cols
    }

    /// Number of tile rows.
    pub fn rows(&self) -> u16 {
        self.data.params.rows
    }

    /// Iterates over every tile coordinate of the grid.
    pub fn tiles(&self) -> impl Iterator<Item = TileCoord> + '_ {
        let cols = self.data.params.cols;
        let rows = self.data.params.rows;
        (0..rows).flat_map(move |y| (0..cols).map(move |x| TileCoord::new(x, y)))
    }

    /// All sites of the device.
    pub fn sites(&self) -> impl Iterator<Item = (SiteId, &Site)> {
        self.data
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| (SiteId::from_index(i), s))
    }

    /// The site with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.data.sites[id.index()]
    }

    /// All LUT sites.
    pub fn lut_sites(&self) -> &[SiteId] {
        &self.data.lut_sites
    }

    /// All flip-flop sites.
    pub fn ff_sites(&self) -> &[SiteId] {
        &self.data.ff_sites
    }

    /// All I/O block sites (on the perimeter).
    pub fn iob_sites(&self) -> &[SiteId] {
        &self.data.iob_sites
    }

    /// Sites of a given kind.
    pub fn sites_of_kind(&self, kind: SiteKind) -> &[SiteId] {
        match kind {
            SiteKind::Lut => &self.data.lut_sites,
            SiteKind::Ff => &self.data.ff_sites,
            SiteKind::Iob => &self.data.iob_sites,
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.data.sites.len()
    }

    /// Number of routing-graph nodes.
    pub fn node_count(&self) -> usize {
        self.data.nodes.len()
    }

    /// Number of PIPs.
    pub fn pip_count(&self) -> usize {
        self.data.pips.len()
    }

    /// The routing node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> RouteNode {
        self.data.nodes[id.index()]
    }

    /// Looks up the id of a routing node.
    pub fn node_id(&self, node: RouteNode) -> Option<NodeId> {
        self.data.node_index.get(&node).copied()
    }

    /// The PIP with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn pip(&self, id: PipId) -> Pip {
        self.data.pips[id.index()]
    }

    /// All PIPs leaving `node`.
    pub fn pips_from(&self, node: NodeId) -> &[PipId] {
        &self.data.pips_from[node.index()]
    }

    /// All PIPs arriving at `node`.
    pub fn pips_to(&self, node: NodeId) -> &[PipId] {
        &self.data.pips_to[node.index()]
    }

    /// The output-pin node of a site.
    pub fn out_pin(&self, site: SiteId) -> NodeId {
        self.data.out_pin_of_site[site.index()]
    }

    /// The input-pin nodes of a site, indexed by pin.
    pub fn in_pins(&self, site: SiteId) -> &[NodeId] {
        &self.data.in_pins_of_site[site.index()]
    }

    /// The tile a routing node geometrically belongs to (used by the router's
    /// A* heuristic and by congestion maps).
    pub fn node_tile(&self, id: NodeId) -> TileCoord {
        match self.node(id) {
            RouteNode::Wire { tile, .. } => tile,
            RouteNode::OutPin { site } | RouteNode::InPin { site, .. } => self.site(site).tile,
        }
    }

    /// The configuration-memory layout of this device.
    pub fn config_layout(&self) -> &ConfigLayout {
        &self.data.layout
    }
}

struct DeviceBuilder {
    params: DeviceParams,
    sites: Vec<Site>,
    nodes: Vec<RouteNode>,
    pips: Vec<Pip>,
    node_index: HashMap<RouteNode, NodeId>,
    out_pin_of_site: Vec<NodeId>,
    in_pins_of_site: Vec<Vec<NodeId>>,
    lut_sites: Vec<SiteId>,
    ff_sites: Vec<SiteId>,
    iob_sites: Vec<SiteId>,
}

impl DeviceBuilder {
    fn new(params: DeviceParams) -> Self {
        Self {
            params,
            sites: Vec::new(),
            nodes: Vec::new(),
            pips: Vec::new(),
            node_index: HashMap::new(),
            out_pin_of_site: Vec::new(),
            in_pins_of_site: Vec::new(),
            lut_sites: Vec::new(),
            ff_sites: Vec::new(),
            iob_sites: Vec::new(),
        }
    }

    fn intern_node(&mut self, node: RouteNode) -> NodeId {
        if let Some(&id) = self.node_index.get(&node) {
            return id;
        }
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        self.node_index.insert(node, id);
        id
    }

    fn add_site(&mut self, kind: SiteKind, tile: TileCoord, index_in_tile: u8) -> SiteId {
        let id = SiteId::from_index(self.sites.len());
        self.sites.push(Site {
            kind,
            tile,
            index_in_tile,
        });
        let out = self.intern_node(RouteNode::OutPin { site: id });
        self.out_pin_of_site.push(out);
        let pins = (0..kind.input_pins())
            .map(|p| {
                self.intern_node(RouteNode::InPin {
                    site: id,
                    pin: p as u8,
                })
            })
            .collect();
        self.in_pins_of_site.push(pins);
        match kind {
            SiteKind::Lut => self.lut_sites.push(id),
            SiteKind::Ff => self.ff_sites.push(id),
            SiteKind::Iob => self.iob_sites.push(id),
        }
        id
    }

    fn add_pip(&mut self, src: NodeId, dst: NodeId, category: PipCategory, tile: TileCoord) {
        self.pips.push(Pip {
            src,
            dst,
            category,
            tile,
        });
    }

    fn wire(&mut self, tile: TileCoord, track: u16) -> NodeId {
        self.intern_node(RouteNode::Wire { tile, track })
    }

    fn build(mut self) -> Device {
        let p = self.params;

        // 1. Sites and wires, tile by tile.
        for y in 0..p.rows {
            for x in 0..p.cols {
                let tile = TileCoord::new(x, y);
                for track in 0..p.tracks {
                    self.wire(tile, track);
                }
                for slice in 0..p.slices_per_tile {
                    for i in 0..2u8 {
                        self.add_site(SiteKind::Lut, tile, slice * 2 + i);
                    }
                    for i in 0..2u8 {
                        self.add_site(SiteKind::Ff, tile, slice * 2 + i);
                    }
                }
                if tile.is_perimeter(p.cols, p.rows) {
                    for i in 0..p.iobs_per_perimeter_tile {
                        self.add_site(SiteKind::Iob, tile, i);
                    }
                }
            }
        }

        // 2. PIPs. Iterate sites and tiles deterministically so PIP ids (and
        //    therefore configuration-bit addresses) are stable.
        let site_count = self.sites.len();
        for site_index in 0..site_count {
            let site = self.sites[site_index];
            let tile = site.tile;
            let tracks = p.tracks as usize;

            // Output PIPs: output pin -> a spread of tracks in the same tile.
            let out_node = self.out_pin_of_site[site_index];
            let base = (site_index * 7 + usize::from(tile.x) + usize::from(tile.y) * 3) % tracks;
            let step = (tracks / p.out_pin_candidates.max(1) as usize).max(1);
            for i in 0..p.out_pin_candidates as usize {
                let track = ((base + i * step) % tracks) as u16;
                let wire = self.wire(tile, track);
                self.add_pip(out_node, wire, PipCategory::OutputMux, tile);
            }

            // Input-mux PIPs: a small set of tracks -> each input pin.
            for pin in 0..site.kind.input_pins() {
                let pin_node = self.in_pins_of_site[site_index][pin];
                let pin_base =
                    (site_index * 5 + pin * 11 + usize::from(tile.x) * 2 + usize::from(tile.y))
                        % tracks;
                let pin_step = (tracks / p.in_pin_candidates.max(1) as usize).max(1);
                for i in 0..p.in_pin_candidates as usize {
                    let track = ((pin_base + i * pin_step + i) % tracks) as u16;
                    let wire = self.wire(tile, track);
                    self.add_pip(wire, pin_node, PipCategory::InputMux, tile);
                }
                // One additional candidate from each neighbouring tile (wire
                // segments spanning into the CLB) — part of the general
                // routing, and essential for routability.
                for (n, neighbor) in tile.neighbors(p.cols, p.rows).into_iter().enumerate() {
                    let track = ((pin_base + n * 7 + 2) % tracks) as u16;
                    let wire = self.wire(neighbor, track);
                    self.add_pip(wire, pin_node, PipCategory::LongInput, tile);
                }
            }
        }

        // Dedicated LUT -> FF connections inside a slice (the "FF mux" of the
        // CLB): LUT `i` of a tile can drive FF `i` of the same tile directly.
        for y in 0..p.rows {
            for x in 0..p.cols {
                let tile = TileCoord::new(x, y);
                let luts: Vec<SiteId> = self
                    .lut_sites
                    .iter()
                    .copied()
                    .filter(|s| self.sites[s.index()].tile == tile)
                    .collect();
                let ffs: Vec<SiteId> = self
                    .ff_sites
                    .iter()
                    .copied()
                    .filter(|s| self.sites[s.index()].tile == tile)
                    .collect();
                for (lut, ff) in luts.iter().zip(ffs.iter()) {
                    let src = self.out_pin_of_site[lut.index()];
                    let dst = self.in_pins_of_site[ff.index()][0];
                    self.add_pip(src, dst, PipCategory::InputMux, tile);
                }
            }
        }

        // 3. Switch matrices: same-tile and neighbour track-to-track PIPs.
        let same_offsets = [1usize, 5, 13, 7, 3];
        let neigh_offsets = [0usize, 3, 9, 17, 6];
        for y in 0..p.rows {
            for x in 0..p.cols {
                let tile = TileCoord::new(x, y);
                let tracks = p.tracks as usize;
                for track in 0..p.tracks {
                    let src = self.wire(tile, track);
                    for &off in same_offsets.iter().take(p.sb_same_tile as usize) {
                        let dst_track = ((track as usize + off) % tracks) as u16;
                        let dst = self.wire(tile, dst_track);
                        if dst != src {
                            self.add_pip(src, dst, PipCategory::Switchbox, tile);
                        }
                    }
                    for neighbor in tile.neighbors(p.cols, p.rows) {
                        for &off in neigh_offsets.iter().take(p.sb_neighbor as usize) {
                            let dst_track = ((track as usize + off) % tracks) as u16;
                            let dst = self.wire(neighbor, dst_track);
                            self.add_pip(src, dst, PipCategory::Switchbox, tile);
                        }
                    }
                }
            }
        }

        // 4. Adjacency lists.
        let mut pips_from = vec![Vec::new(); self.nodes.len()];
        let mut pips_to = vec![Vec::new(); self.nodes.len()];
        for (i, pip) in self.pips.iter().enumerate() {
            let id = PipId::from_index(i);
            pips_from[pip.src.index()].push(id);
            pips_to[pip.dst.index()].push(id);
        }

        // 5. Configuration layout.
        let layout = ConfigLayout::build(&self.params, &self.sites, &self.pips);

        let data = DeviceData {
            params: self.params,
            sites: self.sites,
            nodes: self.nodes,
            pips: self.pips,
            node_index: self.node_index,
            pips_from,
            pips_to,
            out_pin_of_site: self.out_pin_of_site,
            in_pins_of_site: self.in_pins_of_site,
            lut_sites: self.lut_sites,
            ff_sites: self.ff_sites,
            iob_sites: self.iob_sites,
            layout,
        };
        Device {
            data: Arc::new(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitCategory;
    use std::collections::HashSet;

    #[test]
    fn small_device_has_expected_site_counts() {
        let d = Device::small(4, 3);
        // 12 tiles, 1 slice each: 2 LUTs + 2 FFs per tile.
        assert_eq!(d.lut_sites().len(), 4 * 3 * 2);
        assert_eq!(d.ff_sites().len(), 4 * 3 * 2);
        // A 4x3 grid has 2 interior tiles, so 10 perimeter tiles * 2 IOBs.
        assert_eq!(d.iob_sites().len(), 20);
        assert_eq!(d.site_count(), 24 + 24 + 20);
    }

    #[test]
    fn pips_reference_valid_nodes() {
        let d = Device::small(3, 3);
        for i in 0..d.pip_count() {
            let pip = d.pip(PipId::from_index(i));
            assert!(pip.src.index() < d.node_count());
            assert!(pip.dst.index() < d.node_count());
            assert_ne!(pip.src, pip.dst);
        }
    }

    #[test]
    fn adjacency_lists_are_consistent() {
        let d = Device::small(3, 3);
        let mut from_count = 0;
        let mut to_count = 0;
        for n in 0..d.node_count() {
            let id = NodeId::from_index(n);
            from_count += d.pips_from(id).len();
            to_count += d.pips_to(id).len();
            for &pip in d.pips_from(id) {
                assert_eq!(d.pip(pip).src, id);
            }
            for &pip in d.pips_to(id) {
                assert_eq!(d.pip(pip).dst, id);
            }
        }
        assert_eq!(from_count, d.pip_count());
        assert_eq!(to_count, d.pip_count());
    }

    #[test]
    fn every_input_pin_is_reachable_from_some_wire() {
        let d = Device::small(3, 3);
        for (id, site) in d.sites() {
            for pin in 0..site.kind.input_pins() {
                let node = d.in_pins(id)[pin];
                assert!(
                    !d.pips_to(node).is_empty(),
                    "input pin {pin} of site {site} has no input-mux PIPs"
                );
            }
            assert!(
                !d.pips_from(d.out_pin(id)).is_empty(),
                "output pin of {site} drives no wires"
            );
        }
    }

    #[test]
    fn out_pin_candidates_hit_distinct_tracks() {
        let d = Device::small(3, 3);
        let site = d.lut_sites()[0];
        let tracks: HashSet<_> = d
            .pips_from(d.out_pin(site))
            .iter()
            .map(|&p| d.pip(p).dst)
            .filter(|&n| d.node(n).is_wire())
            .collect();
        assert_eq!(tracks.len(), d.params().out_pin_candidates as usize);
    }

    #[test]
    fn xc2s200e_like_bit_proportions_match_paper() {
        let d = Device::xc2s200e_like();
        let layout = d.config_layout();
        let counts = layout.counts_by_category();
        let total: usize = counts.values().sum();
        let frac = |cat: BitCategory| counts.get(&cat).copied().unwrap_or(0) as f64 / total as f64;
        // Paper: routing 82.9 %, CLB customization 6.36 %, LUTs 7.4 %, FFs 0.46 %.
        let routing = frac(BitCategory::GeneralRouting);
        let clb = frac(BitCategory::ClbCustomization);
        let lut = frac(BitCategory::LutContents);
        let ff = frac(BitCategory::FlipFlop);
        assert!(
            routing > 0.75 && routing < 0.90,
            "routing fraction {routing}"
        );
        assert!(clb > 0.03 && clb < 0.12, "clb fraction {clb}");
        assert!(lut > 0.05 && lut < 0.12, "lut fraction {lut}");
        assert!(ff < 0.02, "ff fraction {ff}");
        // Sanity check on absolute size: same order of magnitude as the
        // XC2S200E's 1,442,016 configuration bits.
        assert!(total > 300_000 && total < 3_000_000, "total bits {total}");
    }

    #[test]
    fn node_tile_matches_site_tile() {
        let d = Device::small(3, 3);
        let site = d.lut_sites()[5];
        let tile = d.site(site).tile;
        assert_eq!(d.node_tile(d.out_pin(site)), tile);
        assert_eq!(d.node_tile(d.in_pins(site)[2]), tile);
    }

    #[test]
    fn clones_share_one_immutable_device() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Device>();
        let d = Device::small(3, 3);
        let clone = d.clone();
        assert!(std::ptr::eq(d.config_layout(), clone.config_layout()));
        assert!(std::ptr::eq(d.lut_sites(), clone.lut_sites()));
        assert_eq!(clone.params(), d.params());
    }

    #[test]
    fn node_lookup_round_trips() {
        let d = Device::small(3, 3);
        let node = RouteNode::Wire {
            tile: TileCoord::new(1, 1),
            track: 3,
        };
        let id = d.node_id(node).expect("wire exists");
        assert_eq!(d.node(id), node);
        assert!(d
            .node_id(RouteNode::Wire {
                tile: TileCoord::new(1, 1),
                track: 999
            })
            .is_none());
    }
}
