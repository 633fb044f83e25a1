//! Wirelength-driven simulated-annealing placement.
//!
//! The annealer's cost function is the classic half-perimeter wirelength
//! (HPWL), maintained *incrementally*. Every routable net carries a
//! [`NetBox`]: its bounding box plus the number of member pins on each of
//! its four boundaries. Every cell carries its incidence list: the
//! `(net, pin count)` pairs of the nets it touches, sorted by net.
//!
//! A move swaps a cell with the occupant of the target site, or moves it
//! onto a free site. The nets to update are the merge-join of the two
//! cells' incidence lists. On a net where the moved cell has `ma` pins and
//! the occupant `mb`, the swap moves `|ma − mb|` pins from one tile to the
//! other, and nothing at all when `ma == mb`. The box is updated per axis,
//! only on an axis whose coordinate changed: the pins are added at the new
//! coordinate first, then removed from the old one, and the net's members
//! are rescanned only when a boundary count reaches zero. All deltas are
//! exact integers, so the accept/reject decisions (and therefore the RNG
//! stream and the final placement) are identical to a from-scratch cost
//! evaluation. Under `debug_assertions` every box updated by an evaluated
//! move is checked against a rebuild from scratch.
//!
//! The annealing loop does no hashing and no device or netlist lookups: the
//! occupancy is a dense vector of the cell on every site (the one
//! [`Placement::cell_at`] reads afterwards), and the tile of every site, the
//! tile of every cell and the site kind of every cell are precomputed.
//!
//! Moves are range-limited, as in VPR: a LUT or FF move draws its target
//! tile from a window of ±`rlim` tiles around the cell's current tile, then
//! a random site of its kind in that tile. `rlim` starts at the larger grid
//! dimension and follows the acceptance rate after every temperature step
//! (`rlim ← clamp(rlim · (0.56 + acceptance), 1, max(cols, rows))`), so at
//! low temperature the annealer proposes the short moves it can still
//! accept instead of rejecting almost every global one. IOB moves stay
//! global: IOBs sit only on the perimeter.

use crate::PnrError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use tmr_arch::{Device, SiteId, SiteKind, TileCoord};
use tmr_netlist::{CellId, CellKind, NetDriver, NetId, NetSink, Netlist};

/// Occupancy entry of a site no cell is placed on.
const EMPTY: u32 = u32::MAX;

/// Placement options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerOptions {
    /// RNG seed; placements are deterministic for a given seed.
    pub seed: u64,
    /// Annealing moves attempted per movable cell.
    pub moves_per_cell: usize,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        Self {
            seed: 1,
            moves_per_cell: 100,
        }
    }
}

/// A complete placement: every cell of the netlist is assigned to exactly one
/// compatible device site.
#[derive(Debug, Clone)]
pub struct Placement {
    site_of_cell: Vec<SiteId>,
    /// The index of the cell on each site, [`EMPTY`] for a free site.
    cell_at_site: Vec<u32>,
    wirelength: u64,
}

impl Placement {
    /// Rebuilds a placement from the per-cell site assignment and the
    /// recorded wirelength — the inverse of iterating [`Placement::iter`],
    /// used by the `tmr-store` codec. The site occupancy is rebuilt from
    /// the assignment.
    pub fn from_parts(site_of_cell: Vec<SiteId>, wirelength: u64) -> Self {
        let sites = site_of_cell.iter().map(|site| site.index() + 1).max();
        let mut cell_at_site = vec![EMPTY; sites.unwrap_or(0)];
        for (cell, site) in site_of_cell.iter().enumerate() {
            cell_at_site[site.index()] = cell as u32;
        }
        Self {
            site_of_cell,
            cell_at_site,
            wirelength,
        }
    }

    /// The site a cell is placed on.
    ///
    /// # Panics
    ///
    /// Panics if the cell id is out of range for the placed netlist.
    pub fn site(&self, cell: CellId) -> SiteId {
        self.site_of_cell[cell.index()]
    }

    /// The cell placed on a site, if any (`None` for a site out of range).
    pub fn cell_at(&self, site: SiteId) -> Option<CellId> {
        match self.cell_at_site.get(site.index()) {
            Some(&cell) if cell != EMPTY => Some(CellId::from_index(cell as usize)),
            _ => None,
        }
    }

    /// Iterates over (cell, site) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, SiteId)> + '_ {
        self.site_of_cell
            .iter()
            .enumerate()
            .map(|(i, &s)| (CellId::from_index(i), s))
    }

    /// Total estimated wirelength (sum of half-perimeter bounding boxes).
    pub fn wirelength(&self) -> u64 {
        self.wirelength
    }
}

/// Returns the site kind a cell requires, or `None` if the cell is not a
/// mapped primitive.
pub(crate) fn required_site_kind(kind: CellKind) -> Option<SiteKind> {
    match kind {
        CellKind::Lut { .. } | CellKind::Gnd | CellKind::Vcc => Some(SiteKind::Lut),
        CellKind::Dff { .. } => Some(SiteKind::Ff),
        CellKind::Ibuf | CellKind::Obuf => Some(SiteKind::Iob),
        _ => None,
    }
}

/// Nets that contribute to the wirelength cost: driven by a cell, read by at
/// least one cell (I/O pad nets contribute nothing the placer can optimise).
fn routable_nets(netlist: &Netlist) -> Vec<NetId> {
    netlist
        .nets()
        .filter(|(_, net)| {
            matches!(net.driver, Some(NetDriver::Cell(_)))
                && net
                    .sinks
                    .iter()
                    .any(|s| matches!(s, NetSink::CellPin { .. }))
        })
        .map(|(id, _)| id)
        .collect()
}

/// Full-recompute half-perimeter wirelength of a placement — the reference
/// the incremental annealer cost is asserted against, and the oracle the
/// differential test suite uses.
pub fn placement_wirelength(device: &Device, netlist: &Netlist, placement: &Placement) -> u64 {
    routable_nets(netlist)
        .iter()
        .map(|&net_id| net_hpwl(device, netlist, net_id, |cell| placement.site(cell)))
        .sum()
}

/// From-scratch HPWL of one net under an arbitrary cell → site assignment.
fn net_hpwl(
    device: &Device,
    netlist: &Netlist,
    net_id: NetId,
    site_of: impl Fn(CellId) -> SiteId,
) -> u64 {
    let net = netlist.net(net_id);
    let mut min_x = u16::MAX;
    let mut max_x = 0u16;
    let mut min_y = u16::MAX;
    let mut max_y = 0u16;
    let mut update = |cell: CellId| {
        let tile = device.site(site_of(cell)).tile;
        min_x = min_x.min(tile.x);
        max_x = max_x.max(tile.x);
        min_y = min_y.min(tile.y);
        max_y = max_y.max(tile.y);
    };
    if let Some(NetDriver::Cell(c)) = net.driver {
        update(c);
    }
    for sink in &net.sinks {
        if let NetSink::CellPin { cell, .. } = sink {
            update(*cell);
        }
    }
    if min_x == u16::MAX {
        return 0;
    }
    u64::from(max_x - min_x) + u64::from(max_y - min_y)
}

/// One axis of a [`NetBox`]: the extent of the member pins' coordinates
/// and how many pins sit on each end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    min: u16,
    max: u16,
    on_min: u32,
    on_max: u32,
}

impl Span {
    const EMPTY: Self = Self {
        min: u16::MAX,
        max: 0,
        on_min: 0,
        on_max: 0,
    };

    fn len(&self) -> u64 {
        u64::from(self.max - self.min)
    }

    /// Adds `k` pins at coordinate `at`, extending the span if needed.
    fn add(&mut self, at: u16, k: u32) {
        if at < self.min {
            self.min = at;
            self.on_min = k;
        } else if at == self.min {
            self.on_min += k;
        }
        if at > self.max {
            self.max = at;
            self.on_max = k;
        } else if at == self.max {
            self.on_max += k;
        }
    }

    /// Moves `k` of the pins at `from` to `to`: adds them at `to` first,
    /// then removes them from `from`. Returns `true` when an end lost its
    /// last pin — the span may shrink and the caller must rescan.
    fn shift(&mut self, from: u16, to: u16, k: u32) -> bool {
        self.add(to, k);
        if from == self.min {
            self.on_min -= k;
            if self.on_min == 0 {
                return true;
            }
        }
        if from == self.max {
            self.on_max -= k;
            if self.on_max == 0 {
                return true;
            }
        }
        false
    }
}

/// One net's incrementally maintained bounding box: the box itself plus how
/// many member pins sit on each boundary, so boundary-preserving moves never
/// rescan the net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NetBox {
    x: Span,
    y: Span,
}

impl NetBox {
    const EMPTY: Self = Self {
        x: Span::EMPTY,
        y: Span::EMPTY,
    };

    fn hpwl(&self) -> u64 {
        self.x.len() + self.y.len()
    }

    /// Adds one member pin at `tile`, extending the box if needed.
    fn add(&mut self, tile: TileCoord) {
        self.x.add(tile.x, 1);
        self.y.add(tile.y, 1);
    }

    /// Moves `k` of the member pins at tile `from` to tile `to`, on each
    /// axis whose coordinate changed. Returns `true` when a boundary lost
    /// its last pin and the caller must rescan.
    fn shift(&mut self, from: TileCoord, to: TileCoord, k: u32) -> bool {
        (from.x != to.x && self.x.shift(from.x, to.x, k))
            || (from.y != to.y && self.y.shift(from.y, to.y, k))
    }
}

/// Rescans a net's member pins and rebuilds its [`NetBox`] from scratch.
fn compute_box(members: &[u32], cell_tile: &[TileCoord]) -> NetBox {
    let mut net_box = NetBox::EMPTY;
    for &cell in members {
        net_box.add(cell_tile[cell as usize]);
    }
    net_box
}

/// Merge-joins two incidence lists sorted by net: every net of either list
/// with the pin count of each side (0 on the side not on the net).
fn merge_incidence<'a>(
    a: &'a [(u32, u32)],
    b: &'a [(u32, u32)],
) -> impl Iterator<Item = (u32, u32, u32)> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let (net, ma, mb) = match (a.get(i), b.get(j)) {
            (None, None) => return None,
            (Some(&(net, ma)), None) => (net, ma, 0),
            (None, Some(&(net, mb))) => (net, 0, mb),
            (Some(&(na, ma)), Some(&(nb, mb))) => match na.cmp(&nb) {
                Ordering::Less => (na, ma, 0),
                Ordering::Greater => (nb, 0, mb),
                Ordering::Equal => (na, ma, mb),
            },
        };
        // Listed pin counts are at least 1, so a side advances exactly when
        // it contributed this net.
        if ma > 0 {
            i += 1;
        }
        if mb > 0 {
            j += 1;
        }
        Some((net, ma, mb))
    })
}

/// The tile → sites index of one site kind, built once per [`place`] call
/// for the range-limited move generator.
struct TileSites {
    cols: u16,
    rows: u16,
    /// Sites of the kind on each tile, indexed by `y * cols + x`.
    sites: Vec<Vec<SiteId>>,
}

impl TileSites {
    fn new(device: &Device, kind: SiteKind) -> Self {
        let (cols, rows) = (device.cols(), device.rows());
        let mut sites = vec![Vec::new(); usize::from(cols) * usize::from(rows)];
        for &site in device.sites_of_kind(kind) {
            let tile = device.site(site).tile;
            sites[usize::from(tile.y) * usize::from(cols) + usize::from(tile.x)].push(site);
        }
        Self { cols, rows, sites }
    }

    /// A random site on a random tile at most `rlim` tiles from `tile` along
    /// each axis, or `None` when the drawn tile has no site of this kind.
    fn random_site_near(&self, tile: TileCoord, rlim: u16, rng: &mut StdRng) -> Option<SiteId> {
        let x = rng.gen_range(
            tile.x.saturating_sub(rlim)..=tile.x.saturating_add(rlim).min(self.cols - 1),
        );
        let y = rng.gen_range(
            tile.y.saturating_sub(rlim)..=tile.y.saturating_add(rlim).min(self.rows - 1),
        );
        let pool = &self.sites[usize::from(y) * usize::from(self.cols) + usize::from(x)];
        (!pool.is_empty()).then(|| pool[rng.gen_range(0..pool.len())])
    }
}

/// Places a technology-mapped netlist onto a device.
///
/// # Errors
///
/// Returns [`PnrError::UnplaceableCell`] if the netlist contains unmapped
/// gates and [`PnrError::NotEnoughSites`] if the device is too small.
pub fn place(
    device: &Device,
    netlist: &Netlist,
    options: &PlacerOptions,
) -> Result<Placement, PnrError> {
    let cell_kind = netlist
        .cells()
        .map(|(_, cell)| {
            required_site_kind(cell.kind).ok_or_else(|| PnrError::UnplaceableCell {
                cell: cell.name.clone(),
                kind: cell.kind.to_string(),
            })
        })
        .collect::<Result<Vec<SiteKind>, _>>()?;
    let cell_count = cell_kind.len();

    for kind in [SiteKind::Lut, SiteKind::Ff, SiteKind::Iob] {
        let needed = cell_kind.iter().filter(|&&k| k == kind).count();
        let available = device.sites_of_kind(kind).len();
        if needed > available {
            return Err(PnrError::NotEnoughSites {
                kind: kind.to_string(),
                needed,
                available,
            });
        }
    }

    // Initial placement: the cells of each kind, in netlist order, onto the
    // sites of that kind in device order. Cells created together by the
    // lowering pass (e.g. the bits of one adder) are adjacent in the
    // netlist, so this is already a reasonable start.
    let site_tile: Vec<TileCoord> = device.sites().map(|(_, site)| site.tile).collect();
    let mut site_of_cell = Vec::with_capacity(cell_count);
    let mut cell_tile = Vec::with_capacity(cell_count);
    let mut cell_at_site = vec![EMPTY; device.site_count()];
    let mut next_site = [0usize; 3];
    for (cell, &kind) in cell_kind.iter().enumerate() {
        let site = device.sites_of_kind(kind)[next_site[kind as usize]];
        next_site[kind as usize] += 1;
        site_of_cell.push(site);
        cell_tile.push(site_tile[site.index()]);
        cell_at_site[site.index()] = cell as u32;
    }
    if cell_count == 0 {
        return Ok(Placement {
            site_of_cell,
            cell_at_site,
            wirelength: 0,
        });
    }

    // Per-net member pins (driver plus every cell-pin sink occurrence — the
    // exact multiset the HPWL definition scans) and the per-cell incidence
    // lists of (net, pin count) sorted by net, nets indexed by position in
    // the routable-net list.
    let cost_nets = routable_nets(netlist);
    let mut members: Vec<Vec<u32>> = Vec::with_capacity(cost_nets.len());
    let mut nets_of_cell: Vec<Vec<(u32, u32)>> = vec![Vec::new(); cell_count];
    for (index, &net_id) in cost_nets.iter().enumerate() {
        let index = index as u32;
        let net = netlist.net(net_id);
        let driver = match net.driver {
            Some(NetDriver::Cell(cell)) => Some(cell),
            _ => None,
        };
        let sinks = net.sinks.iter().filter_map(|sink| match sink {
            NetSink::CellPin { cell, .. } => Some(*cell),
            _ => None,
        });
        let mut pins = Vec::new();
        for cell in driver.into_iter().chain(sinks) {
            pins.push(cell.index() as u32);
            let incidence = &mut nets_of_cell[cell.index()];
            match incidence.last_mut() {
                Some((net, count)) if *net == index => *count += 1,
                _ => incidence.push((index, 1)),
            }
        }
        members.push(pins);
    }

    let mut boxes: Vec<NetBox> = members
        .iter()
        .map(|pins| compute_box(pins, &cell_tile))
        .collect();
    let mut total_cost: u64 = boxes.iter().map(NetBox::hpwl).sum();

    // Simulated annealing.
    let mut rng = StdRng::seed_from_u64(options.seed);
    let total_moves = options.moves_per_cell * cell_count;
    let mut temperature = (total_cost as f64 / cost_nets.len().max(1) as f64).max(1.0);
    let temperature_steps = 64usize;
    let moves_per_step = (total_moves / temperature_steps).max(1);
    let alpha = 0.92f64;
    let max_rlim = f64::from(device.cols().max(device.rows()));
    let mut rlim = max_rlim;
    let lut_tiles = TileSites::new(device, SiteKind::Lut);
    let ff_tiles = TileSites::new(device, SiteKind::Ff);
    let iob_sites = device.sites_of_kind(SiteKind::Iob);

    // The updated boxes of the move under evaluation, reused across moves:
    // no allocation on the annealing hot path.
    let mut pending: Vec<(u32, NetBox)> = Vec::new();

    for _step in 0..temperature_steps {
        let window = rlim as u16;
        let mut accepted = 0usize;
        for _ in 0..moves_per_step {
            let cell = rng.gen_range(0..cell_count);
            let current = site_of_cell[cell];
            let current_tile = cell_tile[cell];
            let target = match cell_kind[cell] {
                SiteKind::Lut => lut_tiles.random_site_near(current_tile, window, &mut rng),
                SiteKind::Ff => ff_tiles.random_site_near(current_tile, window, &mut rng),
                SiteKind::Iob => Some(iob_sites[rng.gen_range(0..iob_sites.len())]),
            };
            let Some(target) = target.filter(|&target| target != current) else {
                continue;
            };
            let occupant = cell_at_site[target.index()];
            let target_tile = site_tile[target.index()];

            // A swap within one tile never changes any bounding box: delta
            // is zero, the move is always accepted, and no RNG is consumed —
            // exactly as a full cost evaluation would decide. A move between
            // tiles is evaluated with the two cells' tiles swapped: on every
            // net either cell sits on, the surplus pins of one cell over the
            // other move between the two tiles.
            if current_tile != target_tile {
                cell_tile[cell] = target_tile;
                let occupant_nets: &[(u32, u32)] = if occupant == EMPTY {
                    &[]
                } else {
                    cell_tile[occupant as usize] = current_tile;
                    &nets_of_cell[occupant as usize]
                };
                pending.clear();
                let mut delta = 0i64;
                for (net, ma, mb) in merge_incidence(&nets_of_cell[cell], occupant_nets) {
                    let (k, from, to) = match ma.cmp(&mb) {
                        Ordering::Equal => continue,
                        Ordering::Greater => (ma - mb, current_tile, target_tile),
                        Ordering::Less => (mb - ma, target_tile, current_tile),
                    };
                    let index = net as usize;
                    let old_box = boxes[index];
                    let mut net_box = old_box;
                    if net_box.shift(from, to, k) {
                        net_box = compute_box(&members[index], &cell_tile);
                    }
                    debug_assert_eq!(
                        net_box,
                        compute_box(&members[index], &cell_tile),
                        "incremental NetBox diverged from full recompute"
                    );
                    delta += net_box.hpwl() as i64 - old_box.hpwl() as i64;
                    pending.push((net, net_box));
                }

                let accept = delta <= 0 || {
                    let p = (-(delta as f64) / temperature).exp();
                    rng.gen::<f64>() < p
                };
                if !accept {
                    cell_tile[cell] = current_tile;
                    if occupant != EMPTY {
                        cell_tile[occupant as usize] = target_tile;
                    }
                    continue;
                }
                for &(net, net_box) in &pending {
                    boxes[net as usize] = net_box;
                }
                total_cost = (total_cost as i64 + delta) as u64;
            }

            // Accepted: commit the assignment and the occupancy.
            site_of_cell[cell] = target;
            cell_at_site[target.index()] = cell as u32;
            if occupant != EMPTY {
                site_of_cell[occupant as usize] = current;
            }
            cell_at_site[current.index()] = occupant;
            accepted += 1;
        }
        temperature *= alpha;
        let acceptance = accepted as f64 / moves_per_step as f64;
        rlim = (rlim * (0.56 + acceptance)).clamp(1.0, max_rlim);
    }

    debug_assert_eq!(
        total_cost,
        boxes.iter().map(NetBox::hpwl).sum::<u64>(),
        "incremental total cost diverged from the maintained boxes"
    );

    Ok(Placement {
        site_of_cell,
        cell_at_site,
        wirelength: total_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use tmr_designs::counter;
    use tmr_synth::{lower, optimize, techmap};

    fn mapped_counter() -> Netlist {
        techmap(&optimize(&lower(&counter(4)).unwrap())).unwrap()
    }

    #[test]
    fn places_every_cell_on_a_unique_compatible_site() {
        let device = Device::small(5, 5);
        let netlist = mapped_counter();
        let placement = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        let mut used: HashSet<SiteId> = HashSet::new();
        for (cell_id, cell) in netlist.cells() {
            let site = placement.site(cell_id);
            assert!(used.insert(site), "site {site} used twice");
            assert_eq!(
                device.site(site).kind,
                required_site_kind(cell.kind).unwrap(),
                "cell {} placed on wrong site kind",
                cell.name
            );
            assert_eq!(placement.cell_at(site), Some(cell_id));
        }
    }

    #[test]
    fn placement_is_deterministic_for_a_seed() {
        let device = Device::small(5, 5);
        let netlist = mapped_counter();
        let a = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        let b = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
        assert_eq!(a.wirelength(), b.wirelength());
    }

    #[test]
    fn incremental_cost_matches_full_recompute() {
        for (cols, rows, seed) in [(5, 5, 1), (6, 6, 7), (8, 8, 42)] {
            let device = Device::small(cols, rows);
            let netlist = mapped_counter();
            let placement = place(
                &device,
                &netlist,
                &PlacerOptions {
                    seed,
                    ..PlacerOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                placement.wirelength(),
                placement_wirelength(&device, &netlist, &placement),
                "incremental wirelength diverged (seed {seed})"
            );
        }
    }

    #[test]
    fn range_limited_moves_stay_inside_the_window_and_the_grid() {
        let device = Device::small(7, 5);
        let mut rng = StdRng::seed_from_u64(3);
        for kind in [SiteKind::Lut, SiteKind::Ff] {
            let index = TileSites::new(&device, kind);
            for _ in 0..2000 {
                let tile = TileCoord::new(rng.gen_range(0..7), rng.gen_range(0..5));
                let rlim = rng.gen_range(1..=8u16);
                let site = index
                    .random_site_near(tile, rlim, &mut rng)
                    .expect("every tile has LUT and FF sites");
                let target = device.site(site);
                assert_eq!(target.kind, kind);
                assert!(target.tile.x < device.cols() && target.tile.y < device.rows());
                assert!(target.tile.x.abs_diff(tile.x) <= rlim);
                assert!(target.tile.y.abs_diff(tile.y) <= rlim);
            }
        }
    }

    #[test]
    fn range_limited_anneal_is_deterministic_and_exact_on_a_fir() {
        // Large enough for the range limiter to shrink to a few tiles.
        let fir = tmr_designs::FirFilter::small_filter().to_design();
        let netlist = techmap(&optimize(&lower(&fir).unwrap())).unwrap();
        let device = Device::small(16, 16);
        for seed in [1, 2] {
            let options = PlacerOptions {
                seed,
                ..PlacerOptions::default()
            };
            let a = place(&device, &netlist, &options).unwrap();
            let b = place(&device, &netlist, &options).unwrap();
            assert!(a.iter().eq(b.iter()), "seed {seed}: placement differs");
            assert_eq!(
                a.wirelength(),
                placement_wirelength(&device, &netlist, &a),
                "seed {seed}: incremental wirelength diverged"
            );
        }
    }

    #[test]
    fn an_empty_netlist_places_with_zero_wirelength() {
        let device = Device::small(3, 3);
        let placement = place(&device, &Netlist::new("empty"), &PlacerOptions::default()).unwrap();
        assert_eq!(placement.iter().count(), 0);
        assert_eq!(placement.wirelength(), 0);
        assert!(device
            .sites()
            .all(|(site, _)| placement.cell_at(site).is_none()));
    }

    #[test]
    fn from_parts_rebuilds_the_occupancy() {
        let device = Device::small(5, 5);
        let netlist = mapped_counter();
        let placed = place(&device, &netlist, &PlacerOptions::default()).unwrap();
        let sites = placed.iter().map(|(_, site)| site).collect();
        let rebuilt = Placement::from_parts(sites, placed.wirelength());
        for (site, _) in device.sites() {
            assert_eq!(rebuilt.cell_at(site), placed.cell_at(site), "site {site}");
        }
        let beyond = SiteId::from_index(device.site_count() + 3);
        assert_eq!(placed.cell_at(beyond), None);
        assert_eq!(rebuilt.cell_at(beyond), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Moving `k` of the pins on one tile to another tile: whenever the
        /// per-axis update reports no rescan, the box equals a rebuild.
        #[test]
        fn shifted_box_matches_a_rebuild_unless_it_asks_for_a_rescan(
            pins in prop::collection::vec((0u16..4, 0u16..4), 1..12),
            shifts in prop::collection::vec(((0usize..12, 0u32..12), (0u16..4, 0u16..4)), 1..16),
        ) {
            let mut tiles: Vec<TileCoord> = pins.iter().map(|&(x, y)| TileCoord::new(x, y)).collect();
            let cells: Vec<u32> = (0..tiles.len() as u32).collect();
            let mut net_box = compute_box(&cells, &tiles);
            for ((pick, draw), (x, y)) in shifts {
                let (from, to) = (tiles[pick % tiles.len()], TileCoord::new(x, y));
                if from == to {
                    continue;
                }
                let on_from = tiles.iter().filter(|&&tile| tile == from).count() as u32;
                let k = 1 + draw % on_from;
                for tile in tiles.iter_mut().filter(|tile| **tile == from).take(k as usize) {
                    *tile = to;
                }
                let rebuilt = compute_box(&cells, &tiles);
                if !net_box.shift(from, to, k) {
                    prop_assert_eq!(net_box, rebuilt, "k {} from {:?} to {:?}", k, from, to);
                }
                net_box = rebuilt;
            }
        }

        /// A placer move on a net whose members repeat cells: the moved
        /// cell swaps tiles with an occupant (possibly on the same net) or
        /// moves onto a free tile, and the surplus pins of one over the
        /// other shift between the two tiles.
        #[test]
        fn swapped_box_matches_a_rebuild_unless_it_asks_for_a_rescan(
            cells in prop::collection::vec((0u16..4, 0u16..4), 2..7),
            members in prop::collection::vec(0u32..6, 1..14),
            moves in prop::collection::vec(((0u32..6, 0u32..6), (0u16..4, 0u16..4)), 1..16),
        ) {
            let mut tiles: Vec<TileCoord> = cells.iter().map(|&(x, y)| TileCoord::new(x, y)).collect();
            let count = tiles.len() as u32;
            let members: Vec<u32> = members.into_iter().map(|cell| cell % count).collect();
            let mut net_box = compute_box(&members, &tiles);
            for ((a, b), (x, y)) in moves {
                let (a, b) = (a % count, b % count);
                let pins_of = |cell: u32| members.iter().filter(|&&m| m == cell).count() as u32;
                // `a == b` stands for a move onto a free site at (x, y).
                let (ta, tb, ma, mb) = if a == b {
                    (tiles[a as usize], TileCoord::new(x, y), pins_of(a), 0)
                } else {
                    (tiles[a as usize], tiles[b as usize], pins_of(a), pins_of(b))
                };
                tiles[a as usize] = tb;
                if a != b {
                    tiles[b as usize] = ta;
                }
                let rebuilt = compute_box(&members, &tiles);
                let rescan = match ma.cmp(&mb) {
                    Ordering::Equal => false,
                    Ordering::Greater => net_box.shift(ta, tb, ma - mb),
                    Ordering::Less => net_box.shift(tb, ta, mb - ma),
                };
                if !rescan {
                    prop_assert_eq!(net_box, rebuilt, "a {} b {} ma {} mb {}", a, b, ma, mb);
                }
                net_box = rebuilt;
            }
        }
    }

    #[test]
    fn rejects_unmapped_netlists() {
        let device = Device::small(3, 3);
        let mut nl = Netlist::new("raw");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_cell("u", tmr_netlist::CellKind::And2, vec![a, b], y)
            .unwrap();
        nl.add_output("y", y);
        let err = place(&device, &nl, &PlacerOptions::default()).unwrap_err();
        assert!(matches!(err, PnrError::UnplaceableCell { .. }));
    }

    #[test]
    fn rejects_designs_larger_than_the_device() {
        let device = Device::small(2, 2);
        let fir = tmr_designs::FirFilter::paper_filter().to_design();
        let netlist = techmap(&optimize(&lower(&fir).unwrap())).unwrap();
        let err = place(&device, &netlist, &PlacerOptions::default()).unwrap_err();
        assert!(matches!(err, PnrError::NotEnoughSites { .. }));
    }
}
