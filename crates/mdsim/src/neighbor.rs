//! Neighbour search under periodic boundary conditions.
//!
//! Produces a half list of unique pairs (for pair potentials) and
//! per-atom full lists (for the embedding-density EAM terms, the
//! three-body Stillinger–Weber terms, and the DeePMD environment
//! matrix). The full lists are one CSR array; a search can be limited
//! to the full lists of a set of centre atoms ([`Lists::Centres`]) and
//! writes into buffers the caller keeps ([`NeighborList::search`]), so a
//! steady-state search allocates nothing.
//!
//! [`NeighborList::search`] dispatches between two constructions that
//! are **bitwise identical** in output:
//!
//! * the minimum-image `O(N²)` scan ([`NeighborList::build_naive`]),
//!   used for the paper's single-cell datasets (32–108 atoms) and kept
//!   as the differential oracle, and
//! * a linked-cell `O(N)` search, used automatically once every axis
//!   holds at least three bins of width ≥ the cutoff, so replicated
//!   supercells (`dp-domain`) stay linear in atom count.
//!
//! Both emit *canonical ordering*: `pairs` in `(i, j)` lexicographic
//! order and each full list ascending by neighbour index, with every
//! displacement bitwise `cell.min_image(&pos[i], &pos[j])`. The
//! linked-cell path takes each displacement's periodic image from the
//! bin wrap instead of dividing and rounding, and DESIGN §15.4 shows
//! that it is the same image `min_image` picks for every pair inside
//! the cutoff. The cell-list path therefore produces the same bits as
//! the scan, which is what lets the domain-decomposed engine and every
//! consumer above it (env rows inherit neighbour order) switch paths
//! without perturbing golden fingerprints.

use crate::cell::Cell;
use crate::vec3::Vec3;

/// Bins are at least `cutoff · (1 + BIN_MARGIN)` wide, so the few-ulp
/// error of a computed bin index can never put two atoms closer than the
/// cutoff two bins apart (DESIGN §15.4).
const BIN_MARGIN: f64 = 1e-9;

/// One directed neighbour record: atom `j` is within the cutoff of the
/// owning atom `i`, displaced by `rij = rj − ri` (minimum image).
#[derive(Clone, Copy, Debug, Default)]
pub struct Neighbor {
    /// Neighbour atom index.
    pub j: usize,
    /// Minimum-image displacement from the owner to `j` (Å).
    pub rij: Vec3,
    /// Distance |rij| (Å).
    pub dist: f64,
}

/// Unique unordered pair within the cutoff.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    /// Lower atom index.
    pub i: usize,
    /// Higher atom index.
    pub j: usize,
    /// Minimum-image displacement `rj − ri` (Å).
    pub rij: Vec3,
    /// Distance (Å).
    pub dist: f64,
}

/// Which lists a [`NeighborList::search`] writes.
#[derive(Clone, Copy, Debug)]
pub enum Lists<'a> {
    /// The pair list and every atom's full list.
    PairsAndFull,
    /// Every atom's full list, no pair list.
    Full,
    /// The full lists of the atoms flagged `true`; every other atom gets
    /// an empty list, and there is no pair list. A centre's list does not
    /// depend on which other atoms are centres.
    Centres(&'a [bool]),
}

impl Lists<'_> {
    fn is_centre(&self, i: usize) -> bool {
        match self {
            Lists::Centres(c) => c[i],
            _ => true,
        }
    }
}

/// Neighbour list for a fixed configuration. `Default` is an empty list
/// whose buffers a [`NeighborList::search`] fills and later searches
/// reuse.
#[derive(Clone, Debug, Default)]
pub struct NeighborList {
    cutoff: f64,
    pairs: Vec<Pair>,
    /// Atom `i`'s full list is `full[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    full: Vec<Neighbor>,
    bins: Bins,
}

/// The linked-cell bins, counting-sorted: bin `b` holds entries
/// `start[b]..start[b + 1]` of `atom`, `pos` and `image`.
#[derive(Clone, Debug, Default)]
struct Bins {
    start: Vec<usize>,
    atom: Vec<usize>,
    pos: Vec<Vec3>,
    image: Vec<[f64; 3]>,
    /// Per atom: its bin, and how many box lengths its position lies
    /// off the primary cell (`pos ≈ wrapped + image · L`, an integer per
    /// axis).
    bin_of: Vec<usize>,
    image_of: Vec<[f64; 3]>,
    /// One centre's candidates within the cutoff, and their sort keys.
    cand: Vec<Neighbor>,
    keys: Vec<u64>,
}

/// Prefix-sum per-bucket counts held in `start[1..]` into bucket starts.
fn counts_to_starts(start: &mut [usize]) {
    for b in 1..start.len() {
        start[b] += start[b - 1];
    }
}

/// After a fill that used `start[b]` as bucket `b`'s cursor (leaving it
/// at the bucket's end), shift the array back to bucket starts.
fn cursors_to_starts(start: &mut [usize]) {
    start.copy_within(..start.len() - 1, 1);
    start[0] = 0;
}

impl Bins {
    /// Counting-sort `pos` into `nbin` bins of the wrapped positions,
    /// ascending atom index within a bin.
    fn sort(&mut self, cell: &Cell, pos: &[Vec3], nbin: [usize; 3]) {
        let lens = cell.lengths();
        self.bin_of.clear();
        self.image_of.clear();
        for p in pos {
            let w = cell.wrap(p);
            let mut b = 0;
            let mut image = [0.0; 3];
            for a in 0..3 {
                let ba = ((w.0[a] / lens[a] * nbin[a] as f64).floor() as usize).min(nbin[a] - 1);
                b = b * nbin[a] + ba;
                image[a] = ((p.0[a] - w.0[a]) / lens[a]).round();
            }
            self.bin_of.push(b);
            self.image_of.push(image);
        }
        self.start.clear();
        self.start.resize(nbin.iter().product::<usize>() + 1, 0);
        for &b in &self.bin_of {
            self.start[b + 1] += 1;
        }
        counts_to_starts(&mut self.start);
        let n = pos.len();
        self.atom.resize(n, 0);
        self.pos.resize(n, Vec3::ZERO);
        self.image.resize(n, [0.0; 3]);
        for (i, &b) in self.bin_of.iter().enumerate() {
            let k = self.start[b];
            self.start[b] += 1;
            self.atom[k] = i;
            self.pos[k] = pos[i];
            self.image[k] = self.image_of[i];
        }
        cursors_to_starts(&mut self.start);
    }
}

impl NeighborList {
    /// Build the pair list and every full list for `pos` in `cell` with
    /// interaction `cutoff` (a [`NeighborList::search`] with
    /// [`Lists::PairsAndFull`] into fresh buffers).
    ///
    /// # Panics
    /// Panics if the cutoff exceeds half the shortest box length (the
    /// minimum-image convention would otherwise miss images).
    pub fn build(cell: &Cell, pos: &[Vec3], cutoff: f64) -> Self {
        let mut nl = NeighborList::default();
        nl.search(cell, pos, cutoff, Lists::PairsAndFull);
        nl
    }

    /// The `O(N²)` minimum-image scan with every list — the differential
    /// oracle the linked-cell path is checked against (dp-verify `domain`
    /// family).
    ///
    /// # Panics
    /// Same cutoff precondition as [`NeighborList::build`].
    pub fn build_naive(cell: &Cell, pos: &[Vec3], cutoff: f64) -> Self {
        check_cutoff(cell, cutoff);
        let mut nl = NeighborList { cutoff, ..NeighborList::default() };
        nl.search_naive(cell, pos, Lists::PairsAndFull);
        nl
    }

    /// Rebuild the `lists` for `pos` in `cell` with interaction `cutoff`,
    /// reusing this list's buffers.
    ///
    /// Uses the linked-cell search when every axis holds at least three
    /// bins of width ≥ the cutoff, and the `O(N²)` scan otherwise; the
    /// two constructions are bitwise identical, so the dispatch is
    /// invisible to every consumer.
    ///
    /// # Panics
    /// Same cutoff precondition as [`NeighborList::build`].
    pub fn search(&mut self, cell: &Cell, pos: &[Vec3], cutoff: f64, lists: Lists<'_>) {
        check_cutoff(cell, cutoff);
        self.cutoff = cutoff;
        match bin_counts(cell, cutoff) {
            Some(nbin) => self.search_cells(cell, pos, nbin, lists),
            None => self.search_naive(cell, pos, lists),
        }
    }

    /// The scan: the half list over every pair with a centre end, then a
    /// counting scatter into the centres' full lists. The entry of the
    /// higher atom takes the negated pair displacement, which is
    /// `min_image` from that atom but for the sign of a zero component
    /// (see [`signed_zero`]).
    fn search_naive(&mut self, cell: &Cell, pos: &[Vec3], lists: Lists<'_>) {
        let n = pos.len();
        let cut2 = self.cutoff * self.cutoff;
        self.pairs.clear();
        for i in 0..n {
            for j in (i + 1)..n {
                if !(lists.is_centre(i) || lists.is_centre(j)) {
                    continue;
                }
                let rij = cell.min_image(&pos[i], &pos[j]);
                let d2 = rij.norm2();
                if d2 < cut2 && d2 > 0.0 {
                    self.pairs.push(Pair { i, j, rij, dist: d2.sqrt() });
                }
            }
        }
        self.start.clear();
        self.start.resize(n + 1, 0);
        for p in &self.pairs {
            self.start[p.i + 1] += usize::from(lists.is_centre(p.i));
            self.start[p.j + 1] += usize::from(lists.is_centre(p.j));
        }
        counts_to_starts(&mut self.start);
        self.full.clear();
        self.full.resize(self.start[n], Neighbor::default());
        // Pairs come in (i, j) order, so every list fills ascending.
        for p in &self.pairs {
            if lists.is_centre(p.i) {
                self.full[self.start[p.i]] = Neighbor { j: p.j, rij: p.rij, dist: p.dist };
                self.start[p.i] += 1;
            }
            if lists.is_centre(p.j) {
                self.full[self.start[p.j]] = Neighbor { j: p.i, rij: -p.rij, dist: p.dist };
                self.start[p.j] += 1;
            }
        }
        cursors_to_starts(&mut self.start);
        if !matches!(lists, Lists::PairsAndFull) {
            self.pairs.clear();
        }
    }

    /// Linked-cell construction over `nbin` (≥ 3 per axis) bins.
    ///
    /// A centre visits its 27 surrounding bins; each stencil bin carries
    /// the periodic shift of the bin wrap, so a candidate's displacement
    /// is `(rj − ri) − L·s` with `s` the wrap shift plus the two atoms'
    /// image counts — the `round(x/L)` that `min_image` would compute for
    /// every candidate inside the cutoff (DESIGN §15.4). The candidates
    /// are sorted ascending by index before emission, and each centre's
    /// list is computed from that centre with the scan's sign of zero, so
    /// the output is bit-for-bit the naive scan's.
    fn search_cells(&mut self, cell: &Cell, pos: &[Vec3], nbin: [usize; 3], lists: Lists<'_>) {
        assert!(u32::try_from(pos.len()).is_ok(), "atom indices must fit the 32-bit sort keys");
        let cut2 = self.cutoff * self.cutoff;
        let margin = self.cutoff * BIN_MARGIN;
        let lens = cell.lengths();
        self.bins.sort(cell, pos, nbin);
        let Bins { start: bin_start, atom, pos: bin_pos, image, bin_of, image_of, cand, keys } = &mut self.bins;
        self.pairs.clear();
        self.full.clear();
        self.start.clear();
        self.start.push(0);
        for (i, pi) in pos.iter().enumerate() {
            if lists.is_centre(i) {
                let b = bin_of[i];
                let home = [b / (nbin[1] * nbin[2]), b / nbin[2] % nbin[1], b % nbin[2]];
                // Per axis: the three stencil bins, each with `shift −
                // image(i)`, where a bin reached across the upper face
                // holds images one box length up (shift −1) and one
                // reached across the lower face one box length down (+1),
                // and with the gap from the centre to the bin, less a
                // margin that covers the rounding of bin indices.
                let stencil: [[(usize, f64, f64); 3]; 3] = std::array::from_fn(|a| {
                    let (h, n, ki) = (home[a], nbin[a], image_of[i][a]);
                    let width = lens[a] / n as f64;
                    let w = pi.0[a] - lens[a] * ki;
                    let gap = |g: f64| (g - margin).max(0.0);
                    let (lo, hi) = (gap(w - h as f64 * width), gap((h + 1) as f64 * width - w));
                    [
                        if h == 0 { (n - 1, 1.0 - ki, lo) } else { (h - 1, 0.0 - ki, lo) },
                        (h, 0.0 - ki, 0.0),
                        if h + 1 == n { (0, -1.0 - ki, hi) } else { (h + 1, 0.0 - ki, hi) },
                    ]
                });
                // Candidates go to `cand[..found]` without a branch: each
                // is written, and kept by advancing `found` (the distance
                // field holds d² until emission).
                let mut found = 0;
                for &(bx, sx, gx) in &stencil[0] {
                    for &(by, sy, gy) in &stencil[1] {
                        for &(bz, sz, gz) in &stencil[2] {
                            if gx * gx + gy * gy + gz * gz >= cut2 {
                                continue;
                            }
                            let nb = (bx * nbin[1] + by) * nbin[2] + bz;
                            let bin = bin_start[nb]..bin_start[nb + 1];
                            if cand.len() < found + bin.len() {
                                cand.resize(found + bin.len(), Neighbor::default());
                            }
                            let base = [sx, sy, sz];
                            let members = bin_pos[bin.clone()].iter().zip(&image[bin.clone()]).zip(&atom[bin]);
                            for ((pj, kj), &j) in members {
                                let rij = Vec3(std::array::from_fn(|a| {
                                    (pj.0[a] - pi.0[a]) - lens[a] * (base[a] + kj[a])
                                }));
                                let d2 = rij.norm2();
                                cand[found] = Neighbor { j, rij, dist: d2 };
                                found += usize::from(d2 < cut2 && d2 > 0.0);
                            }
                        }
                    }
                }
                // Sorting packed `(j, slot)` keys beats sorting the
                // 40-byte records: the standard sort is branchless on
                // small runs of primitives.
                keys.clear();
                keys.extend(cand[..found].iter().enumerate().map(|(k, nb)| (nb.j as u64) << 32 | k as u64));
                keys.sort_unstable();
                self.full.extend(keys.iter().map(|&key| {
                    let nb = &cand[(key & 0xffff_ffff) as usize];
                    Neighbor {
                        j: nb.j,
                        rij: Vec3(nb.rij.0.map(|x| signed_zero(x, nb.j > i))),
                        dist: nb.dist.sqrt(),
                    }
                }));
            }
            self.start.push(self.full.len());
        }
        if matches!(lists, Lists::PairsAndFull) {
            // Every pair sits in two full lists.
            self.pairs.reserve(self.full.len() / 2);
            for (i, list) in self.start.windows(2).enumerate() {
                for nb in self.full[list[0]..list[1]].iter().filter(|nb| nb.j > i) {
                    self.pairs.push(Pair { i, j: nb.j, rij: nb.rij, dist: nb.dist });
                }
            }
        }
    }

    /// The cutoff used to build the list.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Unique pairs (each unordered pair once, `i < j`); empty unless
    /// the search asked for [`Lists::PairsAndFull`].
    pub fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// Full neighbour list of atom `i`.
    pub fn neighbors_of(&self, i: usize) -> &[Neighbor] {
        &self.full[self.start[i]..self.start[i + 1]]
    }

    /// Number of atoms the list covers.
    pub fn n_atoms(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Total entries over all full lists.
    pub fn n_entries(&self) -> usize {
        self.full.len()
    }

    /// Maximum neighbour count over all atoms.
    pub fn max_neighbors(&self) -> usize {
        self.start.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }
}

/// A displacement component with the scan's sign of zero: `min_image`
/// returns +0 for a zero component, and the scan stores the negated
/// pair displacement — so −0 — in a centre's entry for a lower-indexed
/// neighbour. Every non-zero `x` passes through unchanged.
#[inline]
fn signed_zero(x: f64, upper: bool) -> f64 {
    if upper {
        x + 0.0
    } else {
        -(0.0 - x)
    }
}

fn check_cutoff(cell: &Cell, cutoff: f64) {
    assert!(
        cutoff <= 0.5 * cell.min_length() + 1e-9,
        "cutoff {} exceeds half the min box length {}",
        cutoff,
        0.5 * cell.min_length()
    );
}

/// Bins per axis of the linked-cell search — as many as fit at width
/// `cutoff · (1 + BIN_MARGIN)` — or `None` when an axis would hold fewer
/// than three (the 27-bin stencil would then visit a bin twice).
fn bin_counts(cell: &Cell, cutoff: f64) -> Option<[usize; 3]> {
    if cutoff <= 0.0 {
        return None;
    }
    let width = cutoff * (1.0 + BIN_MARGIN);
    let nbin = cell.lengths().map(|l| (l / width).floor() as usize);
    nbin.iter().all(|&b| b >= 3).then_some(nbin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{fcc, Species};

    /// Bitwise list equality: same pair sequence, same per-atom
    /// neighbour sequences, identical displacement/distance bits.
    fn assert_bitwise_eq(a: &NeighborList, b: &NeighborList) {
        assert_eq!(a.pairs().len(), b.pairs().len());
        for (pa, pb) in a.pairs().iter().zip(b.pairs()) {
            assert_eq!((pa.i, pa.j), (pb.i, pb.j));
            assert_eq!(pa.rij.0.map(f64::to_bits), pb.rij.0.map(f64::to_bits));
            assert_eq!(pa.dist.to_bits(), pb.dist.to_bits());
        }
        assert_eq!(a.n_atoms(), b.n_atoms());
        for i in 0..a.n_atoms() {
            assert_full_eq(a.neighbors_of(i), b.neighbors_of(i), i);
        }
    }

    fn assert_full_eq(fa: &[Neighbor], fb: &[Neighbor], i: usize) {
        assert_eq!(fa.len(), fb.len(), "atom {i}");
        for (na, nb) in fa.iter().zip(fb) {
            assert_eq!(na.j, nb.j, "atom {i}");
            assert_eq!(na.rij.0.map(f64::to_bits), nb.rij.0.map(f64::to_bits), "atom {i}");
            assert_eq!(na.dist.to_bits(), nb.dist.to_bits(), "atom {i}");
        }
    }

    #[test]
    fn fcc_first_shell_has_12_neighbors() {
        let s = fcc(Species::new("Cu", 63.5), 3.6, [3, 3, 3]);
        let nn_dist = 3.6 / 2f64.sqrt();
        let nl = NeighborList::build(&s.cell, &s.pos, nn_dist * 1.1);
        for i in 0..s.n_atoms() {
            assert_eq!(nl.neighbors_of(i).len(), 12, "atom {i}");
        }
    }

    #[test]
    fn pairs_and_full_lists_are_consistent() {
        let s = fcc(Species::new("Cu", 63.5), 3.6, [2, 2, 2]);
        let nl = NeighborList::build(&s.cell, &s.pos, 1.7);
        let full_count: usize = (0..s.n_atoms()).map(|i| nl.neighbors_of(i).len()).sum();
        assert_eq!(full_count, 2 * nl.pairs().len());
        assert_eq!(full_count, nl.n_entries());
        for p in nl.pairs() {
            assert!(p.i < p.j);
            assert!((p.rij.norm() - p.dist).abs() < 1e-12);
            assert!(p.dist < 1.7);
        }
    }

    #[test]
    fn celllist_is_bitwise_identical_to_naive() {
        // A box big enough to trigger the cell-list path, with
        // deterministic pseudo-random jitter so positions carry no
        // lattice symmetry the orderings could hide behind.
        let mut s = fcc(Species::new("Cu", 63.5), 3.6, [4, 4, 4]);
        let mut x = 0x9e3779b97f4a7c15u64;
        for p in &mut s.pos {
            for k in 0..3 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                p.0[k] += 0.3 * ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            }
        }
        let cutoff = 4.5;
        assert!(bin_counts(&s.cell, cutoff).is_some());
        let fast = NeighborList::build(&s.cell, &s.pos, cutoff);
        let naive = NeighborList::build_naive(&s.cell, &s.pos, cutoff);
        assert!(!fast.pairs().is_empty());
        assert_bitwise_eq(&fast, &naive);
    }

    #[test]
    fn full_lists_are_ascending_by_index() {
        let s = fcc(Species::new("Cu", 63.5), 3.6, [4, 4, 4]);
        for cutoff in [1.7, 4.5] {
            let nl = NeighborList::build(&s.cell, &s.pos, cutoff);
            for i in 0..s.n_atoms() {
                let js: Vec<usize> = nl.neighbors_of(i).iter().map(|nb| nb.j).collect();
                assert!(js.windows(2).all(|w| w[0] < w[1]), "atom {i} cutoff {cutoff}");
            }
        }
    }

    #[test]
    fn small_boxes_use_the_naive_path_unchanged() {
        // Fewer than three bins per axis: search() must fall back to the
        // scan.
        let s = fcc(Species::new("Cu", 63.5), 3.6, [2, 2, 2]);
        assert!(bin_counts(&s.cell, 3.0).is_none());
        let fast = NeighborList::build(&s.cell, &s.pos, 3.0);
        let naive = NeighborList::build_naive(&s.cell, &s.pos, 3.0);
        assert_bitwise_eq(&fast, &naive);
    }

    #[test]
    fn reused_buffers_give_fresh_results() {
        let s = fcc(Species::new("Cu", 63.5), 3.6, [4, 4, 4]);
        let small = fcc(Species::new("Cu", 63.5), 3.6, [2, 2, 2]);
        let mut nl = NeighborList::default();
        nl.search(&s.cell, &s.pos, 4.5, Lists::Full);
        nl.search(&small.cell, &small.pos, 3.0, Lists::PairsAndFull);
        assert_bitwise_eq(&nl, &NeighborList::build_naive(&small.cell, &small.pos, 3.0));
        nl.search(&s.cell, &s.pos, 4.5, Lists::PairsAndFull);
        assert_bitwise_eq(&nl, &NeighborList::build_naive(&s.cell, &s.pos, 4.5));
    }

    #[test]
    fn neighbor_displacements_are_minimum_image() {
        let s = fcc(Species::new("Al", 27.0), 4.05, [2, 2, 2]);
        let nl = NeighborList::build(&s.cell, &s.pos, 3.0);
        for i in 0..s.n_atoms() {
            for nb in nl.neighbors_of(i) {
                let expect = s.cell.min_image(&s.pos[i], &s.pos[nb.j]);
                assert!((expect - nb.rij).norm() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds half the min box length")]
    fn oversized_cutoff_panics() {
        let s = fcc(Species::new("Cu", 63.5), 3.6, [1, 1, 1]);
        let _ = NeighborList::build(&s.cell, &s.pos, 3.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const RC: f64 = 1.25;

        /// A coordinate on an axis of length `l`: anywhere in the box,
        /// exactly on a face of the search's bins (0 included) or on a
        /// multiple of the cutoff, just below the top face, or one or
        /// two box lengths outside the cell.
        fn coord(kind: u8, u: f64, face: usize, l: f64) -> f64 {
            let bins = ((l / (RC * (1.0 + BIN_MARGIN))).floor()).max(1.0);
            match kind {
                0 => u * l,
                1 => face as f64 * (l / bins) % l,
                2 => (face as f64 * RC) % l,
                3 => l.next_down(),
                4 => u * l - l,
                _ => u * l + 2.0 * l,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Masked and unmasked cell lists against the naive scan,
            /// bit for bit, on orthorhombic boxes 3–6 cutoffs wide
            /// (about half the axes an exact multiple of the cutoff).
            #[test]
            fn cell_lists_match_the_naive_scan(
                widths in proptest::array::uniform3(3.0f64..6.0),
                exact in proptest::array::uniform3(proptest::bool::ANY),
                atoms in proptest::collection::vec(
                    (
                        proptest::array::uniform3(0u8..6),
                        proptest::array::uniform3(0.0f64..1.0),
                        proptest::array::uniform3(0usize..7),
                        proptest::bool::ANY,
                    ),
                    20..90,
                ),
            ) {
                let lens: [f64; 3] = std::array::from_fn(|a| {
                    if exact[a] { widths[a].round() * RC } else { widths[a] * RC }
                });
                let cell = Cell::orthorhombic(lens[0], lens[1], lens[2]);
                let pos: Vec<Vec3> = atoms
                    .iter()
                    .map(|(kind, u, face, _)| {
                        Vec3(std::array::from_fn(|a| coord(kind[a], u[a], face[a], lens[a])))
                    })
                    .collect();
                let mask: Vec<bool> = atoms.iter().map(|a| a.3).collect();
                let naive = NeighborList::build_naive(&cell, &pos, RC);
                let mut nl = NeighborList::default();
                nl.search(&cell, &pos, RC, Lists::PairsAndFull);
                assert_bitwise_eq(&nl, &naive);
                nl.search(&cell, &pos, RC, Lists::Centres(&mask));
                prop_assert!(nl.pairs().is_empty());
                for (i, &centre) in mask.iter().enumerate() {
                    if centre {
                        assert_full_eq(nl.neighbors_of(i), naive.neighbors_of(i), i);
                    } else {
                        prop_assert!(nl.neighbors_of(i).is_empty());
                    }
                }
            }
        }
    }
}
