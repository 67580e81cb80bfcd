//! Per-domain atom storage in structure-of-arrays layout.
//!
//! Positions, velocities, forces and per-atom energies live in
//! separate contiguous arrays (one cache stream per field during the
//! kick/drift loops), indexed by local slot. Every store keeps its
//! atoms **sorted ascending by global id** — the invariant the whole
//! determinism argument rests on: merged owned+ghost sub-frames come
//! out gid-ascending, so per-atom reductions see their contributions
//! in the same order at any domain grid.

use dp_mdsim::vec3::Vec3;

/// Owned atoms of one domain (SoA, gid-ascending).
#[derive(Clone, Debug, Default)]
pub struct DomainStore {
    /// Global atom ids (sorted ascending).
    pub gid: Vec<usize>,
    /// Type ids.
    pub typ: Vec<usize>,
    /// Positions (Å, wrapped into the global cell).
    pub x: Vec<f64>,
    /// See `x`.
    pub y: Vec<f64>,
    /// See `x`.
    pub z: Vec<f64>,
    /// Velocities (Å/fs).
    pub vx: Vec<f64>,
    /// See `vx`.
    pub vy: Vec<f64>,
    /// See `vx`.
    pub vz: Vec<f64>,
    /// Forces at the current positions (eV/Å).
    pub fx: Vec<f64>,
    /// See `fx`.
    pub fy: Vec<f64>,
    /// See `fx`.
    pub fz: Vec<f64>,
    /// Per-atom potential energy at the current positions (eV).
    pub energy: Vec<f64>,
}

impl DomainStore {
    /// Number of owned atoms.
    pub fn len(&self) -> usize {
        self.gid.len()
    }

    /// True when the domain owns no atoms.
    pub fn is_empty(&self) -> bool {
        self.gid.is_empty()
    }

    /// Insert an atom at its ascending-gid slot (an append when `gid`
    /// is the largest yet).
    pub fn insert(&mut self, gid: usize, typ: usize, pos: Vec3, vel: Vec3) {
        let i = self.gid.partition_point(|&g| g < gid);
        self.gid.insert(i, gid);
        self.typ.insert(i, typ);
        self.x.insert(i, pos.0[0]);
        self.y.insert(i, pos.0[1]);
        self.z.insert(i, pos.0[2]);
        self.vx.insert(i, vel.0[0]);
        self.vy.insert(i, vel.0[1]);
        self.vz.insert(i, vel.0[2]);
        self.fx.insert(i, 0.0);
        self.fy.insert(i, 0.0);
        self.fz.insert(i, 0.0);
        self.energy.insert(i, 0.0);
    }

    /// Position of slot `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// Velocity of slot `i`.
    #[inline]
    pub fn vel(&self, i: usize) -> Vec3 {
        Vec3::new(self.vx[i], self.vy[i], self.vz[i])
    }

    /// Force on slot `i`.
    #[inline]
    pub fn force(&self, i: usize) -> Vec3 {
        Vec3::new(self.fx[i], self.fy[i], self.fz[i])
    }

    /// Remove slot `i`, keeping the others in gid order.
    pub fn remove(&mut self, i: usize) {
        self.gid.remove(i);
        self.typ.remove(i);
        self.x.remove(i);
        self.y.remove(i);
        self.z.remove(i);
        self.vx.remove(i);
        self.vy.remove(i);
        self.vz.remove(i);
        self.fx.remove(i);
        self.fy.remove(i);
        self.fz.remove(i);
        self.energy.remove(i);
    }
}

/// Replicated ghost atoms of one domain: every atom owned elsewhere
/// whose wrapped position lies within the potential's halo of this
/// domain's region. Positions are the owner's exact bits — ghosts are
/// replicas, never periodic-image copies (displacements always go
/// through the global cell's minimum-image map).
#[derive(Clone, Debug, Default)]
pub struct GhostStore {
    /// Global atom ids (sorted ascending).
    pub gid: Vec<usize>,
    /// Type ids.
    pub typ: Vec<usize>,
    /// Positions (Å, wrapped; bitwise equal to the owner's copy).
    pub pos: Vec<Vec3>,
    /// Within `cutoff` (not just `halo`) of the region: the potential
    /// must evaluate these as centres (e.g. EAM densities) because
    /// they can be neighbours of owned atoms.
    pub inner: Vec<bool>,
}

impl GhostStore {
    /// Number of ghosts.
    pub fn len(&self) -> usize {
        self.gid.len()
    }

    /// True when no ghosts are held.
    pub fn is_empty(&self) -> bool {
        self.gid.is_empty()
    }

    /// Drop all ghosts, keeping capacity.
    pub fn clear(&mut self) {
        self.gid.clear();
        self.typ.clear();
        self.pos.clear();
        self.inner.clear();
    }
}

/// Merged owned+ghost view buffers, rebuilt each evaluation (capacity
/// is retained, so the steady state allocates nothing).
#[derive(Clone, Debug, Default)]
pub struct LocalArrays {
    /// Global ids, ascending.
    pub gids: Vec<usize>,
    /// Type ids.
    pub types: Vec<usize>,
    /// Wrapped positions.
    pub pos: Vec<Vec3>,
    /// Owned flag per local index.
    pub owned: Vec<bool>,
    /// Centre-evaluation flag (owned or inner ghost).
    pub inner: Vec<bool>,
    /// Local index → owned-store slot (`usize::MAX` for ghosts).
    pub owned_slot: Vec<usize>,
}

impl LocalArrays {
    /// Number of local (owned + ghost) atoms.
    pub fn len(&self) -> usize {
        self.gids.len()
    }

    /// True when the merged view holds no atoms.
    pub fn is_empty(&self) -> bool {
        self.gids.is_empty()
    }

    /// Rebuild by merging a gid-ascending store with gid-ascending
    /// ghosts (two-pointer merge; the id sets are disjoint).
    pub fn rebuild(&mut self, store: &DomainStore, ghosts: &GhostStore) {
        self.gids.clear();
        self.types.clear();
        self.pos.clear();
        self.owned.clear();
        self.inner.clear();
        self.owned_slot.clear();
        let (mut a, mut b) = (0, 0);
        while a < store.len() || b < ghosts.len() {
            let take_owned = b >= ghosts.len() || (a < store.len() && store.gid[a] < ghosts.gid[b]);
            if take_owned {
                self.gids.push(store.gid[a]);
                self.types.push(store.typ[a]);
                self.pos.push(store.pos(a));
                self.owned.push(true);
                self.inner.push(true);
                self.owned_slot.push(a);
                a += 1;
            } else {
                self.gids.push(ghosts.gid[b]);
                self.types.push(ghosts.typ[b]);
                self.pos.push(ghosts.pos[b]);
                self.owned.push(false);
                self.inner.push(ghosts.inner[b]);
                self.owned_slot.push(usize::MAX);
                b += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_remove_keep_gid_order_across_all_arrays() {
        let mut s = DomainStore::default();
        s.insert(5, 1, Vec3::new(5.0, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0));
        s.insert(2, 0, Vec3::new(2.0, 0.0, 0.0), Vec3::new(0.2, 0.0, 0.0));
        s.insert(9, 1, Vec3::new(9.0, 0.0, 0.0), Vec3::new(0.9, 0.0, 0.0));
        s.insert(7, 0, Vec3::new(7.0, 0.0, 0.0), Vec3::new(0.7, 0.0, 0.0));
        s.fx.copy_from_slice(&[20.0, 50.0, 70.0, 90.0]);
        s.remove(2);
        assert_eq!(s.gid, vec![2, 5, 9]);
        assert_eq!(s.typ, vec![0, 1, 1]);
        assert_eq!(s.x, vec![2.0, 5.0, 9.0]);
        assert_eq!(s.vx, vec![0.2, 0.5, 0.9]);
        assert_eq!(s.fx, vec![20.0, 50.0, 90.0]);
    }

    #[test]
    fn merge_interleaves_ascending_with_slots() {
        let mut s = DomainStore::default();
        s.insert(1, 0, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
        s.insert(4, 0, Vec3::new(4.0, 0.0, 0.0), Vec3::ZERO);
        let mut g = GhostStore::default();
        g.gid.extend([0, 2, 7]);
        g.typ.extend([0, 0, 0]);
        g.pos.extend([Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0), Vec3::new(7.0, 0.0, 0.0)]);
        g.inner.extend([true, false, true]);
        let mut loc = LocalArrays::default();
        loc.rebuild(&s, &g);
        assert_eq!(loc.gids, vec![0, 1, 2, 4, 7]);
        assert_eq!(loc.owned, vec![false, true, false, true, false]);
        assert_eq!(loc.inner, vec![true, true, false, true, true]);
        assert_eq!(loc.owned_slot, vec![usize::MAX, 0, usize::MAX, 1, usize::MAX]);
    }
}
