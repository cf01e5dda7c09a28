//! Structural diffs between networks: what a run-time reconfiguration
//! must change.
//!
//! The paper's introduction motivates reconfigurable fabrics (FPGAs,
//! optical networks) whose "physical or logical topology ... may be made
//! to match the requirements of a particular application". Reconfiguring
//! from the network of application A to that of application B costs
//! whatever differs; [`NetworkDelta`] quantifies it for two networks over
//! the same processor set with comparable switch indices (e.g. the output
//! of warm-started incremental synthesis).

use std::collections::BTreeMap;
use std::fmt;

use nocsyn_model::ProcId;

use crate::Network;

/// The edit script between two networks: per switch pair, how many
/// parallel links to add or remove; plus which processors change home.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkDelta {
    links_added: BTreeMap<(usize, usize), usize>,
    links_removed: BTreeMap<(usize, usize), usize>,
    switches_added: usize,
    moved_procs: Vec<ProcId>,
}

impl NetworkDelta {
    /// Computes the delta transforming `from` into `to`.
    ///
    /// Switch indices are compared positionally, so the result is
    /// meaningful when both networks come from placement-stable synthesis
    /// (a `nocsyn-synth` request warm-started from the old placement).
    ///
    /// # Panics
    ///
    /// Panics if the two networks disagree on processor count.
    pub fn between(from: &Network, to: &Network) -> NetworkDelta {
        assert_eq!(
            from.n_procs(),
            to.n_procs(),
            "reconfiguration preserves the processor set"
        );
        let max_switches = from.n_switches().max(to.n_switches());
        let mut links_added = BTreeMap::new();
        let mut links_removed = BTreeMap::new();
        for a in 0..max_switches {
            for b in a + 1..max_switches {
                let count = |net: &Network| {
                    if a < net.n_switches() && b < net.n_switches() {
                        net.links_between(a.into(), b.into())
                    } else {
                        0
                    }
                };
                let (before, after) = (count(from), count(to));
                if after > before {
                    links_added.insert((a, b), after - before);
                } else if before > after {
                    links_removed.insert((a, b), before - after);
                }
            }
        }
        let moved_procs = (0..from.n_procs())
            .map(ProcId)
            .filter(|&p| from.switch_of(p).ok() != to.switch_of(p).ok())
            .collect();
        NetworkDelta {
            links_added,
            links_removed,
            switches_added: to.n_switches().saturating_sub(from.n_switches()),
            moved_procs,
        }
    }

    /// Total parallel links to add.
    pub fn n_links_added(&self) -> usize {
        self.links_added.values().sum()
    }

    /// Total parallel links to remove.
    pub fn n_links_removed(&self) -> usize {
        self.links_removed.values().sum()
    }

    /// New switches the target needs.
    pub fn n_switches_added(&self) -> usize {
        self.switches_added
    }

    /// Processors whose home switch changes.
    pub fn moved_procs(&self) -> &[ProcId] {
        &self.moved_procs
    }

    /// Whether the two networks are already identical in structure.
    pub fn is_empty(&self) -> bool {
        self.links_added.is_empty()
            && self.links_removed.is_empty()
            && self.switches_added == 0
            && self.moved_procs.is_empty()
    }

    /// Total edit cost: links touched plus processor re-attachments (each
    /// re-attachment rewires one NI link).
    pub fn cost(&self) -> usize {
        self.n_links_added() + self.n_links_removed() + self.moved_procs.len()
    }

    /// Iterates over `(switch pair, links to add)`.
    pub fn added(&self) -> impl Iterator<Item = ((usize, usize), usize)> + '_ {
        self.links_added.iter().map(|(&k, &v)| (k, v))
    }

    /// Iterates over `(switch pair, links to remove)`.
    pub fn removed(&self) -> impl Iterator<Item = ((usize, usize), usize)> + '_ {
        self.links_removed.iter().map(|(&k, &v)| (k, v))
    }
}

impl fmt::Display for NetworkDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "no reconfiguration required");
        }
        writeln!(
            f,
            "reconfiguration: +{} links, -{} links, +{} switches, {} procs moved",
            self.n_links_added(),
            self.n_links_removed(),
            self.switches_added,
            self.moved_procs.len()
        )?;
        for ((a, b), n) in &self.links_added {
            writeln!(f, "  add {n} link(s) S{a} -- S{b}")?;
        }
        for ((a, b), n) in &self.links_removed {
            writeln!(f, "  remove {n} link(s) S{a} -- S{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular;

    #[test]
    fn identical_networks_have_empty_delta() {
        let (a, _) = regular::mesh(2, 2).unwrap();
        let (b, _) = regular::mesh(2, 2).unwrap();
        let d = NetworkDelta::between(&a, &b);
        assert!(d.is_empty());
        assert_eq!(d.cost(), 0);
        assert_eq!(d.to_string(), "no reconfiguration required");
    }

    #[test]
    fn mesh_to_torus_adds_wrap_links() {
        let (mesh, _) = regular::mesh(3, 3).unwrap();
        let (torus, _) = regular::torus(3, 3).unwrap();
        let d = NetworkDelta::between(&mesh, &torus);
        assert_eq!(d.n_links_added(), 6); // 3 row wraps + 3 column wraps
        assert_eq!(d.n_links_removed(), 0);
        assert_eq!(d.n_switches_added(), 0);
        assert!(d.moved_procs().is_empty());
        assert_eq!(d.cost(), 6);
        // And the reverse removes them.
        let back = NetworkDelta::between(&torus, &mesh);
        assert_eq!(back.n_links_removed(), 6);
        assert_eq!(back.n_links_added(), 0);
    }

    #[test]
    fn parallel_link_counts_diff_by_multiplicity() {
        let mut a = Network::new(0);
        let s0 = a.add_switch();
        let s1 = a.add_switch();
        a.add_link(s0, s1).unwrap();
        let mut b = Network::new(0);
        let t0 = b.add_switch();
        let t1 = b.add_switch();
        b.add_link(t0, t1).unwrap();
        b.add_link(t0, t1).unwrap();
        b.add_link(t0, t1).unwrap();
        let d = NetworkDelta::between(&a, &b);
        assert_eq!(d.n_links_added(), 2);
        assert_eq!(d.added().next(), Some(((0, 1), 2)));
    }

    #[test]
    fn moved_procs_are_detected() {
        use nocsyn_model::ProcId;
        let mut a = Network::new(2);
        let a0 = a.add_switch();
        let a1 = a.add_switch();
        a.add_link(a0, a1).unwrap();
        a.attach(ProcId(0), a0).unwrap();
        a.attach(ProcId(1), a1).unwrap();
        let mut b = Network::new(2);
        let b0 = b.add_switch();
        let b1 = b.add_switch();
        b.add_link(b0, b1).unwrap();
        b.attach(ProcId(0), b0).unwrap();
        b.attach(ProcId(1), b0).unwrap(); // proc 1 moved
        let d = NetworkDelta::between(&a, &b);
        assert_eq!(d.moved_procs(), &[ProcId(1)]);
        assert_eq!(d.cost(), 1);
    }

    #[test]
    #[should_panic(expected = "processor set")]
    fn proc_count_mismatch_panics() {
        let (a, _) = regular::crossbar(2).unwrap();
        let (b, _) = regular::crossbar(3).unwrap();
        let _ = NetworkDelta::between(&a, &b);
    }
}
