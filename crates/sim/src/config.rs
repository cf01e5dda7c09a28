//! Simulator configuration.

use std::collections::BTreeSet;

use nocsyn_topo::LinkId;

/// Tunable parameters of the flit-level simulator.
///
/// [`SimConfig::paper`] reproduces the setup of Section 4.2: 32-bit flits,
/// 3 virtual channels per physical link, 10-cycle send and receive
/// overheads, and link delay equal to physical length in tiles (minimum
/// one cycle — set per link with [`SimConfig::with_link_delays`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    flit_bytes: u32,
    vcs: usize,
    send_overhead: u64,
    recv_overhead: u64,
    deadlock_timeout: u64,
    retransmit_delay: u64,
    max_cycles: u64,
    link_delays: Vec<u32>,
    failed_links: BTreeSet<LinkId>,
}

impl SimConfig {
    /// The paper's simulation parameters.
    pub fn paper() -> Self {
        SimConfig {
            flit_bytes: 4,
            vcs: 3,
            send_overhead: 10,
            recv_overhead: 10,
            // Generous: a worm legitimately queued behind several kKiB
            // worms on one VC can stall for thousands of cycles; killing
            // it would be a false positive. Real deadlock cycles hold
            // forever, so late detection only delays recovery.
            deadlock_timeout: 20_000,
            retransmit_delay: 32,
            max_cycles: 50_000_000,
            link_delays: Vec::new(),
            failed_links: BTreeSet::new(),
        }
    }

    /// Overrides the virtual-channel count per physical link.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero.
    #[must_use]
    pub fn with_vcs(mut self, vcs: usize) -> Self {
        assert!(vcs > 0, "need at least one virtual channel");
        self.vcs = vcs;
        self
    }

    /// Overrides the no-progress timeout after which a message is declared
    /// deadlocked, killed, and retransmitted.
    #[must_use]
    pub fn with_deadlock_timeout(mut self, cycles: u64) -> Self {
        self.deadlock_timeout = cycles;
        self
    }

    /// Overrides the simulation cycle cap (safety bound).
    #[must_use]
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Sets per-link delays in cycles (index = [`LinkId`]); unlisted links
    /// default to one cycle. Zero entries are clamped to one.
    #[must_use]
    pub fn with_link_delays(mut self, delays: Vec<u32>) -> Self {
        self.link_delays = delays;
        self
    }

    /// Flit width in bytes.
    pub fn flit_bytes(&self) -> u32 {
        self.flit_bytes
    }

    /// Virtual channels per physical link.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Send overhead in cycles.
    pub fn send_overhead(&self) -> u64 {
        self.send_overhead
    }

    /// Receive overhead in cycles.
    pub fn recv_overhead(&self) -> u64 {
        self.recv_overhead
    }

    /// Deadlock detection timeout in cycles.
    pub fn deadlock_timeout(&self) -> u64 {
        self.deadlock_timeout
    }

    /// Delay before a killed message is retransmitted.
    pub fn retransmit_delay(&self) -> u64 {
        self.retransmit_delay
    }

    /// Simulation cycle cap.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// Marks links as failed for the run. Injection is refused for any
    /// route that traverses a failed link — the defense-in-depth backstop
    /// behind `nocsyn-faults` route repair: a table that was repaired for
    /// the same scenario never trips it.
    #[must_use]
    pub fn with_failed_links(mut self, links: impl IntoIterator<Item = LinkId>) -> Self {
        self.failed_links.extend(links);
        self
    }

    /// Links marked failed for this run.
    pub fn failed_links(&self) -> &BTreeSet<LinkId> {
        &self.failed_links
    }

    /// The delay of a specific link in cycles (≥ 1).
    pub fn link_delay(&self, link: LinkId) -> u32 {
        self.link_delays
            .get(link.index())
            .copied()
            .unwrap_or(1)
            .max(1)
    }

    /// Number of flits a payload of `bytes` occupies, head flit included.
    pub fn flits_for(&self, bytes: u32) -> u64 {
        u64::from(bytes.div_ceil(self.flit_bytes)).max(1) + 1
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper();
        assert_eq!(c.flit_bytes(), 4);
        assert_eq!(c.vcs(), 3);
        assert_eq!(c.send_overhead(), 10);
        assert_eq!(c.recv_overhead(), 10);
        assert_eq!(c, SimConfig::default());
    }

    #[test]
    fn flit_accounting() {
        let c = SimConfig::paper();
        assert_eq!(c.flits_for(4), 2); // one payload flit + head
        assert_eq!(c.flits_for(5), 3);
        assert_eq!(c.flits_for(0), 2); // clamped to one payload flit
        assert_eq!(c.flits_for(4096), 1025);
    }

    #[test]
    fn link_delays_default_and_clamp() {
        let c = SimConfig::paper().with_link_delays(vec![3, 0]);
        assert_eq!(c.link_delay(LinkId(0)), 3);
        assert_eq!(c.link_delay(LinkId(1)), 1); // clamped
        assert_eq!(c.link_delay(LinkId(9)), 1); // default
    }

    #[test]
    #[should_panic(expected = "at least one virtual channel")]
    fn zero_vcs_rejected() {
        let _ = SimConfig::paper().with_vcs(0);
    }
}
