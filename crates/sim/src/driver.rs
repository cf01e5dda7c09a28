//! Closed-loop phase-parallel application driver.
//!
//! Reproduces the paper's trace-driven measurement: each process walks the
//! application's phases in order — paying send overhead, blocking on its
//! receive, then computing — while its messages contend in the flit-level
//! engine. A process stalled waiting on a congested message delays its own
//! later phases, which in turn delays everyone who communicates with it:
//! the lock-step coupling through which "contention ... could account for
//! as much as a 30% degradation" (Section 1).

use std::collections::HashMap;

use nocsyn_model::{Flow, PhaseSchedule};
use nocsyn_topo::Network;

use crate::{Engine, ExecutionStats, ProcStats, RoutePolicy, SimConfig, SimError};

/// Per-phase, per-process communication obligations.
#[derive(Debug, Clone)]
struct PhaseInfo {
    /// `send[p]` — the flow process `p` sends in this phase, if any.
    send: Vec<Option<Flow>>,
    /// `recv[p]` — the flow process `p` receives in this phase, if any.
    recv: Vec<Option<Flow>>,
    bytes: u32,
    compute: u64,
}

#[derive(Debug, Clone, Copy)]
enum ProcState {
    /// Will begin its next phase step at the given cycle.
    ReadyAt(u64),
    /// Blocked on the delivery of `(phase tag, flow)`; waiting since
    /// `since`.
    Waiting { since: u64 },
    /// Finished all phases at the given cycle.
    Done(u64),
}

#[derive(Debug, Clone, Copy)]
struct Proc {
    step: usize,
    state: ProcState,
    comm: u64,
}

/// Drives a [`PhaseSchedule`] through the flit-level engine and reports
/// execution and communication time.
#[derive(Debug)]
pub struct AppDriver<'a> {
    net: &'a Network,
    policy: RoutePolicy,
    config: SimConfig,
}

impl<'a> AppDriver<'a> {
    /// Creates a driver over `net` with the given routing policy and
    /// simulator configuration.
    pub fn new(net: &'a Network, policy: RoutePolicy, config: SimConfig) -> Self {
        AppDriver {
            net,
            policy,
            config,
        }
    }

    /// Runs the application to completion.
    ///
    /// # Errors
    ///
    /// * [`SimError::ProcCountMismatch`] if the schedule and network
    ///   disagree on process count.
    /// * [`SimError::UnroutedFlow`] if a schedule flow has no route.
    /// * [`SimError::CycleCapExceeded`] if the run does not settle within
    ///   the configured cycle cap.
    pub fn run(&self, schedule: &PhaseSchedule) -> Result<ExecutionStats, SimError> {
        let n = schedule.n_procs();
        if n != self.net.n_procs() {
            return Err(SimError::ProcCountMismatch {
                schedule: n,
                network: self.net.n_procs(),
            });
        }

        let phases: Vec<PhaseInfo> = schedule
            .iter()
            .map(|phase| {
                let mut info = PhaseInfo {
                    send: vec![None; n],
                    recv: vec![None; n],
                    bytes: phase.bytes(),
                    compute: phase.compute_ticks(),
                };
                for flow in phase.iter() {
                    info.send[flow.src.index()] = Some(flow);
                    info.recv[flow.dst.index()] = Some(flow);
                }
                info
            })
            .collect();

        let mut engine = Engine::new(self.net, self.config.clone());
        let mut procs = vec![
            Proc {
                step: 0,
                state: ProcState::ReadyAt(0),
                comm: 0,
            };
            n
        ];
        if phases.is_empty() {
            procs.iter_mut().for_each(|p| p.state = ProcState::Done(0));
        }
        let mut deliveries: HashMap<(u64, Flow), u64> = HashMap::new();
        let mut unfinished = if phases.is_empty() { 0 } else { n };

        while unfinished > 0 || !engine.is_idle() {
            let cycle = engine.cycle();
            if cycle >= self.config.max_cycles() {
                return Err(SimError::CycleCapExceeded { cycles: cycle });
            }

            // Fire process steps scheduled for this cycle.
            for pidx in 0..n {
                if let ProcState::ReadyAt(t) = procs[pidx].state {
                    if t <= cycle {
                        self.begin_step(
                            pidx,
                            &mut procs,
                            &phases,
                            &mut engine,
                            &deliveries,
                            cycle,
                            &mut unfinished,
                        )?;
                    }
                }
            }

            engine.step();

            // Record deliveries and unblock waiting processes.
            let delivered: Vec<(Flow, u64, u64)> = engine.delivered_last_step().collect();
            for (flow, tag, at) in delivered {
                deliveries.insert((tag, flow), at);
                let pidx = flow.dst.index();
                let proc = procs[pidx];
                if let ProcState::Waiting { since } = proc.state {
                    // Only unblock if this is the message the process is
                    // actually waiting for.
                    let info = &phases[proc.step];
                    if info.recv[pidx] == Some(flow) && proc.step as u64 == tag {
                        let completion = at.max(since) + self.config.recv_overhead();
                        self.finish_step(
                            pidx,
                            &mut procs,
                            &phases,
                            completion,
                            since,
                            &mut unfinished,
                        );
                    }
                }
            }
        }

        let per_proc: Vec<ProcStats> = procs
            .iter()
            .map(|p| ProcStats {
                comm_cycles: p.comm,
                finish_cycle: match p.state {
                    ProcState::Done(t) => t,
                    _ => unreachable!("loop exits only when all processes are done"),
                },
            })
            .collect();
        let exec_cycles = per_proc.iter().map(|p| p.finish_cycle).max().unwrap_or(0);
        let mean_comm_cycles =
            per_proc.iter().map(|p| p.comm_cycles).sum::<u64>() as f64 / n.max(1) as f64;
        let max_comm_cycles = per_proc.iter().map(|p| p.comm_cycles).max().unwrap_or(0);
        let packets = engine.packet_stats();
        Ok(ExecutionStats {
            exec_cycles,
            mean_comm_cycles,
            max_comm_cycles,
            delivered: packets.delivered,
            per_proc,
            link_utilization: engine.link_utilization(),
            packets,
        })
    }

    /// Begins the current phase step of process `pidx` at `cycle`: issues
    /// its send (if any), then either completes immediately (receive
    /// already delivered or none expected) or blocks.
    #[allow(clippy::too_many_arguments)]
    fn begin_step(
        &self,
        pidx: usize,
        procs: &mut [Proc],
        phases: &[PhaseInfo],
        engine: &mut Engine,
        deliveries: &HashMap<(u64, Flow), u64>,
        cycle: u64,
        unfinished: &mut usize,
    ) -> Result<(), SimError> {
        let step = procs[pidx].step;
        let info = &phases[step];
        let mut t = cycle;

        if let Some(flow) = info.send[pidx] {
            let route = self.policy.choose(engine, flow)?.clone();
            // Defense-in-depth behind `nocsyn-faults` repair: refuse to
            // drive traffic over a link the config marks failed instead of
            // simulating a transfer the hardware could not perform.
            if !self.config.failed_links().is_empty() {
                if let Some(&ch) = route
                    .hops()
                    .iter()
                    .find(|ch| self.config.failed_links().contains(&ch.link))
                {
                    return Err(SimError::FailedLinkUsed {
                        flow,
                        link: ch.link,
                    });
                }
            }
            t += self.config.send_overhead();
            procs[pidx].comm += self.config.send_overhead();
            engine.inject(flow, info.bytes, &route, t, step as u64);
        }

        match info.recv[pidx] {
            Some(flow) => {
                if let Some(&at) = deliveries.get(&(step as u64, flow)) {
                    let completion = at.max(t) + self.config.recv_overhead();
                    self.finish_step(pidx, procs, phases, completion, t, unfinished);
                } else {
                    procs[pidx].state = ProcState::Waiting { since: t };
                }
            }
            None => {
                self.advance_phase(pidx, procs, phases, t + info.compute, unfinished);
            }
        }
        Ok(())
    }

    /// Completes a receive that ends at `completion` (waiting began at
    /// `since`), accounting the blocked span as communication time.
    fn finish_step(
        &self,
        pidx: usize,
        procs: &mut [Proc],
        phases: &[PhaseInfo],
        completion: u64,
        since: u64,
        unfinished: &mut usize,
    ) {
        procs[pidx].comm += completion - since;
        let compute = phases[procs[pidx].step].compute;
        self.advance_phase(pidx, procs, phases, completion + compute, unfinished);
    }

    fn advance_phase(
        &self,
        pidx: usize,
        procs: &mut [Proc],
        phases: &[PhaseInfo],
        ready: u64,
        unfinished: &mut usize,
    ) {
        procs[pidx].step += 1;
        if procs[pidx].step == phases.len() {
            procs[pidx].state = ProcState::Done(ready);
            *unfinished -= 1;
        } else {
            procs[pidx].state = ProcState::ReadyAt(ready);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::Phase;
    use nocsyn_topo::regular;

    fn exchange_schedule(n: usize, bytes: u32, compute: u64, phases: usize) -> PhaseSchedule {
        let mut sched = PhaseSchedule::new(n);
        for k in 0..phases {
            // Rotation by (k % (n-1)) + 1 positions: always a proper
            // fixed-point-free permutation.
            let shift = (k % (n - 1)) + 1;
            let mut phase = Phase::new().with_bytes(bytes).with_compute(compute);
            for p in 0..n {
                phase.add(Flow::from_indices(p, (p + shift) % n)).unwrap();
            }
            sched.push(phase).unwrap();
        }
        sched
    }

    #[test]
    fn single_message_accounting() {
        // One phase, one message 0 -> 1 on a crossbar.
        let (net, routes) = regular::crossbar(2).unwrap();
        let mut sched = PhaseSchedule::new(2);
        sched
            .push(
                Phase::from_flows([(0usize, 1usize)])
                    .unwrap()
                    .with_bytes(4)
                    .with_compute(100),
            )
            .unwrap();
        let stats = AppDriver::new(&net, RoutePolicy::deterministic(routes), SimConfig::paper())
            .run(&sched)
            .unwrap();
        assert_eq!(stats.delivered, 1);
        // Sender: 10 send overhead + 100 compute = finishes at 110.
        assert_eq!(stats.per_proc[0].finish_cycle, 110);
        assert_eq!(stats.per_proc[0].comm_cycles, 10);
        // Receiver: waits from 0; message injected at 10, 2 flits over 2
        // channels -> delivered at 10 + 2 advances + ... then +10 recv
        // overhead + 100 compute.
        assert!(stats.per_proc[1].finish_cycle > 120);
        assert!(stats.per_proc[1].comm_cycles >= 20);
        assert_eq!(stats.exec_cycles, stats.per_proc[1].finish_cycle);
    }

    #[test]
    fn empty_schedule_finishes_immediately() {
        let (net, routes) = regular::crossbar(2).unwrap();
        let sched = PhaseSchedule::new(2);
        let stats = AppDriver::new(&net, RoutePolicy::deterministic(routes), SimConfig::paper())
            .run(&sched)
            .unwrap();
        assert_eq!(stats.exec_cycles, 0);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn proc_count_mismatch_is_rejected() {
        let (net, routes) = regular::crossbar(2).unwrap();
        let sched = PhaseSchedule::new(4);
        let err = AppDriver::new(&net, RoutePolicy::deterministic(routes), SimConfig::paper())
            .run(&sched)
            .unwrap_err();
        assert!(matches!(err, SimError::ProcCountMismatch { .. }));
    }

    #[test]
    fn injection_over_a_failed_link_is_refused() {
        let (net, routes) = regular::crossbar(2).unwrap();
        let flow = Flow::from_indices(0, 1);
        let dead = routes.route(flow).unwrap().hops()[0].link;
        let mut sched = PhaseSchedule::new(2);
        sched
            .push(Phase::from_flows([(0usize, 1usize)]).unwrap())
            .unwrap();
        let config = SimConfig::paper().with_failed_links([dead]);
        let err = AppDriver::new(&net, RoutePolicy::deterministic(routes), config)
            .run(&sched)
            .unwrap_err();
        assert_eq!(err, SimError::FailedLinkUsed { flow, link: dead });
    }

    #[test]
    fn failed_links_off_route_do_not_disturb_the_run() {
        let (net, routes) = regular::crossbar(2).unwrap();
        let mut sched = PhaseSchedule::new(2);
        sched
            .push(Phase::from_flows([(0usize, 1usize)]).unwrap())
            .unwrap();
        let baseline = AppDriver::new(
            &net,
            RoutePolicy::deterministic(routes.clone()),
            SimConfig::paper(),
        )
        .run(&sched)
        .unwrap();
        // A failed link no route touches: identical stats to no faults.
        let config = SimConfig::paper().with_failed_links([nocsyn_topo::LinkId(9999)]);
        let stats = AppDriver::new(&net, RoutePolicy::deterministic(routes), config)
            .run(&sched)
            .unwrap();
        assert_eq!(stats.exec_cycles, baseline.exec_cycles);
        assert_eq!(stats.delivered, baseline.delivered);
    }

    #[test]
    fn crossbar_beats_contended_line_on_exchange() {
        // 4 procs all-exchange: a crossbar must not be slower than a mesh
        // where messages share column links.
        let sched = exchange_schedule(4, 1024, 0, 3);
        let (xbar, xroutes) = regular::crossbar(4).unwrap();
        let (mesh, mroutes) = regular::mesh(2, 2).unwrap();
        let x = AppDriver::new(
            &xbar,
            RoutePolicy::deterministic(xroutes),
            SimConfig::paper(),
        )
        .run(&sched)
        .unwrap();
        let m = AppDriver::new(
            &mesh,
            RoutePolicy::deterministic(mroutes),
            SimConfig::paper(),
        )
        .run(&sched)
        .unwrap();
        assert!(x.exec_cycles <= m.exec_cycles);
        assert_eq!(x.delivered, m.delivered);
    }

    #[test]
    fn compute_gaps_extend_execution_not_comm() {
        let (net, routes) = regular::crossbar(4).unwrap();
        let fast = exchange_schedule(4, 256, 0, 2);
        let slow = exchange_schedule(4, 256, 5_000, 2);
        let policy = RoutePolicy::deterministic(routes);
        let a = AppDriver::new(&net, policy.clone(), SimConfig::paper())
            .run(&fast)
            .unwrap();
        let b = AppDriver::new(&net, policy, SimConfig::paper())
            .run(&slow)
            .unwrap();
        assert!(b.exec_cycles > a.exec_cycles + 9_000);
        // Communication time itself is unchanged by compute.
        assert!((b.mean_comm_cycles - a.mean_comm_cycles).abs() < 64.0);
        assert!(b.comm_fraction() < a.comm_fraction());
    }

    #[test]
    fn lockstep_coupling_propagates_delay() {
        // Ring exchange where proc 0's first message is huge: everyone's
        // finish time is dragged by the slow link through lock-step
        // dependences across phases.
        let (net, routes) = regular::crossbar(4).unwrap();
        let mut sched = PhaseSchedule::new(4);
        let mut p1 = Phase::new().with_bytes(8192);
        for p in 0..4 {
            p1.add(Flow::from_indices(p, (p + 1) % 4)).unwrap();
        }
        sched.push(p1).unwrap();
        let mut p2 = Phase::new().with_bytes(64);
        for p in 0..4 {
            p2.add(Flow::from_indices(p, (p + 3) % 4)).unwrap();
        }
        sched.push(p2).unwrap();
        let stats = AppDriver::new(&net, RoutePolicy::deterministic(routes), SimConfig::paper())
            .run(&sched)
            .unwrap();
        // 8 KiB = 2049 flits: phase 1 dominates everyone's finish time.
        for p in stats.per_proc {
            assert!(p.finish_cycle > 2_000);
        }
        assert_eq!(stats.delivered, 8);
    }
}
