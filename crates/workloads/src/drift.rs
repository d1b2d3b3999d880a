//! Planted-drift workloads: traces whose communication locality *changes
//! mid-computation* at known positions.
//!
//! The paper's corpus is (implicitly) stationary — each computation keeps
//! one communication structure for its whole life, which is what lets a
//! merge-once dynamic strategy lock clusters in early and never regret it.
//! Real long-running systems re-block their data decomposition between
//! solver phases and re-balance request routing between service tiers, so
//! the partner a process talks to most is a function of *time*. These
//! generators plant exactly that: a first-phase locality the adaptive
//! engine will happily cluster, then one or more announced phase changes
//! that make the planted clustering wrong.
//!
//! Every family exposes `drift_points()` — the exact event-count positions
//! (0-based offsets into the delivery order) where the planted structure
//! changes. Tests use them to check the drift detector reacts *after* a
//! plant and not before, and the golden tests pin them alongside the event
//! counts so a generator edit cannot silently move the plants.

use crate::Workload;
use cts_model::{ProcessId, Trace, TraceBuilder};

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

/// Phase-change SPMD: a blocked ring exchange whose blocking is re-offset
/// every phase.
///
/// Within a phase, process `i` belongs to the block `(i + offset) / block`
/// (offset = `phase * block / 2`, wrapping) and each iteration sends one
/// message around its block's ring, then computes. Re-blocking by half a
/// block each phase means every process's ring neighbours change at every
/// phase boundary — the planted drift a static or merge-once clustering
/// cannot follow.
///
/// Events per iteration: `2n` message halves + `n` internals; a phase is
/// `iters_per_phase` iterations, so drift is planted every
/// `3 * procs * iters_per_phase` events.
#[derive(Clone, Copy, Debug)]
pub struct PhaseShiftStencil {
    pub procs: u32,
    pub phases: u32,
    pub iters_per_phase: u32,
    /// Block size; must divide `procs` and be >= 2.
    pub block: u32,
}

impl PhaseShiftStencil {
    /// Ring successor of `i` under the blocking of `phase`.
    fn ring_next(&self, i: u32, phase: u32) -> u32 {
        let n = self.procs;
        let off = (phase * self.block / 2) % n;
        // Position in the shifted space; blocks tile that space exactly.
        let shifted = (i + off) % n;
        let base = shifted - shifted % self.block;
        let next_shifted = base + (shifted + 1 - base) % self.block;
        (next_shifted + n - off) % n
    }

    /// 0-based event offsets of the phase boundaries (one per phase change,
    /// so `phases - 1` entries).
    pub fn drift_points(&self) -> Vec<u64> {
        let per_phase = 3 * self.procs as u64 * self.iters_per_phase as u64;
        (1..self.phases as u64).map(|ph| ph * per_phase).collect()
    }
}

impl Workload for PhaseShiftStencil {
    fn name(&self) -> String {
        format!(
            "drift/phase-stencil-{}p{}x{}b{}",
            self.procs, self.phases, self.iters_per_phase, self.block
        )
    }

    fn generate(&self, _seed: u64) -> Trace {
        let n = self.procs;
        assert!(
            self.block >= 2 && n.is_multiple_of(self.block),
            "block must tile procs"
        );
        let mut b = TraceBuilder::new(n);
        for ph in 0..self.phases {
            for _ in 0..self.iters_per_phase {
                let mut tokens = Vec::new();
                for i in 0..n {
                    let dst = self.ring_next(i, ph);
                    tokens.push((dst, b.send(p(i), p(dst)).unwrap()));
                }
                for (dst, tok) in tokens {
                    b.receive(p(dst), tok).unwrap();
                }
                for i in 0..n {
                    b.internal(p(i)).unwrap();
                }
            }
        }
        b.finish_complete(self.name()).unwrap()
    }
}

/// Re-balancing web tiers: clients call frontends, frontends call backends
/// — and the frontend→backend routing table is rotated at every phase
/// boundary, as an autoscaler re-balancing the backend pool would.
///
/// Processes are laid out `[clients | frontends | backends]`. Each request
/// is exactly 8 events (client→frontend, frontend→backend, and the two
/// replies, each a send + receive). Client `c` always calls frontend
/// `c % frontends`; in phase `k`, frontend `f` calls backend
/// `(f + k) % backends`. The client↔frontend edges are stationary (the
/// clusters worth keeping), the frontend↔backend edges drift (the
/// migrations worth making).
#[derive(Clone, Copy, Debug)]
pub struct RebalancedWebTiers {
    pub clients: u32,
    pub frontends: u32,
    pub backends: u32,
    /// Total requests, round-robin over the clients.
    pub requests: u32,
    /// Routing phases; requests split into `phases` equal segments.
    pub phases: u32,
}

impl RebalancedWebTiers {
    pub fn procs(&self) -> u32 {
        self.clients + self.frontends + self.backends
    }
    fn frontend(&self, f: u32) -> u32 {
        self.clients + f
    }
    fn backend(&self, bk: u32) -> u32 {
        self.clients + self.frontends + bk
    }
    fn requests_per_phase(&self) -> u32 {
        self.requests / self.phases
    }

    /// 0-based event offsets of the routing changes (`phases - 1` entries;
    /// each request is exactly 8 events).
    pub fn drift_points(&self) -> Vec<u64> {
        let per_phase = 8 * self.requests_per_phase() as u64;
        (1..self.phases as u64).map(|ph| ph * per_phase).collect()
    }
}

impl Workload for RebalancedWebTiers {
    fn name(&self) -> String {
        format!(
            "drift/rebalanced-tiers-c{}f{}b{}r{}p{}",
            self.clients, self.frontends, self.backends, self.requests, self.phases
        )
    }

    fn generate(&self, _seed: u64) -> Trace {
        assert!(self.clients >= 1 && self.frontends >= 1 && self.backends >= 2);
        assert!(self.phases >= 1 && self.requests.is_multiple_of(self.phases));
        let mut b = TraceBuilder::new(self.procs());
        let rpp = self.requests_per_phase();
        for r in 0..self.requests {
            let phase = r / rpp;
            let c = r % self.clients;
            let f = self.frontend(c % self.frontends);
            let bk = self.backend((c % self.frontends + phase) % self.backends);
            let t1 = b.send(p(c), p(f)).unwrap();
            b.receive(p(f), t1).unwrap();
            let t2 = b.send(p(f), p(bk)).unwrap();
            b.receive(p(bk), t2).unwrap();
            let t3 = b.send(p(bk), p(f)).unwrap();
            b.receive(p(f), t3).unwrap();
            let t4 = b.send(p(f), p(c)).unwrap();
            b.receive(p(c), t4).unwrap();
        }
        b.finish_complete(self.name()).unwrap()
    }
}

/// Planted imbalance: `groups` rings of `width` processes each; every cycle,
/// group 0 runs `hot_factor` intra-group rounds while the other groups run
/// one. Under the daemon's contiguous initial routing the low-numbered
/// block — group 0 included — lands on shard 0 and makes it hot, which is
/// exactly the signal the placement engine's occupancy EWMAs key off.
pub fn hot_group_trace(groups: u32, width: u32, cycles: u32, hot_factor: u32) -> Trace {
    assert!(groups >= 2 && width >= 2 && hot_factor >= 1);
    let mut b = TraceBuilder::new(groups * width);
    let ring = |b: &mut TraceBuilder, g: u32| {
        let base = g * width;
        for k in 0..width {
            let from = p(base + k);
            let to = p(base + (k + 1) % width);
            let tok = b.send(from, to).expect("ring send");
            b.receive(to, tok).expect("ring receive");
        }
    };
    for _ in 0..cycles {
        for r in 0..hot_factor {
            ring(&mut b, 0);
            if r == 0 {
                for g in 1..groups {
                    ring(&mut b, g);
                }
            }
        }
    }
    b.finish_complete(format!("place/hot-{groups}g{width}w-x{hot_factor}"))
        .expect("complete trace")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_group_trace_is_complete_and_skewed() {
        let t = hot_group_trace(6, 4, 2, 8);
        assert_eq!(t.num_processes(), 24);
        // Group 0 carries hot_factor rings per cycle vs 1 for each other
        // group — the skew the occupancy EWMAs key off is per group (per
        // shard), so compare against a single cold group, not all five.
        let hot_events = t.events().iter().filter(|e| e.process().0 < 4).count();
        let cold_events = t.events().len() - hot_events;
        let cold_per_group = cold_events / 5;
        assert!(
            hot_events > 4 * cold_per_group,
            "plant not hot: {hot_events} vs {cold_per_group} per cold group"
        );
    }

    #[test]
    fn phase_shift_ring_stays_within_shifted_block() {
        let w = PhaseShiftStencil {
            procs: 8,
            phases: 3,
            iters_per_phase: 2,
            block: 4,
        };
        // Phase 0 blocks: {0..3} {4..7}; the ring never crosses them.
        for i in 0..8 {
            let nxt = w.ring_next(i, 0);
            assert_eq!(i / 4, nxt / 4, "phase-0 ring crossed a block: {i}->{nxt}");
        }
        // Phase 1 is offset by 2: {6,7,0,1} {2,3,4,5} — process 1's
        // successor wraps to 6, which phase 0 never produced.
        assert_eq!(w.ring_next(1, 1), 6);
    }

    #[test]
    fn drift_points_match_generated_lengths() {
        let s = PhaseShiftStencil {
            procs: 8,
            phases: 3,
            iters_per_phase: 2,
            block: 4,
        };
        let t = s.generate(1);
        assert_eq!(t.num_events() as u64, 3 * 8 * 2 * 3);
        assert_eq!(s.drift_points(), vec![48, 96]);
        let w = RebalancedWebTiers {
            clients: 4,
            frontends: 2,
            backends: 3,
            requests: 12,
            phases: 3,
        };
        let t = w.generate(1);
        assert_eq!(t.num_events() as u64, 8 * 12);
        assert_eq!(w.drift_points(), vec![32, 64]);
        assert!(t.num_events() as u64 > *w.drift_points().last().unwrap());
    }

    #[test]
    fn rebalanced_tiers_routing_changes_exactly_at_plants() {
        let w = RebalancedWebTiers {
            clients: 2,
            frontends: 2,
            backends: 4,
            requests: 8,
            phases: 2,
        };
        let t = w.generate(7);
        // The backend targeted by frontend 0 differs across the plant.
        let backend_of = |req: usize| {
            // Event layout: request r occupies events [8r, 8r+8); the
            // backend receive is the 4th event of the request.
            match t.events()[8 * req + 3].kind {
                cts_model::EventKind::Receive { .. } => t.events()[8 * req + 3].process().0,
                _ => unreachable!("request layout changed"),
            }
        };
        assert_eq!(backend_of(0), w.backend(0));
        assert_eq!(backend_of(4), w.backend(1));
    }
}
