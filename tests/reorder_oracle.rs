//! The reorder buffer against an offline oracle.
//!
//! Inputs: small seeded traces, each with edges planted past the end of its
//! processes — a receive of an internal event (and a chain hanging off it),
//! a second receive of one send, a sync naming a receive, a sync naming
//! itself, a dangling receive and a dangling sync, and a well-formed sync
//! pair — offered in seeded arrival orders with duplicates. The oracle is
//! an offline fixpoint: an event is deliverable iff its process predecessor
//! is, and its edge is well formed with a deliverable source (a send it is
//! the receiver of) or partner (another sync naming it back). The buffer
//! must deliver exactly that set, each event once, in a valid delivery
//! order, and hold the rest.

use cts_daemon::ReorderBuffer;
use cts_model::linearize::is_valid_delivery_order;
use cts_model::{Event, EventId, EventIndex, EventKind, ProcessId, Trace};
use cts_util::prng::{ChaCha8Rng, Rng};
use cts_workloads::spmd::Stencil1D;
use cts_workloads::suite::mini_suite;
use cts_workloads::Workload;
use std::collections::{BTreeMap, BTreeSet};

fn id(p: u32, i: u32) -> EventId {
    EventId::new(ProcessId(p), EventIndex(i))
}

/// Events appended past the end of a trace's processes.
struct Planted {
    len: Vec<u32>,
    events: Vec<Event>,
}

impl Planted {
    /// The id the next event appended to `p` gets.
    fn next(&self, p: u32) -> EventId {
        id(p, self.len[p as usize] + 1)
    }

    fn push(&mut self, p: u32, kind: EventKind) -> EventId {
        let next = self.next(p);
        self.len[p as usize] += 1;
        self.events.push(Event::new(next, kind));
        next
    }
}

/// Malformed (and one well-formed) edges appended after `t`'s processes.
fn plant(t: &Trace, rng: &mut ChaCha8Rng) -> Vec<Event> {
    let n = t.num_processes();
    let mut plant = Planted {
        len: (0..n).map(|p| t.process_len(ProcessId(p)) as u32).collect(),
        events: Vec::new(),
    };
    let of_kind = |want: fn(&EventKind) -> bool| -> Vec<Event> {
        t.events()
            .iter()
            .filter(|e| want(&e.kind))
            .copied()
            .collect()
    };
    let internals = of_kind(|k| matches!(k, EventKind::Internal));
    let receives = of_kind(|k| matches!(k, EventKind::Receive { .. }));
    let other = |rng: &mut ChaCha8Rng, p: ProcessId| (p.0 + rng.gen_range(1..n)) % n;

    if !internals.is_empty() {
        let x = internals[rng.gen_range(0..internals.len())];
        let a = other(rng, x.process());
        plant.push(a, EventKind::Receive { from: x.id });
        let c = (a + 1) % n;
        let s = plant.push(a, EventKind::Send { to: ProcessId(c) });
        plant.push(c, EventKind::Receive { from: s });
    }
    if !receives.is_empty() {
        let r = receives[rng.gen_range(0..receives.len())];
        if let EventKind::Receive { from } = r.kind {
            // After the first receive on its own process, so it is second.
            plant.push(r.process().0, EventKind::Receive { from });
        }
        let r = receives[rng.gen_range(0..receives.len())];
        plant.push(other(rng, r.process()), EventKind::Sync { peer: r.id });
    }
    let me = rng.gen_range(0..n);
    let itself = plant.next(me);
    plant.push(me, EventKind::Sync { peer: itself });
    let q = rng.gen_range(0..n);
    plant.push(
        rng.gen_range(0..n),
        EventKind::Receive {
            from: id(q, 1 << 20),
        },
    );
    plant.push(
        rng.gen_range(0..n),
        EventKind::Sync {
            peer: id(q, 1 << 20),
        },
    );
    let a = rng.gen_range(0..n);
    let b = other(rng, ProcessId(a));
    let (ha, hb) = (plant.next(a), plant.next(b));
    plant.push(a, EventKind::Sync { peer: hb });
    plant.push(b, EventKind::Sync { peer: ha });
    plant.events
}

/// The events a correct buffer delivers out of `events` (listed original
/// trace first, so a send's receiver is the first receive naming it).
fn oracle(events: &[Event]) -> BTreeSet<EventId> {
    let by_id: BTreeMap<EventId, Event> = events.iter().map(|e| (e.id, *e)).collect();
    let mut receiver: BTreeMap<EventId, EventId> = BTreeMap::new();
    for e in events {
        if let EventKind::Receive { from } = e.kind {
            receiver.entry(from).or_insert(e.id);
        }
    }
    let mut ok: BTreeSet<EventId> = BTreeSet::new();
    loop {
        let before = ok.len();
        for e in events {
            let after_pred =
                |x: &Event| x.index().0 == 1 || ok.contains(&id(x.process().0, x.index().0 - 1));
            let go = after_pred(e)
                && match e.kind {
                    EventKind::Internal | EventKind::Send { .. } => true,
                    EventKind::Receive { from } => {
                        receiver[&from] == e.id
                            && ok.contains(&from)
                            && matches!(by_id[&from].kind, EventKind::Send { .. })
                    }
                    EventKind::Sync { peer } => {
                        peer != e.id
                            && by_id.get(&peer).is_some_and(|q| {
                                q.kind == EventKind::Sync { peer: e.id } && after_pred(q)
                            })
                    }
                };
            if go {
                ok.insert(e.id);
            }
        }
        if ok.len() == before {
            return ok;
        }
    }
}

fn shuffle(events: &mut [Event], rng: &mut ChaCha8Rng) {
    for i in (1..events.len()).rev() {
        events.swap(i, rng.gen_range(0..i + 1));
    }
}

fn check(name: &str, t: &Trace, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut events = t.events().to_vec();
    events.extend(plant(t, &mut rng));
    let expected = oracle(&events);
    let mut arrivals = events.clone();
    if !seed.is_multiple_of(4) {
        for _ in 0..events.len() / 5 {
            arrivals.push(events[rng.gen_range(0..events.len())]);
        }
        shuffle(&mut arrivals, &mut rng);
    }

    let n = t.num_processes();
    let mut buf = ReorderBuffer::new(n);
    let mut out = Vec::new();
    for &ev in &arrivals {
        out.extend(buf.offer(ev).expect("every planted process is in range"));
    }
    let delivered: BTreeSet<EventId> = out.iter().map(|e| e.id).collect();
    let case = format!("{name}, seed {seed}");
    assert_eq!(
        delivered.len(),
        out.len(),
        "{case}: an event was delivered twice"
    );
    assert_eq!(delivered, expected, "{case}");
    assert!(is_valid_delivery_order(n, &out), "{case}");
    assert_eq!(buf.depth(), events.len() - out.len(), "{case}");
    assert_eq!(
        buf.duplicates() as usize,
        arrivals.len() - events.len(),
        "{case}"
    );
    assert!(
        expected.len() < events.len(),
        "{case}: nothing was left out"
    );
}

#[test]
fn delivered_set_is_the_offline_fixpoint() {
    let mut traces: Vec<(String, Trace)> = mini_suite()
        .into_iter()
        .map(|entry| (entry.name.clone(), entry.trace))
        .collect();
    for seed in 0..3 {
        let t = Stencil1D { procs: 5, iters: 4 }.generate(seed);
        traces.push((format!("stencil/{seed}"), t));
    }
    let has_syncs = |t: &Trace| {
        t.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Sync { .. }))
    };
    assert!(traces.iter().any(|(_, t)| has_syncs(t)));
    for (name, t) in &traces {
        for seed in 0..12 {
            check(name, t, seed);
        }
    }
}
