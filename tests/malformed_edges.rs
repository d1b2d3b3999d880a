//! A frame of malformed edges must not take down an ingest worker: the
//! reorder buffer parks what the engine could not apply, and the rest of the
//! computation keeps flowing. Each case feeds one bad `Events` frame through
//! `Computation::enqueue_events` (the blocking twin of what the transport
//! calls), then a valid stream on processes the bad frame does not touch,
//! and requires that stream to be delivered and its `Flush` to return.

use cts_daemon::pipeline::{Computation, ComputationConfig};
use cts_daemon::shard::StampStrategy;
use cts_model::{Event, EventId, EventIndex, EventKind, ProcessId};
use std::time::Duration;

fn id(p: u32, i: u32) -> EventId {
    EventId::new(ProcessId(p), EventIndex(i))
}

fn ev(p: u32, i: u32, kind: EventKind) -> Event {
    Event::new(id(p, i), kind)
}

fn config(name: &str, num_processes: u32, shards: u32) -> ComputationConfig {
    ComputationConfig {
        name: name.to_string(),
        num_processes,
        max_cluster_size: 2,
        strategy: StampStrategy::Merge1st {
            max_cluster_size: 2,
        },
        queue_capacity: 8,
        epoch_every: 16,
        shards,
        auto_scale: false,
        balance: false,
        pin_cores: false,
        placement: None,
        durability: None,
        query_cache_capacity: 0,
        retain_epochs: 0,
        retain_bytes: 0,
    }
}

/// A valid exchange between processes `a` and `b`: rounds of a message each
/// way plus a sync, arriving in reverse so that most of it parks first.
fn valid_stream(a: u32, b: u32, rounds: u32) -> Vec<Event> {
    let mut out = Vec::new();
    for r in 0..rounds {
        let (i, j) = (4 * r + 1, 3 * r + 1);
        out.push(ev(a, i, EventKind::Send { to: ProcessId(b) }));
        out.push(ev(b, j, EventKind::Receive { from: id(a, i) }));
        out.push(ev(b, j + 1, EventKind::Send { to: ProcessId(a) }));
        out.push(ev(a, i + 1, EventKind::Receive { from: id(b, j + 1) }));
        out.push(ev(a, i + 2, EventKind::Sync { peer: id(b, j + 2) }));
        out.push(ev(b, j + 2, EventKind::Sync { peer: id(a, i + 2) }));
        out.push(ev(a, i + 3, EventKind::Internal));
    }
    out.reverse();
    out
}

/// Feed `bad`, then a valid stream on processes `a` and `b`; the flush for
/// `delivered_bad` plus the whole valid stream must return.
fn survives(name: &str, num_processes: u32, shards: u32, bad: Vec<Event>, delivered_bad: u64) {
    let (a, b) = (num_processes - 2, num_processes - 1);
    let comp = Computation::spawn(config(name, num_processes, shards));
    comp.enqueue_events(bad)
        .unwrap_or_else(|_| panic!("{name}: bad frame refused"));
    let good = valid_stream(a, b, 8);
    let expected = delivered_bad + good.len() as u64;
    for chunk in good.chunks(5) {
        comp.enqueue_events(chunk.to_vec())
            .unwrap_or_else(|_| panic!("{name}: ingest closed after a malformed edge"));
    }
    let (_, delivered) = comp
        .flush(expected, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{name}: flush failed after a malformed edge: {e:?}"));
    assert_eq!(delivered, expected, "{name}");
    assert_eq!(
        comp.snapshot().trace.num_events() as u64,
        expected,
        "{name}"
    );
    comp.shutdown();
}

#[test]
fn receive_of_an_internal_event_parks() {
    let bad = vec![
        ev(0, 1, EventKind::Internal),
        ev(1, 1, EventKind::Receive { from: id(0, 1) }),
    ];
    survives("internal-source", 5, 1, bad, 1);
}

#[test]
fn second_receive_of_one_send_parks() {
    let bad = vec![
        ev(0, 1, EventKind::Send { to: ProcessId(2) }),
        ev(1, 1, EventKind::Receive { from: id(0, 1) }),
        ev(2, 1, EventKind::Receive { from: id(0, 1) }),
    ];
    survives("double-receive", 5, 1, bad, 2);
}

#[test]
fn sync_with_a_receive_parks() {
    let bad = vec![
        ev(1, 1, EventKind::Receive { from: id(0, 1) }),
        ev(0, 1, EventKind::Sync { peer: id(1, 1) }),
    ];
    survives("sync-receive", 5, 1, bad, 0);
}

#[test]
fn same_shard_receive_of_an_internal_event_parks() {
    // Four processes over two shards: P0 and P1 share shard 0, so the
    // receive's source is owned by the same buffer; P2 and P3 are shard 1.
    let bad = vec![
        ev(0, 1, EventKind::Internal),
        ev(1, 1, EventKind::Receive { from: id(0, 1) }),
    ];
    survives("sharded-internal-source", 4, 2, bad, 1);
}
