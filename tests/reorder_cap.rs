//! The reorder buffer is bounded. A gap that never fills parks everything
//! behind it; once a computation holds `reorder::MAX_PARKED` parked events,
//! the session refuses `Events` frames with `OVERLOADED` on the open
//! connection, yet still takes the event that fills the gap, which then
//! releases every admitted event. Both runtimes publish the gauge the
//! session reads, so both are driven.

use cts_daemon::reorder::MAX_PARKED;
use cts_daemon::server::{Daemon, DaemonConfig};
use cts_daemon::wire::{code, read_msg, write_msg, Msg};
use cts_model::{Event, EventId, EventIndex, EventKind, ProcessId};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Events per flooding frame.
const FRAME: u32 = 4096;

fn internal(i: u32) -> Event {
    Event::new(
        EventId::new(ProcessId(0), EventIndex(i)),
        EventKind::Internal,
    )
}

fn read(stream: &mut TcpStream) -> Msg {
    read_msg(stream)
        .expect("read reply")
        .expect("a reply, not a hangup")
}

fn call(stream: &mut TcpStream, msg: &Msg) -> Msg {
    write_msg(stream, msg).expect("write frame");
    read(stream)
}

fn parked(stream: &mut TcpStream) -> u64 {
    match call(stream, &Msg::Stats) {
        Msg::StatsResult(stats) => stats.reorder_depth,
        other => panic!("expected StatsResult, got {other:?}"),
    }
}

/// Leave out P0#1, flood P0#2… until a frame is refused, then send P0#1.
fn flood_past_the_cap(shards: u32) {
    let config = DaemonConfig {
        shards,
        ..DaemonConfig::default()
    };
    // The frames admitted before the gauge catches up: a full queue, the
    // frame the worker is applying and the one being admitted.
    let bound = MAX_PARKED as u64 + (config.queue_capacity as u64 + 2) * u64::from(FRAME);
    let daemon = Daemon::start(config).expect("start daemon");
    let mut s = TcpStream::connect(daemon.local_addr()).expect("connect");
    let hello = Msg::Hello {
        computation: "gap".into(),
        num_processes: 2,
        max_cluster_size: 2,
    };
    assert!(matches!(call(&mut s, &hello), Msg::HelloAck { .. }));

    let mut admitted = 0u64;
    let refusal = loop {
        let first = 2 + admitted as u32;
        let frame = (first..first + FRAME).map(internal).collect();
        write_msg(&mut s, &Msg::Events(frame)).expect("write frame");
        // An admitted frame is not answered, so the next reply is either
        // the frame's refusal or the Stats reply.
        match call(&mut s, &Msg::Stats) {
            Msg::StatsResult(stats) => {
                admitted += u64::from(FRAME);
                assert!(stats.reorder_depth <= bound, "{}", stats.reorder_depth);
                assert!(admitted <= bound, "{shards} shards: never refused");
            }
            refusal => {
                assert!(matches!(read(&mut s), Msg::StatsResult(_)));
                break refusal;
            }
        }
    };
    match refusal {
        Msg::Error { code, .. } => assert_eq!(code, code::OVERLOADED, "{shards} shards"),
        other => panic!("{shards} shards: expected OVERLOADED, got {other:?}"),
    }
    assert!(admitted >= MAX_PARKED as u64, "refused early: {admitted}");
    eprintln!(
        "{shards} shards: refused after {} frames past the cap",
        (admitted - MAX_PARKED as u64) / u64::from(FRAME)
    );

    // Everything admitted parks, and nothing refused does.
    let deadline = Instant::now() + Duration::from_secs(60);
    while parked(&mut s) < admitted {
        assert!(Instant::now() < deadline, "admitted frames never parked");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(parked(&mut s), admitted);
    assert!(admitted <= bound, "{shards} shards: {admitted} parked");

    // The gap filler is still taken, and releases everything admitted.
    write_msg(&mut s, &Msg::Events(vec![internal(1)])).expect("write frame");
    match call(
        &mut s,
        &Msg::Flush {
            expected_total: admitted + 1,
        },
    ) {
        Msg::FlushAck { delivered, .. } => assert_eq!(delivered, admitted + 1),
        other => panic!("{shards} shards: flush failed: {other:?}"),
    }
    assert_eq!(parked(&mut s), 0);
    drop(s);
    daemon.shutdown();
}

#[test]
fn single_worker_refuses_past_the_cap_and_takes_the_gap() {
    flood_past_the_cap(1);
}

#[test]
fn sharded_runtime_refuses_past_the_cap_and_takes_the_gap() {
    flood_past_the_cap(2);
}
