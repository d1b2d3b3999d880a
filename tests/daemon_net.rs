//! Network front-end regression suite: the epoll poller pool, exercised
//! through real loopback sockets.
//!
//! What is pinned down here:
//!
//! - the C10K claim in-process: thousands of idle connections held open on
//!   the epoll backend while the differential mini-suite runs clean;
//! - connection lifecycle — 10 000 short-lived connections all get served
//!   and leave no live connection behind, and exhaustion refuses with a
//!   wire `OVERLOADED` error instead of aborting the daemon;
//! - the event loop's wire state machine: frames arriving one byte at a
//!   time are reassembled, and a flood of pipelined batch queries whose
//!   replies exceed the write buffer comes back complete and in order;
//! - timerfd-driven group commit: with a nonzero sync window the WAL is
//!   synced by the clock, without any `Flush` barrier on the wire;
//! - two bounds on what a peer can make the daemon allocate or emit: a
//!   `Hello` for an absurd process count is refused, and no reply is ever
//!   written past the frame limit;
//! - reply coalescing on the epoll backend: 64 pipelined queries that
//!   arrive together are answered in at most a few TCP data segments
//!   (counted by the client's `TCP_INFO`), not one per reply;
//! - reply order across a pipeline that mixes queries, an `Events` frame,
//!   a `Flush` and a `ProtoHello`, and a lone query answered with no
//!   further input (no reply stranded in a write buffer).

use cts_core::FmStore;
use cts_daemon::loadgen::{self, LoadConfig};
use cts_daemon::server::{Daemon, DaemonConfig};
use cts_daemon::wire::{code, read_msg, recv_frame, write_msg, Msg, Recv, PROTOCOL, WAL_FORMAT};
use cts_daemon::Client;
use cts_workloads::suite::mini_suite;
use cts_workloads::{spmd::Stencil1D, Workload};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cts-net-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Hello over a raw socket; returns the reply.
fn raw_hello(s: &mut TcpStream, computation: &str, n: u32) -> Msg {
    raw_hello_with(s, computation, n, 4)
}

fn raw_hello_with(s: &mut TcpStream, computation: &str, n: u32, max_cluster_size: u32) -> Msg {
    write_msg(
        s,
        &Msg::Hello {
            computation: computation.into(),
            num_processes: n,
            max_cluster_size,
        },
    )
    .expect("write hello");
    read_msg(s).expect("read reply").expect("reply frame")
}

// ---------------------------------------------------------------------------
// C10K: idle connections are nearly free on the epoll backend.
// ---------------------------------------------------------------------------

/// Hold as many idle connections as the fd budget allows (both ends of
/// every loopback connection count against this one process), then run the
/// differential mini-suite through the same daemon. The bar: every answer
/// still matches the offline engine, with zero mismatches, while the
/// poller pool carries the idle herd.
#[cfg(target_os = "linux")]
#[test]
fn c10k_idle_connections_with_clean_differential() {
    let nofile = cts_daemon::netpoll::raise_nofile_to_hard().unwrap_or(1024);
    // Keep slack for the suite's own connections, WAL-less computations,
    // and the test harness; each held connection costs two fds in-process.
    let n = (((nofile.saturating_sub(1500)) / 2) as usize).min(10_000);
    assert!(
        n >= 1000,
        "fd limit too low to say anything useful: {nofile}"
    );

    // The default backend on Linux is the epoll poller pool.
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind");
    let addr = daemon.local_addr();

    let held = loadgen::hold_idle_conns(addr, n).expect("hold idle connections");
    assert_eq!(held.len(), n);
    assert!(daemon.live_connections() >= n as u64);

    let report = loadgen::run(
        &mini_suite(),
        &LoadConfig {
            addr,
            connections: 8,
            seed: 610,
            ..LoadConfig::default()
        },
    )
    .expect("differential run");
    assert_eq!(
        report.mismatches, 0,
        "daemon diverged from the offline engine while {n} idle connections were held"
    );
    assert!(daemon.live_connections() >= n as u64);

    drop(held);
    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// Connection churn leaves nothing behind.
// ---------------------------------------------------------------------------

/// 10 000 sequential short-lived connections, each closed by the server
/// after a `Goodbye`. Every one must have been served, and once the churn
/// is over no connection may still count as live: a poller that forgot a
/// closed connection would keep its fd and state for the daemon's lifetime.
#[cfg(target_os = "linux")]
#[test]
fn churn_keeps_connection_registry_bounded() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind");
    let addr = daemon.local_addr();

    const CHURN: usize = 10_000;
    for _ in 0..CHURN {
        let mut s = TcpStream::connect(addr).expect("connect");
        write_msg(&mut s, &Msg::Goodbye).expect("goodbye");
        // Wait for the server to close first, so the churn is sequential.
        let mut buf = [0u8; 16];
        while s.read(&mut buf).map(|k| k > 0).unwrap_or(false) {}
    }

    // Every connect was either accepted or refused with OVERLOADED — both
    // paths are closed-by-server, so the churn really happened either way.
    let served = daemon.connections_accepted() + daemon.connections_refused();
    assert!(served >= CHURN as u64, "served only {served} of {CHURN}");
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.live_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} connections still live after {CHURN} short-lived ones",
            daemon.live_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// Exhaustion degrades to OVERLOADED.
// ---------------------------------------------------------------------------

/// With the spawn failpoint set, a new connection is answered with a wire
/// `OVERLOADED` error and closed — the accept loop keeps going instead of
/// panicking the daemon. Clearing the failpoint restores service on the
/// same listener.
fn overload_refusal() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind");
    let addr = daemon.local_addr();

    // Healthy first: the backend serves a session.
    let mut c = Client::connect(addr).expect("connect");
    c.hello("overload", 2, 4).expect("hello");
    c.goodbye().expect("goodbye");

    daemon.inject_spawn_failure(true);
    for i in 0..3 {
        let mut s = TcpStream::connect(addr).expect("connect while failing");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        match read_msg(&mut s).expect("read refusal") {
            Some(Msg::Error { code: c, .. }) => {
                assert_eq!(c, code::OVERLOADED, "refusal {i} had wrong code")
            }
            other => panic!("expected OVERLOADED error, got {other:?}"),
        }
        // The refusal closes the connection.
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0);
    }
    assert!(daemon.connections_refused() >= 3);

    // Service resumes once spawning works again — same daemon, no restart.
    daemon.inject_spawn_failure(false);
    let mut c = Client::connect(addr).expect("connect after recovery");
    c.hello("overload", 2, 4).expect("hello after recovery");
    c.goodbye().expect("goodbye");
    daemon.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn overload_refusal_epoll_backend() {
    overload_refusal();
}

// ---------------------------------------------------------------------------
// Event-loop wire machine: partial frames reassemble.
// ---------------------------------------------------------------------------

/// The epoll backend sees whatever byte boundaries the kernel hands it.
/// Feed it a session one byte at a time — Hello, a full event stream, a
/// Flush — and every reply must still come back intact.
#[cfg(target_os = "linux")]
#[test]
fn epoll_reassembles_partial_frames() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind");
    let t = Stencil1D { procs: 2, iters: 2 }.generate(17);

    let mut s = TcpStream::connect(daemon.local_addr()).expect("connect");
    s.set_nodelay(true).unwrap();

    let mut frames = Vec::new();
    write_msg(
        &mut frames,
        &Msg::Hello {
            computation: "trickle".into(),
            num_processes: t.num_processes(),
            max_cluster_size: 4,
        },
    )
    .unwrap();
    for b in &frames {
        s.write_all(std::slice::from_ref(b)).expect("write byte");
        std::thread::sleep(Duration::from_micros(300));
    }
    match read_msg(&mut s).expect("read").expect("frame") {
        Msg::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // Whole trace in one Events frame plus a Flush, still dribbled in
    // small odd-sized chunks that never align with frame boundaries.
    let mut frames = Vec::new();
    write_msg(&mut frames, &Msg::Events(t.events().to_vec())).unwrap();
    write_msg(
        &mut frames,
        &Msg::Flush {
            expected_total: t.num_events() as u64,
        },
    )
    .unwrap();
    for chunk in frames.chunks(7) {
        s.write_all(chunk).expect("write chunk");
        std::thread::sleep(Duration::from_micros(200));
    }
    match read_msg(&mut s).expect("read").expect("frame") {
        Msg::FlushAck { delivered, .. } => assert_eq!(delivered, t.num_events() as u64),
        other => panic!("expected FlushAck, got {other:?}"),
    }

    write_msg(&mut s, &Msg::Goodbye).unwrap();
    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// Event-loop wire machine: write backpressure keeps replies whole.
// ---------------------------------------------------------------------------

/// Pipeline far more batch-query replies than the per-connection write
/// buffer holds: a writer thread floods requests while the reader drags
/// behind, so the connection must park itself on EPOLLOUT (and stop
/// reading) rather than drop or reorder replies. Every reply must come
/// back, in request order — the per-frame batch sizes differ, so order is
/// observable.
#[cfg(target_os = "linux")]
#[test]
fn epoll_write_backpressure_preserves_reply_order() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind");
    let t = Stencil1D { procs: 8, iters: 8 }.generate(23);
    let n_events = t.num_events() as u64;

    let mut s = TcpStream::connect(daemon.local_addr()).expect("connect");
    match raw_hello(&mut s, "floodgate", t.num_processes()) {
        Msg::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    for chunk in t.events().chunks(512) {
        write_msg(&mut s, &Msg::Events(chunk.to_vec())).expect("events");
    }
    write_msg(
        &mut s,
        &Msg::Flush {
            expected_total: n_events,
        },
    )
    .expect("flush");
    match read_msg(&mut s).expect("read").expect("frame") {
        Msg::FlushAck { delivered, .. } => assert_eq!(delivered, n_events),
        other => panic!("expected FlushAck, got {other:?}"),
    }

    // 64 pipelined QueryGcBatch frames; reply i carries one slot vector
    // per queried event, so distinct batch sizes tag each reply with its
    // request's identity.
    const FRAMES: usize = 64;
    let ids: Vec<_> = t.all_event_ids().collect();
    let sizes: Vec<usize> = (0..FRAMES).map(|i| 512 - (i % 7)).collect();
    let mut writer = s.try_clone().expect("clone stream");
    let wsizes = sizes.clone();
    let wids = ids.clone();
    let flood = std::thread::spawn(move || {
        for (i, &sz) in wsizes.iter().enumerate() {
            let events: Vec<_> = (0..sz).map(|k| wids[(i + k) % wids.len()]).collect();
            write_msg(&mut writer, &Msg::QueryGcBatch { events }).expect("flood write");
        }
    });

    // Let the flood race ahead so replies pile into the daemon-side write
    // buffer before the first read drains anything. Observed through the
    // stats counter on a *second* connection rather than a fixed sleep:
    // `batch_queries` advances as the daemon serves flood frames and
    // plateaus when either all frames are served or the full write buffer
    // parks the connection on EPOLLOUT — both mean the pile-up happened.
    {
        let mut probe = Client::connect(daemon.local_addr()).expect("stats probe");
        probe
            .hello("floodgate", t.num_processes(), 4)
            .expect("probe hello");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut last = 0u64;
        let mut stable = 0;
        loop {
            let served = probe.stats().expect("stats").batch_queries;
            if served >= FRAMES as u64 {
                break;
            }
            if served >= 1 && served == last {
                stable += 1;
                // Three unchanged polls with frames served: the write
                // buffer is full and the connection is parked.
                if stable >= 3 {
                    break;
                }
            } else {
                stable = 0;
            }
            last = served;
            assert!(
                Instant::now() < deadline,
                "flood never reached the daemon (batch_queries {served})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = probe.goodbye();
    }
    for (i, &sz) in sizes.iter().enumerate() {
        match read_msg(&mut s).expect("read").expect("frame") {
            Msg::GcBatchResult { results, .. } => {
                assert_eq!(results.len(), sz, "reply {i} out of order or truncated");
                assert!(results.iter().all(|r| r.is_some()));
            }
            other => panic!("reply {i}: expected GcBatchResult, got {other:?}"),
        }
    }
    flood.join().expect("flood writer");

    write_msg(&mut s, &Msg::Goodbye).unwrap();
    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// Group commit: the clock syncs the WAL, not the Flush barrier.
// ---------------------------------------------------------------------------

/// Stream a durable computation *without ever flushing* and watch the
/// daemon's sync counter: with a nonzero window the WAL barrier must be
/// driven by the clock (poller 0's timerfd). Once ingest quiesces and the tail is synced, the
/// counter must hold still — clean windows don't issue barriers.
fn group_commit_without_flush(dir: &str) {
    let daemon = Daemon::start(DaemonConfig {
        data_dir: Some(tmpdir(dir)),
        sync_window: Duration::from_millis(25),
        checkpoint_every: 0,
        ..DaemonConfig::default()
    })
    .expect("bind");
    let t = Stencil1D { procs: 4, iters: 4 }.generate(31);

    // Startup recovery of the (empty) data dir refuses requests with
    // RECOVERING; poll readiness with a session-free ProtoHello (creates
    // nothing on the daemon) instead of retrying Hello on a fixed sleep.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let ready = Client::connect(daemon.local_addr())
            .and_then(|mut c| c.proto_hello())
            .is_ok();
        if ready {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never finished startup recovery"
        );
        std::thread::yield_now();
    }
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    client
        .hello("unflushed", t.num_processes(), 4)
        .expect("hello after readiness");
    client.stream_events(t.events(), 64).expect("stream");
    // No flush. The only sync driver left is the group-commit clock.

    let deadline = Instant::now() + Duration::from_secs(10);
    let synced = loop {
        match daemon.wal_syncs("unflushed") {
            Some(s) if s >= 1 => break s,
            _ if Instant::now() >= deadline => {
                panic!("no clock-driven WAL sync within the deadline")
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert!(synced >= 1);

    // Quiesce: wait until the counter stops moving...
    let mut last = synced;
    let stable = loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = daemon.wal_syncs("unflushed").expect("computation exists");
        if now == last {
            break now;
        }
        last = now;
        assert!(
            Instant::now() < deadline,
            "sync counter never quiesced after ingest stopped"
        );
    };
    // ...then hold it against twenty more window ticks: a clean WAL must
    // not pay for barriers it doesn't need.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(
        daemon.wal_syncs("unflushed").expect("computation exists"),
        stable,
        "group-commit clock issues barriers with nothing to sync"
    );

    client.goodbye().expect("goodbye");
    daemon.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn timerfd_group_commit_epoll_backend() {
    group_commit_without_flush("gc-epoll");
}

// ---------------------------------------------------------------------------
// Bounds on outside input: process count, reply frame size.
// ---------------------------------------------------------------------------

/// A `Hello` naming 50 million processes used to reach the allocator (a
/// 200 MB per-process table) and abort the whole daemon. It must be refused
/// up front, and the daemon must go on serving the next connection.
fn oversized_hello_is_refused() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind");
    let mut s = TcpStream::connect(daemon.local_addr()).expect("connect");
    match raw_hello(&mut s, "huge", 50_000_000) {
        Msg::Error { code: c, message } => {
            assert_eq!(c, code::BAD_HELLO, "{message}");
            assert!(message.contains("65536"), "limit not named: {message}");
        }
        other => panic!("oversized hello answered {other:?}"),
    }
    // The same connection is still usable, and so is the daemon.
    assert!(matches!(
        raw_hello(&mut s, "sane", 4),
        Msg::HelloAck {
            existing: false,
            ..
        }
    ));
    let mut next = Client::connect(daemon.local_addr()).expect("daemon still accepts");
    let (_, existing) = next.hello("sane", 4, 4).expect("daemon still serves");
    assert!(existing);
    daemon.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn oversized_hello_is_refused_epoll_backend() {
    oversized_hello_is_refused();
}

/// On a 296-process computation one greatest-concurrent answer is up to
/// 2 669 bytes, so 2 048 of them cannot share a frame. `Client::gc_batch`
/// must still return all 2 048, each equal to the single-query answer, and
/// a raw batch past the per-frame limit must be refused by name rather than
/// answered with a frame the peer has to reject.
fn gc_batch_larger_than_one_frame() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind");
    let t = Stencil1D {
        procs: 296,
        iters: 3,
    }
    .generate(7);
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    client.hello("wide", t.num_processes(), 8).expect("hello");
    client.stream_events(t.events(), 512).expect("stream");
    client.flush(t.events().len() as u64).expect("flush");

    // The latest events see the most of the computation: long answers.
    let distinct: Vec<_> = t.events().iter().rev().take(128).map(|e| e.id).collect();
    let singles: Vec<_> = distinct
        .iter()
        .map(|&e| client.greatest_concurrent(e).expect("single gc"))
        .collect();
    let ids: Vec<_> = distinct.iter().copied().cycle().take(2048).collect();
    let batch = client.gc_batch(&ids).expect("gc_batch over one frame");
    assert_eq!(batch.len(), ids.len());
    for (i, answer) in batch.iter().enumerate() {
        assert_eq!(
            answer.as_ref(),
            Some(&singles[i % distinct.len()]),
            "item {i}"
        );
    }

    let mut s = TcpStream::connect(daemon.local_addr()).expect("connect");
    assert!(matches!(
        raw_hello_with(&mut s, "wide", 296, 8),
        Msg::HelloAck { existing: true, .. }
    ));
    for (n, fits) in [(392usize, true), (393, false)] {
        write_msg(
            &mut s,
            &Msg::QueryGcBatch {
                events: ids[..n].to_vec(),
            },
        )
        .expect("write batch");
        match read_msg(&mut s).expect("read reply").expect("reply frame") {
            Msg::GcBatchResult { results, .. } if fits => assert_eq!(results.len(), n),
            Msg::Error { code: c, message } if !fits => {
                assert_eq!(c, code::MALFORMED, "{message}");
                assert!(message.contains("392"), "limit not named: {message}");
            }
            other => panic!("batch of {n}: {other:?}"),
        }
    }
    daemon.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn gc_batch_larger_than_one_frame_epoll_backend() {
    gc_batch_larger_than_one_frame();
}

// ---------------------------------------------------------------------------
// Reply coalescing: one readiness turn, one write.
// ---------------------------------------------------------------------------

/// The client's `tcpi_data_segs_in`: data-carrying segments received on `s`.
#[cfg(target_os = "linux")]
fn data_segs_in(s: &TcpStream) -> u32 {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn getsockopt(fd: i32, level: i32, name: i32, val: *mut u8, len: *mut u32) -> i32;
    }
    let (mut info, mut len) = ([0u8; 256], 256u32);
    // SAFETY: `info` is writable for `len` bytes and `s` is an open socket.
    // Level 6 is SOL_TCP, option 11 is TCP_INFO.
    let rc = unsafe { getsockopt(s.as_raw_fd(), 6, 11, info.as_mut_ptr(), &mut len) };
    assert_eq!(rc, 0, "getsockopt(SOL_TCP, TCP_INFO) failed");
    assert!(len >= 156, "tcp_info too short: {len} bytes");
    // `tcpi_data_segs_in` is the u32 at byte offset 152.
    u32::from_ne_bytes(info[152..156].try_into().unwrap())
}

/// One reply; a failure, not a hang, when none arrives within the socket's
/// read timeout.
fn read_within(s: &mut TcpStream, what: &str) -> Msg {
    match recv_frame(s).expect("read") {
        Recv::Frame(payload) => Msg::decode(&payload).expect("decode reply"),
        Recv::Idle => panic!("{what}: no reply within the read timeout"),
        Recv::Eof => panic!("{what}: connection closed"),
    }
}

/// 64 `QueryPrecedes` frames that reach the daemon in one segment are one
/// readiness turn: their replies must leave in one `write()`, so the client
/// sees a handful of data segments per round rather than one per reply.
#[cfg(target_os = "linux")]
#[test]
fn epoll_coalesces_pipelined_replies() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind");
    let t = Stencil1D { procs: 4, iters: 4 }.generate(41);
    let fm = FmStore::compute(&t);
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    client
        .hello("coalesce", t.num_processes(), 4)
        .expect("hello");
    client.stream_events(t.events(), 512).expect("stream");
    client.flush(t.num_events() as u64).expect("flush");

    let mut s = TcpStream::connect(daemon.local_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        raw_hello(&mut s, "coalesce", t.num_processes()),
        Msg::HelloAck { existing: true, .. }
    ));
    let ids: Vec<_> = t.all_event_ids().collect();
    for round in 0..5 {
        let pairs: Vec<_> = (0..64)
            .map(|i| {
                (
                    ids[(round * 7 + i) % ids.len()],
                    ids[(i * 5 + 3) % ids.len()],
                )
            })
            .collect();
        let mut frames = Vec::new();
        for &(e, f) in &pairs {
            write_msg(&mut frames, &Msg::QueryPrecedes { e, f }).unwrap();
        }
        let before = data_segs_in(&s);
        s.write_all(&frames).expect("write round");
        for (i, &(e, f)) in pairs.iter().enumerate() {
            match read_within(&mut s, &format!("round {round} reply {i}")) {
                Msg::PrecedesResult { precedes, .. } => {
                    assert_eq!(precedes, fm.precedes(&t, e, f), "round {round} reply {i}")
                }
                other => panic!("round {round} reply {i}: {other:?}"),
            }
        }
        let segs = data_segs_in(&s) - before;
        assert!(
            segs <= 4,
            "round {round}: 64 pipelined replies arrived in {segs} data segments"
        );
    }
    write_msg(&mut s, &Msg::Goodbye).unwrap();
    daemon.shutdown();
}

/// One `write_all` carrying queries, an `Events` frame, a `Flush` (a helper
/// thread runs it), more queries and a `ProtoHello`: every
/// reply comes back in request order with the right content. Then a lone
/// query must be answered with no further input — a reply left queued
/// under edge-triggered epoll would never be written.
fn pipelined_mix_keeps_order() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind");
    let t = Stencil1D { procs: 4, iters: 6 }.generate(43);
    let fm = FmStore::compute(&t);
    let half = t.num_events() / 2;
    let mut s = TcpStream::connect(daemon.local_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        raw_hello(&mut s, "mix", t.num_processes()),
        Msg::HelloAck { .. }
    ));
    write_msg(&mut s, &Msg::Events(t.events()[..half].to_vec())).unwrap();
    write_msg(
        &mut s,
        &Msg::Flush {
            expected_total: half as u64,
        },
    )
    .unwrap();
    match read_within(&mut s, "first flush") {
        Msg::FlushAck { delivered, .. } => assert_eq!(delivered, half as u64),
        other => panic!("expected FlushAck, got {other:?}"),
    }

    // Queries over the delivered prefix, then the rest of the trace, the
    // barrier, and queries that need the rest.
    let early: Vec<_> = t.events()[..half].iter().map(|e| e.id).collect();
    let all: Vec<_> = t.all_event_ids().collect();
    let pairs = |ids: &[cts_model::EventId], k: usize| -> Vec<_> {
        (0..16)
            .map(|i| (ids[(i * 7 + k) % ids.len()], ids[(i * 3 + 1) % ids.len()]))
            .collect()
    };
    let (before, after) = (pairs(&early, 0), pairs(&all, 5));
    // Both verdicts occur, so a reordered reply shows.
    let verdicts: Vec<bool> = before
        .iter()
        .chain(&after)
        .map(|&(e, f)| fm.precedes(&t, e, f))
        .collect();
    assert!(verdicts.contains(&true) && verdicts.contains(&false));
    let mut frames = Vec::new();
    for &(e, f) in &before {
        write_msg(&mut frames, &Msg::QueryPrecedes { e, f }).unwrap();
    }
    write_msg(&mut frames, &Msg::Events(t.events()[half..].to_vec())).unwrap();
    let total = t.num_events() as u64;
    write_msg(
        &mut frames,
        &Msg::Flush {
            expected_total: total,
        },
    )
    .unwrap();
    for &(e, f) in &after {
        write_msg(&mut frames, &Msg::QueryPrecedes { e, f }).unwrap();
    }
    let hello = Msg::ProtoHello {
        protocol_max: PROTOCOL,
        wal_max: WAL_FORMAT,
    };
    write_msg(&mut frames, &hello).unwrap();
    s.write_all(&frames).expect("write pipeline");

    let expect_precedes = |s: &mut TcpStream, (e, f): (_, _), what: &str| match read_within(s, what)
    {
        Msg::PrecedesResult { precedes, .. } => {
            assert_eq!(precedes, fm.precedes(&t, e, f), "{what}: {e:?} -> {f:?}")
        }
        other => panic!("{what}: expected PrecedesResult, got {other:?}"),
    };
    for (i, &p) in before.iter().enumerate() {
        expect_precedes(&mut s, p, &format!("query {i} before the barrier"));
    }
    match read_within(&mut s, "pipelined flush") {
        Msg::FlushAck { delivered, .. } => assert_eq!(delivered, total),
        other => panic!("expected FlushAck, got {other:?}"),
    }
    for (i, &p) in after.iter().enumerate() {
        expect_precedes(&mut s, p, &format!("query {i} after the barrier"));
    }
    assert!(matches!(
        read_within(&mut s, "ProtoHello"),
        Msg::ProtoHelloAck { .. }
    ));

    // A lone frame is the whole turn: its reply must not wait for more.
    s.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let lone = (all[all.len() - 1], all[0]);
    write_msg(
        &mut s,
        &Msg::QueryPrecedes {
            e: lone.0,
            f: lone.1,
        },
    )
    .unwrap();
    expect_precedes(&mut s, lone, "lone query");
    write_msg(&mut s, &Msg::Goodbye).unwrap();
    daemon.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn pipelined_mix_keeps_order_epoll_backend() {
    pipelined_mix_keeps_order();
}
