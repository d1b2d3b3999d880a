//! Replication-fleet integration tests: a `--follow` daemon replays the
//! leader's committed WAL stream through its normal pipeline and must
//! answer queries exactly like the leader (and the offline engine) at
//! every commit point, across leader crashes, follower crashes, torn
//! follower WAL tails, and stale-lease fencing.
//!
//! The correctness argument is delivery-order invariance one more time:
//! the stream carries the leader's post-reorder delivery order, so a
//! replica that applies any committed prefix of it holds a state the
//! offline engine would also produce. Everything here checks that the
//! machinery — checkpoint bootstrap, catch-up reads, resubscription,
//! lease fencing — never surfaces anything *but* such a prefix.

use cts_core::strategy::MergeOnFirst;
use cts_core::ClusterEngine;
use cts_daemon::replication::lease_epoch;
use cts_daemon::server::{Daemon, DaemonConfig};
use cts_daemon::wire::{code, read_msg, write_msg, Msg, MAX_FRAME, PROTOCOL, VERSION, WAL_FORMAT};
use cts_daemon::Client;
use cts_model::{EventId, Trace};
use cts_workloads::{spmd::Stencil1D, Workload};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const COMP: &str = "repl";
const MCS: u32 = 4;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("cts-replication-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn trace() -> Trace {
    Stencil1D { procs: 8, iters: 6 }.generate(11)
}

fn leader_config(dir: &Path) -> DaemonConfig {
    DaemonConfig {
        data_dir: Some(dir.to_path_buf()),
        // Sync every batch: the durable watermark (= what followers may
        // see) tracks delivery immediately, so tests do not race the
        // group-commit window.
        sync_window: Duration::ZERO,
        ..DaemonConfig::default()
    }
}

fn follower_config(leader: SocketAddr, dir: Option<&Path>) -> DaemonConfig {
    DaemonConfig {
        follow: Some(leader),
        data_dir: dir.map(Path::to_path_buf),
        sync_window: Duration::ZERO,
        ..DaemonConfig::default()
    }
}

/// Stream `events` (a delivery-order prefix) to the daemon and barrier on
/// `expected` delivered.
fn stream(addr: SocketAddr, events: &[cts_model::Event], expected: u64) {
    let mut c = Client::connect(addr).expect("connect");
    c.hello(COMP, trace().num_processes(), MCS).expect("hello");
    c.stream_events(events, 64).expect("stream");
    let (_, delivered) = c.flush(expected).expect("flush");
    assert_eq!(delivered, expected);
    let _ = c.goodbye();
}

/// The last event of each process within `events` — a snapshot answering
/// for all of them necessarily contains every event in `events`, because
/// delivery respects per-process order.
fn probe_ids(events: &[cts_model::Event]) -> Vec<EventId> {
    let mut last: std::collections::HashMap<u32, EventId> = Default::default();
    for e in events {
        last.insert(e.id.process.0, e.id);
    }
    let mut ids: Vec<EventId> = last.into_values().collect();
    ids.sort();
    ids
}

/// Poll the daemon until its published snapshot covers every probe id.
fn wait_covered(addr: SocketAddr, probes: &[EventId], timeout: Duration) {
    let deadline = Instant::now() + timeout;
    let pairs: Vec<(EventId, EventId)> = probes.iter().map(|&id| (id, id)).collect();
    loop {
        // Reconnect each attempt: a follower that is still recovering its
        // own WAL refuses sessions, and a restarting daemon drops them.
        let attempt = Client::connect(addr).and_then(|mut c| {
            c.hello(COMP, trace().num_processes(), MCS)?;
            c.precedes_batch(&pairs)
        });
        if let Ok(verdicts) = attempt {
            if verdicts.len() == pairs.len() && verdicts.iter().all(|v| v.is_some()) {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon at {addr} did not converge on {} probes within {timeout:?}",
            probes.len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Differential check: a sample of precedence pairs answered by `addr`
/// must match the offline engine run over `t` — and, transitively, any
/// other daemon checked against the same oracle.
fn assert_matches_offline(addr: SocketAddr, t: &Trace) {
    let offline = ClusterEngine::run(t, MergeOnFirst::new(MCS as usize));
    let ids: Vec<EventId> = t.all_event_ids().collect();
    let mut c = Client::connect(addr).expect("connect");
    c.hello(COMP, t.num_processes(), MCS).expect("hello");
    let pairs: Vec<(EventId, EventId)> = (0..300)
        .map(|k| {
            (
                ids[(k * 7919) % ids.len()],
                ids[(k * 104_729 + 13) % ids.len()],
            )
        })
        .collect();
    let got = c.precedes_batch(&pairs).expect("batch");
    assert_eq!(got.len(), pairs.len());
    for (k, v) in got.iter().enumerate() {
        let (e, f) = pairs[k];
        let want = offline.precedes(t, e, f);
        assert_eq!(
            *v,
            Some(want),
            "precedes({e}, {f}) diverged from the offline engine"
        );
    }
    let _ = c.goodbye();
}

// ---- raw-wire helpers (Subscribe is not part of the typed Client) ----

fn raw(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

fn call(s: &mut TcpStream, msg: &Msg) -> Msg {
    write_msg(s, msg).expect("send");
    read_msg(s).expect("recv").expect("peer hung up")
}

fn negotiate(s: &mut TcpStream) {
    match call(
        s,
        &Msg::ProtoHello {
            protocol_max: PROTOCOL,
            wal_max: WAL_FORMAT,
        },
    ) {
        Msg::ProtoHelloAck { protocol, wal } => {
            assert_eq!((protocol, wal), (PROTOCOL, WAL_FORMAT));
        }
        other => panic!("ProtoHello answered {other:?}"),
    }
}

fn subscribe(s: &mut TcpStream, from_offset: u64, prev_lease: u64) -> Msg {
    call(
        s,
        &Msg::Subscribe {
            computation: COMP.into(),
            from_offset,
            prev_lease,
        },
    )
}

// ---- the scenarios ----

/// Baseline: a fresh (memoryless) follower bootstraps the full prefix
/// from the leader's checkpoint + WAL, answers reads identically, and
/// refuses writes with the typed `READ_ONLY` code.
#[test]
fn follower_replicates_reads_and_refuses_writes() {
    let dir = tmpdir("baseline");
    let t = trace();
    let leader = Daemon::start(leader_config(&dir)).expect("leader");
    stream(leader.local_addr(), t.events(), t.num_events() as u64);

    let follower = Daemon::start(follower_config(leader.local_addr(), None)).expect("follower");
    wait_covered(
        follower.local_addr(),
        &probe_ids(t.events()),
        Duration::from_secs(30),
    );
    assert_matches_offline(follower.local_addr(), &t);
    assert_matches_offline(leader.local_addr(), &t);

    // Writes and flush barriers are leader verbs.
    let mut s = raw(follower.local_addr());
    match call(
        &mut s,
        &Msg::Hello {
            computation: COMP.into(),
            num_processes: t.num_processes(),
            max_cluster_size: MCS,
        },
    ) {
        Msg::HelloAck { .. } => {}
        other => panic!("hello answered {other:?}"),
    }
    match call(&mut s, &Msg::Events(vec![t.events()[0]])) {
        Msg::Error { code: c, .. } => assert_eq!(c, code::READ_ONLY),
        other => panic!("Events on a follower answered {other:?}"),
    }
    match call(&mut s, &Msg::Flush { expected_total: 1 }) {
        Msg::Error { code: c, .. } => assert_eq!(c, code::READ_ONLY),
        other => panic!("Flush on a follower answered {other:?}"),
    }

    follower.shutdown();
    leader.shutdown();
}

/// Satellite 1: an unknown verb tag gets a typed `UNSUPPORTED` error and
/// the connection stays usable. Old servers dropping the connection is
/// exactly what version negotiation exists to avoid.
#[test]
fn unknown_verb_yields_typed_unsupported_and_keeps_connection() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("daemon");
    let mut s = raw(daemon.local_addr());
    // A well-formed frame with an unassigned tag byte.
    let body = [VERSION, 0xEE, 1, 2, 3];
    let mut frame = (body.len() as u32).min(MAX_FRAME).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    s.write_all(&frame).expect("send junk");
    match read_msg(&mut s).expect("recv").expect("dropped") {
        Msg::Error { code: c, .. } => assert_eq!(c, code::UNSUPPORTED),
        other => panic!("unknown tag answered {other:?}"),
    }
    // Same connection still speaks the protocol.
    match call(
        &mut s,
        &Msg::Hello {
            computation: "still-alive".into(),
            num_processes: 1,
            max_cluster_size: MCS,
        },
    ) {
        Msg::HelloAck { .. } => {}
        other => panic!("post-junk hello answered {other:?}"),
    }
    daemon.shutdown();
}

/// Satellite 1: `Subscribe` is gated on the `ProtoHello` negotiation —
/// a protocol-1 client gets `UNSUPPORTED`, a negotiated one a lease.
#[test]
fn subscribe_requires_protocol_negotiation() {
    let dir = tmpdir("negotiation");
    let t = trace();
    let leader = Daemon::start(leader_config(&dir)).expect("leader");
    stream(leader.local_addr(), t.events(), t.num_events() as u64);

    let mut s = raw(leader.local_addr());
    match subscribe(&mut s, 0, 0) {
        Msg::Error { code: c, .. } => assert_eq!(c, code::UNSUPPORTED),
        other => panic!("un-negotiated Subscribe answered {other:?}"),
    }
    negotiate(&mut s);
    match subscribe(&mut s, 0, 0) {
        Msg::SubscribeAck {
            lease,
            leader_epoch,
            num_processes,
            start_offset,
            ..
        } => {
            assert_eq!(num_processes, t.num_processes());
            assert_eq!(start_offset, 0);
            assert_eq!(lease_epoch(lease), leader_epoch);
            assert!(leader_epoch >= 1);
        }
        other => panic!("negotiated Subscribe answered {other:?}"),
    }
    leader.shutdown();
}

/// Leader crash mid-stream: the follower detects the dead stream,
/// resubscribes against the restarted incarnation (whose new epoch fences
/// the old lease), and re-converges to zero divergence once the client
/// re-streams the suffix the crash may have cost the leader.
#[test]
fn leader_crash_midstream_follower_reconverges() {
    let dir = tmpdir("leader-crash");
    let t = trace();
    let n = t.num_events();
    let half = n / 2;

    let leader = Daemon::start(leader_config(&dir)).expect("leader");
    let addr = leader.local_addr();
    stream(addr, &t.events()[..half], half as u64);

    let follower = Daemon::start(follower_config(addr, None)).expect("follower");
    wait_covered(
        follower.local_addr(),
        &probe_ids(&t.events()[..half]),
        Duration::from_secs(30),
    );

    // Crash-stop the leader (no graceful sync), restart on the same data
    // dir *and the same address* so the follower's resubscribe loop finds
    // the new incarnation.
    leader.kill();
    let leader2 = Daemon::start(DaemonConfig {
        addr,
        ..leader_config(&dir)
    })
    .expect("leader restart");
    while leader2.is_recovering() {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Re-stream the full trace: recovery holds some delivered prefix, the
    // reorder buffer deduplicates the overlap (the same contract normal
    // clients rely on after a crash).
    stream(addr, t.events(), n as u64);

    wait_covered(
        follower.local_addr(),
        &probe_ids(t.events()),
        Duration::from_secs(60),
    );
    assert_matches_offline(follower.local_addr(), &t);
    assert_matches_offline(addr, &t);

    // The follower went through at least one resubscription, visible in
    // its lag metrics.
    let mut c = Client::connect(follower.local_addr()).expect("connect");
    c.hello(COMP, t.num_processes(), MCS).expect("hello");
    let stats = c.stats().expect("stats");
    assert!(
        stats.repl_resubscribes >= 1,
        "expected a resubscription after the leader crash, stats: {stats:?}"
    );
    assert_eq!(stats.repl_applied, n as u64);

    follower.shutdown();
    leader2.shutdown();
}

/// Follower crash: a durable follower WALs what it applies, so a
/// restarted one recovers locally and resubscribes *from its own tail* —
/// the leader only streams the suffix.
#[test]
fn follower_crash_catches_up_from_own_wal_tail() {
    let dir = tmpdir("follower-crash-leader");
    let fdir = tmpdir("follower-crash-replica");
    let t = trace();
    let n = t.num_events();
    let half = n / 2;

    let leader = Daemon::start(leader_config(&dir)).expect("leader");
    let addr = leader.local_addr();
    stream(addr, &t.events()[..half], half as u64);

    let f1 = Daemon::start(follower_config(addr, Some(&fdir))).expect("follower");
    wait_covered(
        f1.local_addr(),
        &probe_ids(&t.events()[..half]),
        Duration::from_secs(30),
    );
    f1.kill();

    stream(addr, t.events(), n as u64);

    let f2 = Daemon::start(follower_config(addr, Some(&fdir))).expect("follower restart");
    wait_covered(
        f2.local_addr(),
        &probe_ids(t.events()),
        Duration::from_secs(60),
    );
    assert_matches_offline(f2.local_addr(), &t);

    // Incremental catch-up, proven at the wire level: a subscription from
    // the half-way offset (what the restarted replica's own WAL tail
    // resumes from) must start exactly there and stream exactly the
    // suffix of the leader's delivery order — not restart from zero.
    let mut s = raw(addr);
    negotiate(&mut s);
    match subscribe(&mut s, half as u64, 0) {
        Msg::SubscribeAck { start_offset, .. } => assert_eq!(start_offset, half as u64),
        other => panic!("mid-WAL Subscribe answered {other:?}"),
    }
    match read_msg(&mut s).expect("recv").expect("stream closed") {
        Msg::StreamBatch {
            first_offset,
            events,
            ..
        } => {
            assert_eq!(first_offset, half as u64 + 1);
            // One client streamed in trace order, so the leader's delivery
            // order is the trace order and the suffix must match it.
            assert!(!events.is_empty());
            assert_eq!(events[..], t.events()[half..half + events.len()]);
        }
        other => panic!("expected a catch-up StreamBatch, got {other:?}"),
    }
    drop(s);

    f2.shutdown();
    leader.shutdown();
}

/// A follower crash can tear the tail of the follower's *own* WAL. Its
/// recovery truncates the torn record, and the resubscription starts from
/// the truncated offset — the stream heals what the disk lost.
#[test]
fn torn_follower_wal_tail_truncates_and_resubscribes() {
    let dir = tmpdir("torn-leader");
    let fdir = tmpdir("torn-replica");
    let t = trace();
    let n = t.num_events();

    let leader = Daemon::start(leader_config(&dir)).expect("leader");
    let addr = leader.local_addr();
    stream(addr, t.events(), n as u64);

    let f1 = Daemon::start(follower_config(addr, Some(&fdir))).expect("follower");
    wait_covered(
        f1.local_addr(),
        &probe_ids(t.events()),
        Duration::from_secs(30),
    );
    f1.kill();

    // Tear the replica's newest WAL segment mid-record.
    let comp_dir = fdir.join(COMP);
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&comp_dir)
        .expect("replica dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segments.sort();
    let tail = segments.last().expect("replica wrote no WAL segments");
    let len = std::fs::metadata(tail).unwrap().len();
    assert!(len > 8, "segment too small to tear");
    std::fs::OpenOptions::new()
        .write(true)
        .open(tail)
        .unwrap()
        .set_len(len - 7)
        .unwrap();

    let f2 = Daemon::start(follower_config(addr, Some(&fdir))).expect("follower restart");
    wait_covered(
        f2.local_addr(),
        &probe_ids(t.events()),
        Duration::from_secs(60),
    );
    assert_matches_offline(f2.local_addr(), &t);
    f2.shutdown();
    leader.shutdown();
}

/// Stale-lease fencing at the wire level: a lease minted by one leader
/// incarnation is refused with `LEASE_EXPIRED` by the next, and the fresh
/// subscription's lease carries the new (strictly larger) epoch.
#[test]
fn stale_lease_is_fenced_after_leader_restart() {
    let dir = tmpdir("fencing");
    let t = trace();
    let leader = Daemon::start(leader_config(&dir)).expect("leader");
    let addr = leader.local_addr();
    stream(addr, t.events(), t.num_events() as u64);

    let mut s = raw(addr);
    negotiate(&mut s);
    let old_lease = match subscribe(&mut s, 0, 0) {
        Msg::SubscribeAck { lease, .. } => lease,
        other => panic!("Subscribe answered {other:?}"),
    };
    drop(s);
    leader.shutdown();

    let leader2 = Daemon::start(DaemonConfig {
        addr,
        ..leader_config(&dir)
    })
    .expect("leader restart");
    while leader2.is_recovering() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut s = raw(addr);
    negotiate(&mut s);
    match subscribe(&mut s, 0, old_lease) {
        Msg::Error { code: c, .. } => assert_eq!(c, code::LEASE_EXPIRED),
        other => panic!("stale-lease Subscribe answered {other:?}"),
    }
    match subscribe(&mut s, 0, 0) {
        Msg::SubscribeAck {
            lease,
            leader_epoch,
            ..
        } => {
            assert!(lease_epoch(lease) > lease_epoch(old_lease));
            assert_eq!(lease_epoch(lease), leader_epoch);
        }
        other => panic!("fresh Subscribe answered {other:?}"),
    }
    leader2.shutdown();
}
