//! Time-travel integration tests (PR 8): retained-epoch `QueryAsOf*`,
//! `ListEpochs`, `ReplayInterval`, and the retention machinery behind
//! them — against live daemons over TCP loopback.
//!
//! The correctness anchor is the same delivery-order invariance the rest
//! of the suite leans on, applied *per epoch*: a retained epoch is an
//! immutable published snapshot of some delivered prefix, so the daemon's
//! as-of answers must equal an offline engine run over exactly that
//! prefix — which `ReplayInterval` hands back verbatim for the test to
//! rebuild.

use cts_core::strategy::MergeOnFirst;
use cts_core::ClusterEngine;
use cts_daemon::server::{Daemon, DaemonConfig};
use cts_daemon::wire::{code, read_msg, write_msg, Msg, PROTOCOL, WAL_FORMAT};
use cts_daemon::Client;
use cts_model::{EventId, Trace};
use cts_workloads::{spmd::Stencil1D, Workload};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const COMP: &str = "timetravel";
const MCS: u32 = 4;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cts-timetravel-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn trace() -> Trace {
    Stencil1D { procs: 8, iters: 6 }.generate(11)
}

/// A negotiated, session-bound client (the level-3 verbs require both).
fn session(addr: SocketAddr, n: u32) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    let (protocol, _) = c.proto_hello().expect("proto hello");
    assert!(protocol >= 3, "daemon negotiated protocol {protocol}");
    c.hello(COMP, n, MCS).expect("hello");
    c
}

/// Stream `events` through an existing session and barrier on `expected`.
fn stream_and_flush(c: &mut Client, events: &[cts_model::Event], expected: u64) -> (u64, u64) {
    c.stream_events(events, 64).expect("stream");
    let (epoch, delivered) = c.flush(expected).expect("flush");
    assert_eq!(delivered, expected);
    (epoch, delivered)
}

/// Offline oracle over an arbitrary delivered prefix.
fn offline(prefix: &Trace) -> cts_core::ClusterTimestamps {
    ClusterEngine::run(prefix, MergeOnFirst::new(MCS as usize))
}

/// Prime-stride pair sample over `ids` (same strides as the loadgen).
fn sample_pairs(ids: &[EventId], count: usize) -> Vec<(EventId, EventId)> {
    (0..count)
        .map(|k| {
            (
                ids[(k * 7919) % ids.len()],
                ids[(k * 104_729 + 13) % ids.len()],
            )
        })
        .collect()
}

// ---- raw-wire helpers (typed errors surface as io::Error in Client) ----

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
        Msg::ProtoHelloAck { protocol, .. } => assert!(protocol >= 3),
        other => panic!("ProtoHello answered {other:?}"),
    }
}

fn hello(s: &mut TcpStream, n: u32) {
    match call(
        s,
        &Msg::Hello {
            computation: COMP.into(),
            num_processes: n,
            max_cluster_size: MCS,
        },
    ) {
        Msg::HelloAck { .. } => {}
        other => panic!("hello answered {other:?}"),
    }
}

// ---- the scenarios ----

/// An as-of query at a retained epoch answers from the snapshot that was
/// published *then*, bit-identically: the interval replay returns exactly
/// the delivered prefix of publish time, and every as-of precedes/gc/
/// window answer equals the offline engine over that prefix — no matter
/// how far the head has moved since.
#[test]
fn asof_answers_are_bit_identical_to_publish_time_snapshot() {
    let t = trace();
    let n = t.num_events();
    let half = n / 2;
    let daemon = Daemon::start(DaemonConfig::default()).expect("daemon");
    let mut c = session(daemon.local_addr(), t.num_processes());

    // Publish an epoch covering exactly the first half (one in-order
    // client, so the daemon's delivery order is the trace order).
    let (epoch_half, _) = stream_and_flush(&mut c, &t.events()[..half], half as u64);
    // Move the head well past it.
    let (epoch_full, _) = stream_and_flush(&mut c, &t.events()[half..], n as u64);
    assert!(epoch_full > epoch_half);

    // The replayed interval is the publish-time prefix, verbatim.
    let replayed = c.replay_interval(0, epoch_half).expect("replay");
    assert_eq!(replayed[..], t.events()[..half]);

    // And the as-of answers are the offline engine's over that prefix.
    let prefix =
        Trace::from_delivery_order(COMP, t.num_processes(), replayed).expect("valid prefix");
    let oracle = offline(&prefix);
    let ids: Vec<EventId> = prefix.all_event_ids().collect();
    for (e, f) in sample_pairs(&ids, 200) {
        let got = c.asof_precedes(epoch_half, e, f).expect("as-of precedes");
        assert_eq!(got, oracle.precedes(&prefix, e, f), "precedes({e}, {f})");
    }
    for k in 0..4usize {
        let e = ids[(k * 15_485_863 + 3) % ids.len()];
        let got = c.asof_greatest_concurrent(epoch_half, e).expect("as-of gc");
        let want = cts_store::queries::greatest_concurrent(
            &mut cts_store::queries::ClusterBackend(&oracle),
            &prefix,
            e,
        );
        assert_eq!(got, want, "greatest_concurrent({e})");
    }
    let p0 = cts_model::ProcessId(0);
    let upto = prefix.process_len(p0) as u32 + 1;
    let got = c.asof_window(epoch_half, 0, 1, upto).expect("as-of window");
    let want: Vec<EventId> = prefix.process_events(p0).collect();
    assert_eq!(got, want);

    // Sanity: the head answers differently where the second half added
    // precedence (the as-of path is not just reading the head store).
    let head_ids: Vec<EventId> = t.all_event_ids().collect();
    assert!(head_ids.len() > ids.len());

    c.goodbye().expect("goodbye");
    daemon.shutdown();
}

/// A GC'd epoch is gone: with `retain_epochs = 2` and a fine publish
/// cadence, early epochs are retired, every time-travel verb answers
/// `EPOCH_RETIRED` for them (typed, connection survives), and the verbs
/// are refused outright without level-3 negotiation.
#[test]
fn retired_epoch_gets_typed_error_and_gate_requires_level3() {
    let t = trace();
    let n = t.num_events();
    let daemon = Daemon::start(DaemonConfig {
        retain_epochs: 2,
        epoch_every: 16,
        ..DaemonConfig::default()
    })
    .expect("daemon");

    let mut c = session(daemon.local_addr(), t.num_processes());
    // Fine-grained frames so the cadence actually fires between flushes.
    c.stream_events(t.events(), 16).expect("stream");
    c.flush(n as u64).expect("flush");

    let epochs = c.list_epochs().expect("list epochs");
    assert!(!epochs.is_empty() && epochs.len() <= 2, "cap 2: {epochs:?}");
    let oldest_retained = epochs[0].0;
    assert!(
        oldest_retained > 1,
        "epoch 1 must have been retired under the cap (retained: {epochs:?})"
    );
    let e0 = t.events()[0].id;

    // Typed EPOCH_RETIRED for every as-of verb at the dead epoch; the
    // connection keeps serving afterwards.
    let mut s = raw(daemon.local_addr());
    negotiate(&mut s);
    hello(&mut s, t.num_processes());
    for msg in [
        Msg::QueryAsOfPrecedes {
            epoch: 1,
            e: e0,
            f: e0,
        },
        Msg::QueryAsOfGc { epoch: 1, e: e0 },
        Msg::QueryAsOfWindow {
            epoch: 1,
            process: 0,
            from: 1,
            to: 4,
            limit: 0,
        },
        Msg::ReplayInterval {
            from_epoch: 0,
            to_epoch: 1,
            cursor: 0,
            limit: 0,
        },
        // An epoch from the future is equally "not retained".
        Msg::QueryAsOfPrecedes {
            epoch: 1 << 40,
            e: e0,
            f: e0,
        },
    ] {
        match call(&mut s, &msg) {
            Msg::Error { code: cd, message } => {
                assert_eq!(cd, code::EPOCH_RETIRED, "{msg:?}: {message}");
                assert!(message.contains("not retained"), "{message}");
            }
            other => panic!("{msg:?} answered {other:?}"),
        }
    }
    // The oldest *retained* epoch still answers on the same connection.
    match call(
        &mut s,
        &Msg::QueryAsOfPrecedes {
            epoch: oldest_retained,
            e: e0,
            f: e0,
        },
    ) {
        Msg::PrecedesResult { epoch, .. } => assert_eq!(epoch, oldest_retained),
        other => panic!("retained-epoch query answered {other:?}"),
    }
    drop(s);

    // Without ProtoHello, the whole verb family is UNSUPPORTED.
    let mut s = raw(daemon.local_addr());
    hello(&mut s, t.num_processes());
    match call(&mut s, &Msg::ListEpochs) {
        Msg::Error { code: cd, .. } => assert_eq!(cd, code::UNSUPPORTED),
        other => panic!("un-negotiated ListEpochs answered {other:?}"),
    }
    drop(s);

    c.goodbye().expect("goodbye");
    daemon.shutdown();
}

/// An interval replay cursor started before an epoch publish resumes
/// exactly — no gap, no overlap — because the chunks come from the
/// retained `to_epoch` snapshot, not from the moving head.
#[test]
fn replay_cursor_resumes_exactly_across_epoch_publish() {
    let t = trace();
    let n = t.num_events();
    let half = n / 2;
    let daemon = Daemon::start(DaemonConfig::default()).expect("daemon");
    let mut c = session(daemon.local_addr(), t.num_processes());
    let (epoch_half, _) = stream_and_flush(&mut c, &t.events()[..half], half as u64);

    // First page of the replay, deliberately tiny.
    let (first_offset, page1, cursor) = c.replay_page(0, epoch_half, 0, 7).expect("page 1");
    assert_eq!(first_offset, 1);
    assert_eq!(page1.len(), 7);
    assert_ne!(cursor, 0);

    // An epoch publish lands in the middle of the scan.
    let (epoch_full, _) = stream_and_flush(&mut c, &t.events()[half..], n as u64);
    assert!(epoch_full > epoch_half);

    // Resume: the remaining pages continue at the saved cursor and the
    // concatenation is the half-prefix, verbatim — the new head epoch
    // never leaks into the interval.
    let mut all = page1;
    let mut cursor = cursor;
    while cursor != 0 {
        let (off, page, next) = c.replay_page(0, epoch_half, cursor, 7).expect("resume");
        assert_eq!(off, cursor, "chunk did not start at the requested cursor");
        assert!(!page.is_empty());
        all.extend(page);
        cursor = next;
    }
    assert_eq!(all[..], t.events()[..half]);

    c.goodbye().expect("goodbye");
    daemon.shutdown();
}

/// A follower serves time travel too, but only over epochs covering
/// prefixes the leader durably acked: every epoch the follower lists
/// replays to a prefix of the leader's delivery order no longer than the
/// leader's durable watermark, and the as-of answers at the newest such
/// epoch match the offline engine over that prefix.
#[test]
fn follower_answers_asof_at_leader_acked_epochs_only() {
    let dir = tmpdir("follower-asof");
    let t = trace();
    let n = t.num_events();
    let leader = Daemon::start(DaemonConfig {
        data_dir: Some(dir.clone()),
        sync_window: Duration::ZERO,
        epoch_every: 32,
        ..DaemonConfig::default()
    })
    .expect("leader");
    let mut lc = session(leader.local_addr(), t.num_processes());
    lc.stream_events(t.events(), 32).expect("stream");
    lc.flush(n as u64).expect("flush");
    let leader_acked = {
        let stats = lc.stats().expect("leader stats");
        assert_eq!(stats.events_ingested, n as u64);
        n as u64
    };

    let follower = Daemon::start(DaemonConfig {
        follow: Some(leader.local_addr()),
        sync_window: Duration::ZERO,
        epoch_every: 32,
        ..DaemonConfig::default()
    })
    .expect("follower");
    // Converge: the follower's head must cover the whole computation.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut fc = loop {
        let mut attempt = Client::connect(follower.local_addr()).expect("connect");
        if attempt.proto_hello().is_ok()
            && attempt.hello(COMP, t.num_processes(), MCS).is_ok()
            && attempt
                .stats()
                .is_ok_and(|s| s.repl_applied == n as u64 && s.snapshots_published >= 1)
        {
            break attempt;
        }
        assert!(Instant::now() < deadline, "follower did not converge");
        std::thread::sleep(Duration::from_millis(20));
    };

    let epochs = fc.list_epochs().expect("follower epochs");
    assert!(!epochs.is_empty(), "follower retained no epochs");
    for &(epoch, delivered) in &epochs {
        // Leader-acked only: nothing beyond the durable watermark, and
        // the replayed prefix is the leader's delivery order verbatim
        // (one in-order client, so that is the trace order).
        assert!(
            delivered <= leader_acked,
            "follower epoch {epoch} covers {delivered} > leader-acked {leader_acked}"
        );
        let replayed = fc.replay_interval(0, epoch).expect("follower replay");
        assert_eq!(replayed[..], t.events()[..delivered as usize]);
    }

    // Differential as-of at the newest follower epoch.
    let &(newest, delivered) = epochs.last().unwrap();
    let prefix = Trace::from_delivery_order(
        COMP,
        t.num_processes(),
        t.events()[..delivered as usize].to_vec(),
    )
    .expect("valid prefix");
    let oracle = offline(&prefix);
    let ids: Vec<EventId> = prefix.all_event_ids().collect();
    for (e, f) in sample_pairs(&ids, 150) {
        let got = fc.asof_precedes(newest, e, f).expect("follower as-of");
        assert_eq!(got, oracle.precedes(&prefix, e, f), "precedes({e}, {f})");
    }
    // An epoch the follower never published is refused, typed.
    let err = fc
        .asof_precedes(newest + 1000, ids[0], ids[0])
        .expect_err("unknown epoch must fail");
    assert!(err.to_string().contains("not retained"), "{err}");

    fc.goodbye().expect("goodbye");
    lc.goodbye().expect("goodbye");
    follower.shutdown();
    leader.shutdown();
}

/// Retained history survives both a graceful restart and a crash, with
/// the marks read back from the WAL: `ListEpochs` after each restart is the
/// list the previous incarnation advertised, every retained epoch still
/// answers as-of precedence and greatest-concurrent exactly like the
/// offline engine over its prefix, and the computation directory never
/// holds anything but `meta`, checkpoints and WAL segments. `retain_epochs
/// = 1` makes the final checkpoint of a graceful shutdown cover every
/// segment that held the list.
#[test]
fn retained_epochs_survive_restart_and_crash_from_the_wal() {
    let t = Stencil1D {
        procs: 8,
        iters: 24,
    }
    .generate(11);
    let n = t.num_events();
    let part = 2 * n / 3;
    for retain in [1usize, 8] {
        let dir = tmpdir(&format!("marks-in-wal-{retain}"));
        let config = || DaemonConfig {
            data_dir: Some(dir.clone()),
            epoch_every: 64,
            checkpoint_every: 200,
            retain_epochs: retain,
            ..DaemonConfig::default()
        };
        let restart = || {
            let d = Daemon::start(config()).expect("restart");
            while d.is_recovering() {
                std::thread::sleep(Duration::from_millis(5));
            }
            d
        };
        let only_wal_checkpoints_and_meta = || {
            for entry in std::fs::read_dir(dir.join(COMP)).unwrap() {
                let name = entry.unwrap().file_name().into_string().unwrap();
                assert!(
                    name == "meta"
                        || (name.starts_with("ckpt-") && name.ends_with(".ckpt"))
                        || (name.starts_with("wal-") && name.ends_with(".wal")),
                    "retain {retain}: unexpected file {name}"
                );
            }
        };

        // Graceful: the final checkpoint, then a restart.
        let daemon = Daemon::start(config()).expect("daemon");
        let mut c = session(daemon.local_addr(), t.num_processes());
        c.stream_events(&t.events()[..part], 16).expect("stream");
        c.flush(part as u64).expect("flush");
        let before = c.list_epochs().expect("epochs");
        assert_eq!(before.len(), retain, "more epochs published than retained");
        c.goodbye().expect("goodbye");
        daemon.shutdown();
        only_wal_checkpoints_and_meta();
        let daemon = restart();
        let mut c = session(daemon.local_addr(), t.num_processes());
        assert_eq!(c.list_epochs().expect("epochs"), before, "retain {retain}");

        // Crash: the rest of the trace, a flush, then SIGKILL-like stop.
        c.stream_events(&t.events()[part..], 16).expect("stream");
        c.flush(n as u64).expect("flush");
        let before = c.list_epochs().expect("epochs");
        assert_eq!(before.last().map(|m| m.1), Some(n as u64));
        // The last two epochs came after the last checkpoint rotation, so
        // only the marks records appended at publish name them.
        let newest_checkpoint = std::fs::read_dir(dir.join(COMP))
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .max()
            .unwrap();
        assert!(before.len() < 2 || before[before.len() - 2].1 > newest_checkpoint);
        drop(c);
        daemon.kill();
        only_wal_checkpoints_and_meta();
        let daemon = restart();
        let mut c = session(daemon.local_addr(), t.num_processes());
        assert_eq!(c.list_epochs().expect("epochs"), before, "retain {retain}");
        for &(epoch, delivered) in &before {
            let prefix = Trace::from_delivery_order(
                COMP,
                t.num_processes(),
                t.events()[..delivered as usize].to_vec(),
            )
            .expect("valid prefix");
            let oracle = offline(&prefix);
            let ids: Vec<EventId> = prefix.all_event_ids().collect();
            for (e, f) in sample_pairs(&ids, 60) {
                let got = c.asof_precedes(epoch, e, f).expect("as-of precedes");
                assert_eq!(got, oracle.precedes(&prefix, e, f), "@{epoch}: {e} -> {f}");
            }
            for k in 0..3usize {
                let e = ids[(k * 15_485_863 + 3) % ids.len()];
                let want = cts_store::queries::greatest_concurrent(
                    &mut cts_store::queries::ClusterBackend(&oracle),
                    &prefix,
                    e,
                );
                let got = c.asof_greatest_concurrent(epoch, e).expect("as-of gc");
                assert_eq!(got, want, "@{epoch}: greatest_concurrent({e})");
            }
        }
        c.goodbye().expect("goodbye");
        daemon.shutdown();
        only_wal_checkpoints_and_meta();
    }
}
