//! One scripted conversation, two transports, identical replies.
//!
//! Both network transports drive the same `Session::on_frame`, so a peer
//! must not be able to tell them apart. This test sends one frame sequence
//! — every client verb, every refusal class, every way a connection ends —
//! to a daemon on the thread transport and (on Linux) a daemon on the epoll
//! transport, and requires the two reply streams to be byte-identical once
//! the fields that depend on timing are masked: `StatsResult` latencies and
//! epoch numbers. The per-cell protocol decisions themselves are pinned,
//! without a socket, by the matrix test in `crates/daemon/src/session.rs`.

use cts_daemon::server::{Daemon, DaemonConfig, NetBackend};
use cts_daemon::wire::{self, read_msg, write_msg, Msg};
use cts_model::{Event, EventId, EventIndex, EventKind, ProcessId};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cts-transcript-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ev(p: u32, i: u32) -> EventId {
    EventId::new(ProcessId(p), EventIndex(i))
}

/// A 3-process exchange: 0 -> 1 -> 2, plus an internal step on each end.
fn trace() -> Vec<Event> {
    vec![
        Event::new(ev(0, 1), EventKind::Send { to: ProcessId(1) }),
        Event::new(ev(1, 1), EventKind::Receive { from: ev(0, 1) }),
        Event::new(ev(1, 2), EventKind::Send { to: ProcessId(2) }),
        Event::new(ev(2, 1), EventKind::Receive { from: ev(1, 2) }),
        Event::new(ev(0, 2), EventKind::Internal),
        Event::new(ev(2, 2), EventKind::Internal),
    ]
}

/// The reply as compared: re-encoded with its timing-dependent fields
/// zeroed.
fn masked(mut reply: Msg) -> Vec<u8> {
    match &mut reply {
        Msg::StatsResult(s) => {
            for ns in [
                &mut s.ingest_p50_ns,
                &mut s.ingest_p95_ns,
                &mut s.query_p50_ns,
                &mut s.query_p95_ns,
                &mut s.precedes_p50_ns,
                &mut s.precedes_p95_ns,
                &mut s.gc_p50_ns,
                &mut s.gc_p95_ns,
                &mut s.window_p50_ns,
                &mut s.window_p95_ns,
            ] {
                *ns = 0;
            }
        }
        Msg::FlushAck { epoch, .. }
        | Msg::PrecedesResult { epoch, .. }
        | Msg::GcResult { epoch, .. }
        | Msg::PrecedesBatchResult { epoch, .. }
        | Msg::GcBatchResult { epoch, .. }
        | Msg::ClusterMapResult { epoch, .. }
        | Msg::PlacementResult { epoch, .. } => *epoch = 0,
        Msg::EpochList { epochs } => epochs.iter_mut().for_each(|row| row.0 = 0),
        _ => {}
    }
    reply.encode()
}

/// One scripted connection; every reply it reads lands in the transcript.
struct Script<'a> {
    stream: TcpStream,
    transcript: &'a mut Vec<Vec<u8>>,
}

impl<'a> Script<'a> {
    fn connect(addr: SocketAddr, transcript: &'a mut Vec<Vec<u8>>) -> Script<'a> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Script { stream, transcript }
    }

    /// A verb that is not answered (`Events`, `Goodbye`).
    fn send(&mut self, msg: &Msg) {
        write_msg(&mut self.stream, msg).expect("write frame");
    }

    fn read(&mut self) -> Msg {
        let reply = read_msg(&mut self.stream)
            .expect("read reply")
            .expect("a reply, not a hangup");
        self.transcript.push(masked(reply.clone()));
        reply
    }

    fn call(&mut self, msg: &Msg) -> Msg {
        self.send(msg);
        self.read()
    }

    /// A payload that is not a `Msg` at all.
    fn call_raw(&mut self, payload: &[u8]) -> Msg {
        self.stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .and_then(|()| self.stream.write_all(payload))
            .expect("write raw frame");
        self.read()
    }

    /// The daemon must have hung up, cleanly, at a frame boundary.
    fn expect_hangup(mut self) {
        assert!(
            read_msg(&mut self.stream).expect("clean close").is_none(),
            "the daemon kept the connection open"
        );
        self.transcript.push(b"<hangup>".to_vec());
    }
}

fn proto_hello(level: u16) -> Msg {
    Msg::ProtoHello {
        protocol_max: level,
        wal_max: wire::WAL_FORMAT,
    }
}

fn hello(num_processes: u32) -> Msg {
    Msg::Hello {
        computation: "t".into(),
        num_processes,
        max_cluster_size: 2,
    }
}

/// The conversation with a durable leader-capable daemon.
fn leader_script(addr: SocketAddr, out: &mut Vec<Vec<u8>>) {
    let (e, f) = (ev(0, 1), ev(2, 1));

    // The main connection: level 1, then level 5, one session.
    let mut c = Script::connect(addr, out);
    c.call(&Msg::QueryPrecedes { e, f }); // NO_SESSION
    c.call(&Msg::Stats); // NO_SESSION
    c.call(&Msg::ListComputations); // UNSUPPORTED below level 2
    c.call(&proto_hello(wire::PROTOCOL));
    c.call(&hello(50_000_000)); // BAD_HELLO, nothing allocated
    c.call(&hello(3));
    c.call(&hello(4)); // BAD_HELLO: parameters differ from the live one
    c.send(&Msg::Events(trace()));
    c.call(&Msg::Events(vec![Event::new(
        ev(9, 1),
        EventKind::Internal,
    )])); // MALFORMED
    let epoch = match c.call(&Msg::Flush { expected_total: 6 }) {
        Msg::FlushAck { epoch, delivered } => {
            assert_eq!(delivered, 6);
            epoch
        }
        other => panic!("flush answered {other:?}"),
    };
    c.call(&Msg::QueryPrecedes { e, f });
    c.call(&Msg::QueryPrecedes { e: f, f: e });
    c.call(&Msg::QueryPrecedes { e, f: ev(1, 7) }); // UNKNOWN_EVENT
    c.call(&Msg::QueryGreatestConcurrent { e: ev(1, 1) });
    let window = |process, limit| Msg::QueryWindow {
        process,
        from: 0,
        to: 100,
        limit,
    };
    c.call(&window(1, 0));
    c.call(&window(1, 1)); // one id and a cursor
    c.call(&window(5, 0)); // MALFORMED
    c.call(&Msg::QueryPrecedesBatch {
        pairs: vec![(e, f), (f, e), (e, ev(2, 9))],
    });
    c.call(&Msg::QueryGcBatch {
        events: vec![e, f, ev(2, 9)],
    });
    c.call(&Msg::QueryGcBatch {
        events: vec![e; wire::gc_batch_limit(3) + 1],
    }); // MALFORMED: the reply would not fit a frame
    c.call(&Msg::ListEpochs);
    c.call(&Msg::QueryAsOfPrecedes { epoch, e, f });
    c.call(&Msg::QueryAsOfPrecedes {
        epoch: epoch + 50,
        e,
        f,
    }); // EPOCH_RETIRED
    c.call(&Msg::QueryAsOfGc { epoch, e: ev(1, 1) });
    c.call(&Msg::QueryAsOfWindow {
        epoch,
        process: 1,
        from: 0,
        to: 100,
        limit: 0,
    });
    c.call(&Msg::ReplayInterval {
        from_epoch: 0,
        to_epoch: epoch,
        cursor: 0,
        limit: 4,
    });
    c.call(&Msg::ReplayInterval {
        from_epoch: 0,
        to_epoch: epoch,
        cursor: 5,
        limit: 4,
    });
    c.call(&Msg::QueryClusterMap);
    c.call(&Msg::QueryPlacement);
    c.call(&Msg::ListComputations);
    c.call(&Msg::Subscribe {
        computation: "nope".into(),
        from_offset: 0,
        prev_lease: 0,
    }); // BAD_HELLO: unknown computation
    c.call(&Msg::ShutdownAck); // MALFORMED: a server-side message
    c.call_raw(&[wire::VERSION, 0x70]); // UNSUPPORTED: unknown verb, connection kept
    c.call_raw(&[wire::VERSION, 0x01]); // MALFORMED: truncated Hello
    c.call(&Msg::Stats);
    c.send(&Msg::Goodbye);
    c.expect_hangup();

    // Each level unlocks its own verbs and no more.
    for level in 0..wire::PROTOCOL {
        let mut c = Script::connect(addr, out);
        c.call(&proto_hello(level));
        c.call(&hello(3));
        c.call(&Msg::ListComputations);
        c.call(&Msg::ListEpochs);
        c.call(&Msg::QueryClusterMap);
        c.call(&Msg::QueryPlacement);
    }

    // An unknown frame version is answered once, then the daemon hangs up.
    let mut c = Script::connect(addr, out);
    c.call_raw(&[9, 0x01]);
    c.expect_hangup();

    // A granted subscription turns the connection into a push stream: the
    // ack, then the committed prefix.
    let mut c = Script::connect(addr, out);
    c.call(&proto_hello(wire::PROTOCOL));
    match c.call(&Msg::Subscribe {
        computation: "t".into(),
        from_offset: 0,
        prev_lease: 0,
    }) {
        Msg::SubscribeAck { start_offset, .. } => assert_eq!(start_offset, 0),
        other => panic!("subscribe answered {other:?}"),
    }
    match c.read() {
        Msg::StreamBatch {
            first_offset,
            commit,
            events,
            ..
        } => assert_eq!((first_offset, commit, events), (1, 6, trace())),
        other => panic!("stream opened with {other:?}"),
    }
    drop(c);

    let mut c = Script::connect(addr, out);
    c.call(&Msg::Shutdown);
    c.expect_hangup();
}

/// The conversation with a follower (its leader is unreachable, which does
/// not matter: it refuses writes whatever it has replicated).
fn follower_script(addr: SocketAddr, out: &mut Vec<Vec<u8>>) {
    let mut c = Script::connect(addr, out);
    c.call(&Msg::Events(trace())); // READ_ONLY comes before NO_SESSION
    c.call(&hello(3));
    c.call(&Msg::Events(trace())); // READ_ONLY
    c.call(&Msg::Flush { expected_total: 0 }); // READ_ONLY
    c.call(&Msg::QueryWindow {
        process: 0,
        from: 0,
        to: 10,
        limit: 0,
    });
    c.call(&Msg::Stats);
    c.send(&Msg::Goodbye);
    c.expect_hangup();
}

/// Run both scripts against fresh daemons on `net`; returns the transcript.
fn transcript(net: NetBackend, tag: &str) -> Vec<Vec<u8>> {
    let mut out = Vec::new();

    let leader = Daemon::start(DaemonConfig {
        net,
        data_dir: Some(tmpdir(&format!("{tag}-leader"))),
        ..DaemonConfig::default()
    })
    .expect("bind leader");
    leader_script(leader.local_addr(), &mut out);
    leader.shutdown();

    // A port nothing listens on: bound, then released.
    let dead = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve a port");
    let follower = Daemon::start(DaemonConfig {
        net,
        follow: Some(dead),
        ..DaemonConfig::default()
    })
    .expect("bind follower");
    follower_script(follower.local_addr(), &mut out);
    follower.shutdown();
    out
}

#[cfg(target_os = "linux")]
fn describe(frame: &[u8]) -> String {
    match Msg::decode(frame) {
        Ok(msg) => format!("{msg:?}"),
        Err(_) => String::from_utf8_lossy(frame).into_owned(),
    }
}

/// Every refusal class shows up at least once, so a script edit cannot
/// silently stop covering one.
fn assert_complete(transcript: &[Vec<u8>]) {
    let codes: std::collections::BTreeSet<u16> = transcript
        .iter()
        .filter_map(|f| match Msg::decode(f) {
            Ok(Msg::Error { code, .. }) => Some(code),
            _ => None,
        })
        .collect();
    use wire::code::*;
    for want in [
        UNKNOWN_EVENT,
        BAD_HELLO,
        NO_SESSION,
        MALFORMED,
        BAD_VERSION,
        READ_ONLY,
        UNSUPPORTED,
        EPOCH_RETIRED,
    ] {
        assert!(codes.contains(&want), "no reply with error code {want}");
    }
}

#[test]
fn both_transports_answer_byte_identically() {
    let threads = transcript(NetBackend::Threads, "threads");
    assert_complete(&threads);
    // Off Linux there is one transport; the script still has to run clean.
    #[cfg(target_os = "linux")]
    {
        let epoll = transcript(NetBackend::Epoll, "epoll");
        for (i, (a, b)) in threads.iter().zip(&epoll).enumerate() {
            assert_eq!(
                a,
                b,
                "reply {i} differs:\n threads: {}\n epoll:   {}",
                describe(a),
                describe(b)
            );
        }
        assert_eq!(threads.len(), epoll.len());
    }
}
