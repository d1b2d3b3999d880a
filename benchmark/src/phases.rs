//! The timed phases every workload is assembled from. Each takes frames
//! encoded beforehand and returns raw samples and replies; turning replies
//! into verdicts and comparing them with the oracle happens after timing.

use crate::daemon::{
    frame, hello_frame, is_recovering, unexpected, Conn, DaemonProc, FramePool, Launch,
};
use crate::oracle::GcSlots;
use crate::spans::Tracer;
use crate::workload::Comp;
use cts_daemon::wire::{self, Msg};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Operations attempted against the daemon and those that failed: an error
/// reply, a timeout, a refused frame, or an answer unlike the oracle's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// When a sampled phase stops: once it has both `min` samples and
/// `seconds` of run time, or when its frames run out.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub min: usize,
    pub seconds: f64,
}

impl Budget {
    /// Exactly the whole pool (`n` frames), however long it takes.
    pub fn whole(n: usize) -> Budget {
        Budget {
            min: n,
            seconds: 0.0,
        }
    }

    fn done(&self, count: usize, started: Instant) -> bool {
        count >= self.min && started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// A fresh private directory under the work directory.
pub fn fresh_dir(work: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = work.join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Copy a directory tree (regular files and directories only, which is all
/// a data directory holds).
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Cold start: spawn the daemon (on an empty data directory when durable),
/// wait for its port, connect, negotiate, and open every computation.
/// Returns the daemon, a connection bound to the last computation, and the
/// elapsed seconds.
pub fn cold_start(
    launch: &Launch,
    tag: &str,
    data_dir: Option<&Path>,
    comps: &[Comp],
) -> io::Result<(DaemonProc, Conn, f64)> {
    let hellos: Vec<Vec<u8>> = comps
        .iter()
        .map(|c| hello_frame(&c.name, c.num_processes()))
        .collect();
    let t0 = Instant::now();
    let daemon = DaemonProc::spawn(launch, tag, data_dir)?;
    let mut conn = Conn::connect(daemon.addr)?;
    conn.proto_hello()?;
    for hello in &hellos {
        match conn.call(hello)? {
            Msg::HelloAck { .. } => {}
            other => return Err(unexpected("Hello", &other)),
        }
    }
    Ok((daemon, conn, t0.elapsed().as_secs_f64()))
}

/// `n` cold starts on fresh directories, each daemon killed again; with
/// `warm_up`, one more goes first (page cache, dentries) and is dropped.
pub fn setup_samples(
    launch: &Launch,
    durable: bool,
    comps: &[Comp],
    n: usize,
    warm_up: bool,
) -> io::Result<Vec<f64>> {
    let mut samples = Vec::with_capacity(n);
    for i in usize::from(!warm_up)..=n {
        let dir = match durable {
            true => Some(fresh_dir(&launch.work, "setup-data")?),
            false => None,
        };
        let (daemon, conn, secs) = cold_start(launch, "setup", dir.as_deref(), comps)?;
        drop(conn);
        daemon.kill();
        if i > 0 {
            samples.push(secs);
        }
    }
    Ok(samples)
}

/// Write every frame of `pool`, one write each. With tracing on, each write
/// is a span.
pub fn send_all(conn: &mut Conn, pool: &FramePool, tracer: &mut Tracer) -> io::Result<()> {
    for f in pool.iter() {
        if tracer.enabled {
            tracer.span("client", "send_frame", 1, |_| conn.send(f)).0?;
        } else {
            conn.send(f)?;
        }
    }
    Ok(())
}

/// Depth-1 round trips over `pool`, from frame `from` on, until `budget`
/// is met. Returns the per-call latencies in microseconds and the replies.
pub fn depth1(
    conn: &mut Conn,
    pool: &FramePool,
    from: usize,
    budget: Budget,
) -> io::Result<(Vec<f64>, Vec<Msg>)> {
    let mut lat_us = Vec::new();
    let mut replies = Vec::new();
    let started = Instant::now();
    for i in from..pool.len() {
        if budget.done(i - from, started) {
            break;
        }
        let t0 = Instant::now();
        let reply = conn.call(pool.get(i))?;
        lat_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        replies.push(reply);
    }
    Ok((lat_us, replies))
}

/// What a pipelined phase saw.
pub struct Pipelined {
    /// Replies in request order.
    pub replies: Vec<Msg>,
    /// Seconds from first send to last reply.
    pub seconds: f64,
}

/// One connection, `depth` requests in flight over `pool` from frame
/// `from` on: send `depth`, then one more for every reply, until `budget`
/// is met; drain.
pub fn pipelined(
    conn: &mut Conn,
    pool: &FramePool,
    from: usize,
    depth: usize,
    budget: Budget,
) -> io::Result<Pipelined> {
    let mut replies = Vec::new();
    let started = Instant::now();
    let frames = pool.len().saturating_sub(from);
    let mut sent = 0;
    while sent < depth.min(frames) {
        conn.send(pool.get(from + sent))?;
        sent += 1;
    }
    while replies.len() < sent {
        replies.push(conn.recv()?);
        if sent < frames && !budget.done(sent, started) {
            conn.send(pool.get(from + sent))?;
            sent += 1;
        }
    }
    Ok(Pipelined {
        replies,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// Visibility probes: send one frame, then `Flush` for the total it brings
/// the computation to; the time to `FlushAck` is how long until the frame's
/// events are answerable. `totals[i]` is the expected total after frame
/// `i`. Returns latencies in milliseconds and the probes that failed.
pub fn visible_probes(
    conn: &mut Conn,
    probes: &FramePool,
    totals: &[u64],
) -> io::Result<(Vec<f64>, u64)> {
    let flushes: Vec<Vec<u8>> = totals
        .iter()
        .map(|&expected_total| frame(&Msg::Flush { expected_total }))
        .collect();
    let mut lat_ms = Vec::with_capacity(probes.len());
    let mut failed = 0;
    for (i, f) in probes.iter().enumerate() {
        let t0 = Instant::now();
        conn.send(f)?;
        let reply = conn.call(&flushes[i])?;
        lat_ms.push(t0.elapsed().as_nanos() as f64 / 1e6);
        if !matches!(reply, Msg::FlushAck { delivered, .. } if delivered == totals[i]) {
            failed += 1;
        }
    }
    Ok((lat_ms, failed))
}

/// Restart on a populated data directory and wait until the daemon answers
/// again with everything it had: the time from spawn until `Hello` stops
/// being refused with `RECOVERING` and `Flush(0)` reports each
/// computation's full delivered count.
pub fn recover(
    launch: &Launch,
    tag: &str,
    data_dir: &Path,
    comps: &[Comp],
) -> io::Result<(DaemonProc, f64, Ops)> {
    let hellos: Vec<Vec<u8>> = comps
        .iter()
        .map(|c| hello_frame(&c.name, c.num_processes()))
        .collect();
    let flushes: Vec<Vec<u8>> = comps
        .iter()
        .map(|c| {
            frame(&Msg::Flush {
                expected_total: c.num_events(),
            })
        })
        .collect();
    let proto = frame(&Msg::ProtoHello {
        protocol_max: wire::PROTOCOL,
        wal_max: wire::WAL_FORMAT,
    });
    let mut ops = Ops::default();
    let t0 = Instant::now();
    let daemon = DaemonProc::spawn(launch, tag, Some(data_dir))?;
    let mut conn = Conn::connect(daemon.addr)?;
    loop {
        let reply = conn.call(&proto)?;
        if !is_recovering(&reply) {
            break;
        }
        if t0.elapsed() > Duration::from_secs(120) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "recovery stalled"));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    for ((comp, hello), flush) in comps.iter().zip(&hellos).zip(&flushes) {
        let opened = conn.call(hello)?;
        let flushed = conn.call(flush)?;
        let ok = matches!(opened, Msg::HelloAck { existing: true, .. })
            && matches!(flushed, Msg::FlushAck { delivered, .. } if delivered == comp.num_events());
        if !ok {
            eprintln!(
                "[cts-benchmark] {}: after restart Hello gave {opened:?}, Flush gave {flushed:?}, \
                 expected {} events",
                comp.name,
                comp.num_events()
            );
        }
        ops.add(2, u64::from(!ok));
    }
    Ok((daemon, t0.elapsed().as_secs_f64(), ops))
}

pub fn precedes_answers(replies: &[Msg]) -> Vec<Option<bool>> {
    replies
        .iter()
        .map(|m| match m {
            Msg::PrecedesResult { precedes, .. } => Some(*precedes),
            _ => None,
        })
        .collect()
}

pub fn gc_answers(replies: Vec<Msg>) -> Vec<Option<GcSlots>> {
    replies
        .into_iter()
        .map(|m| match m {
            Msg::GcResult { slots, .. } => Some(slots),
            _ => None,
        })
        .collect()
}
