//! The system under test as a child process, and a raw wire connection to
//! it that sends pre-encoded frames.

use crate::host::{self, Placement};
use cts_daemon::wire::{self, code, Msg};
use std::fs::{self, File};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Cluster-size bound every computation is opened with (the value the
/// repository's own load generator and benches use).
pub const MAX_CLUSTER_SIZE: u32 = 8;

/// How the daemon is launched for one workload.
#[derive(Clone, Debug)]
pub struct Launch {
    pub bin: PathBuf,
    /// Private directory for port files, data directories and stderr logs.
    pub work: PathBuf,
    pub placement: Placement,
    /// Whether `taskset` is available to confine the child.
    pub taskset: bool,
    /// Extra daemon arguments of the workload (`--shards 2`, ...).
    pub args: Vec<String>,
}

/// A running daemon child. Dropping it kills the child and waits for it, so
/// a panic or an early return never leaks a process.
pub struct DaemonProc {
    child: Child,
    pub addr: SocketAddr,
}

impl DaemonProc {
    /// Start the daemon (durable iff `data_dir` is given) and wait for its
    /// port file. `tag` names the port file and the stderr log
    /// (`<tag>.stderr.log`, kept under `results/` when the workload fails).
    pub fn spawn(launch: &Launch, tag: &str, data_dir: Option<&Path>) -> io::Result<DaemonProc> {
        let port_file = launch.work.join(format!("{tag}.port"));
        let stderr_path = launch.work.join(format!("{tag}.stderr.log"));
        let _ = fs::remove_file(&port_file);
        let mut cmd = if launch.taskset {
            let mut c = Command::new("taskset");
            c.arg("-c")
                .arg(launch.placement.daemon_cpu_list())
                .arg(&launch.bin);
            c
        } else {
            Command::new(&launch.bin)
        };
        cmd.args(["--port", "0", "--port-file"]).arg(&port_file);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        cmd.args(&launch.args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(&stderr_path)?);
        let child = cmd.spawn()?;
        // From here the guard owns the child: every error path below kills it.
        let mut proc = DaemonProc {
            child,
            addr: "127.0.0.1:0".parse().expect("static addr"),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            // The daemon writes the file in one call, newline last.
            if let Ok(text) = fs::read_to_string(&port_file) {
                if let Some(port) = text.strip_suffix('\n').and_then(|p| p.parse::<u16>().ok()) {
                    proc.addr = SocketAddr::from(([127, 0, 0, 1], port));
                    return Ok(proc);
                }
            }
            if let Some(status) = proc.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "daemon exited before listening: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon did not write its port file",
                ));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn cpu_seconds(&self) -> io::Result<f64> {
        host::process_cpu_seconds(self.pid())
    }

    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        host::process_peak_rss_mib(self.pid())
    }

    /// `SIGKILL` the child and reap it.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One message as the bytes of its frame.
pub fn frame(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_msg(&mut out, msg).expect("writing to a Vec cannot fail");
    out
}

/// Many encoded frames in one buffer: built before a timed phase, sliced
/// during it.
#[derive(Default)]
pub struct FramePool {
    buf: Vec<u8>,
    ends: Vec<usize>,
}

impl FramePool {
    pub fn push(&mut self, frame: &[u8]) {
        self.buf.extend_from_slice(frame);
        self.ends.push(self.buf.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }

    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// A blocking connection that writes caller-encoded frames, so nothing is
/// encoded inside a timed phase.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged daemon must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(90)))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
        })
    }

    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)
    }

    pub fn recv(&mut self) -> io::Result<Msg> {
        wire::read_msg(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })
    }

    pub fn call(&mut self, frame: &[u8]) -> io::Result<Msg> {
        self.send(frame)?;
        self.recv()
    }

    pub fn proto_hello(&mut self) -> io::Result<()> {
        let msg = Msg::ProtoHello {
            protocol_max: wire::PROTOCOL,
            wal_max: wire::WAL_FORMAT,
        };
        match self.call(&frame(&msg))? {
            Msg::ProtoHelloAck { .. } => Ok(()),
            other => Err(unexpected("ProtoHello", &other)),
        }
    }

    /// `Flush` barrier; returns the delivered count.
    pub fn flush(&mut self, expected_total: u64) -> io::Result<u64> {
        match self.call(&frame(&Msg::Flush { expected_total }))? {
            Msg::FlushAck { delivered, .. } => Ok(delivered),
            other => Err(unexpected("Flush", &other)),
        }
    }
}

pub fn hello_frame(computation: &str, num_processes: u32) -> Vec<u8> {
    frame(&Msg::Hello {
        computation: computation.to_string(),
        num_processes,
        max_cluster_size: MAX_CLUSTER_SIZE,
    })
}

pub fn unexpected(what: &str, got: &Msg) -> io::Error {
    let text = match got {
        Msg::Error { code, message } => format!("{what}: daemon error {code}: {message}"),
        other => format!("{what}: unexpected reply {other:?}"),
    };
    io::Error::new(io::ErrorKind::InvalidData, text)
}

/// Is this reply the daemon saying it is still replaying its log?
pub fn is_recovering(msg: &Msg) -> bool {
    matches!(msg, Msg::Error { code: c, .. } if *c == code::RECOVERING)
}
