//! `--pin-cores` places threads only on CPUs of the daemon's own mask.
//!
//! A helper thread pins itself to one CPU and starts a real `cts-daemon
//! --shards 2 --pollers 2 --pin-cores` from there, so the child inherits a
//! one-CPU mask. After a sharded computation has streamed and flushed,
//! every thread of the child must still be allowed on that CPU alone, and
//! `QueryPlacement` must report every shard worker pinned.
#![cfg(target_os = "linux")]

use cts_daemon::netpoll::{current_affinity, pin_current_thread};
use cts_daemon::Client;
use cts_workloads::{spmd::Stencil1D, Workload};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the daemon if the test fails before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn wait_for_port(port_file: &Path) -> SocketAddr {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(port) = std::fs::read_to_string(port_file)
            .ok()
            .and_then(|s| s.trim().parse::<u16>().ok())
        {
            return SocketAddr::from(([127, 0, 0, 1], port));
        }
        assert!(Instant::now() < deadline, "cts-daemon wrote no port file");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `(thread name, Cpus_allowed_list)` for every thread of `pid`.
fn thread_masks(pid: u32) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).expect("task dir") {
        let Ok(status) = std::fs::read_to_string(task.expect("task").path().join("status")) else {
            continue; // the thread exited while we listed it
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
                .unwrap_or_default()
        };
        out.push((field("Name:"), field("Cpus_allowed_list:")));
    }
    out
}

#[test]
fn pin_cores_keeps_every_thread_inside_the_process_mask() {
    let mask = current_affinity().expect("read this thread's CPU mask");
    if mask.len() < 2 {
        eprintln!(
            "skipped: this test's CPU mask {mask:?} has fewer than 2 CPUs, so a \
             one-CPU child mask could not tell a mask-bound plan from a machine-wide one"
        );
        return;
    }
    let cpu = *mask.last().unwrap();
    let dir: PathBuf = std::env::temp_dir().join(format!("cts-pin-mask-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let log = dir.join("stderr.log");

    let spawn = {
        let (port_file, log) = (port_file.clone(), log.clone());
        std::thread::spawn(move || {
            pin_current_thread(cpu).expect("pin the helper thread");
            Command::new(env!("CARGO_BIN_EXE_cts-daemon"))
                .args([
                    "--shards",
                    "2",
                    "--pollers",
                    "2",
                    "--pin-cores",
                    "--port",
                    "0",
                ])
                .arg("--port-file")
                .arg(&port_file)
                .stdout(Stdio::null())
                .stderr(std::fs::File::create(&log).unwrap())
                .spawn()
        })
    };
    let mut daemon = Daemon(spawn.join().unwrap().expect("spawn cts-daemon"));
    let pid = daemon.0.id();
    let addr = wait_for_port(&port_file);

    let t = Stencil1D {
        procs: 8,
        iters: 12,
    }
    .generate(3);
    let mut client = Client::connect(addr).expect("connect");
    client.proto_hello().expect("negotiate");
    client
        .hello("pin-mask", t.num_processes(), 4)
        .expect("hello");
    client.stream_events(t.events(), 32).expect("stream");
    client.flush(t.num_events() as u64).expect("flush");
    let placement = client.placement().expect("placement");

    let masks = thread_masks(pid);
    let stderr = || std::fs::read_to_string(&log).unwrap_or_default();
    let shard_threads = masks
        .iter()
        .filter(|(n, _)| n.starts_with("shard-"))
        .count();
    assert_eq!(shard_threads, 2, "threads {masks:?}\nstderr: {}", stderr());
    let want = cpu.to_string();
    for (name, allowed) in &masks {
        assert_eq!(
            allowed,
            &want,
            "thread {name:?} left the one-CPU mask: {masks:?}\nstderr: {}",
            stderr()
        );
    }
    assert_eq!(placement.shards, 2);
    assert!(
        placement.pinned,
        "every pin call succeeded, yet pinned is false\nstderr: {}",
        stderr()
    );

    client.shutdown_daemon().expect("shutdown");
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon.0.try_wait().unwrap().is_none() {
        assert!(Instant::now() < deadline, "cts-daemon did not exit");
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
