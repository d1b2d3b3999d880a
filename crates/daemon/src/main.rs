//! The `cts-daemon` binary: bind, serve, wait for a shutdown request
//! (delivered over the wire), drain, exit.
//!
//! ```text
//! cts-daemon [--host 127.0.0.1] [--port 4650] [--port-file PATH]
//!            [--pollers N] [--max-conns N]
//!            [--queue-capacity 64] [--epoch-every 4096]
//!            [--data-dir PATH] [--sync-window-ms 5] [--checkpoint-every N]
//!            [--retain-epochs 8] [--retain-bytes B]
//! ```
//!
//! The network transport is chosen by platform: the epoll poller pool on
//! Linux, thread-per-connection elsewhere — and, automatically, on Linux
//! too if epoll set-up fails. `--pollers N` sizes the pool (0 = one per
//! core, capped at 4), and `--max-conns N` bounds the thread transport's
//! connection threads (excess connections are refused with `OVERLOADED`
//! rather than aborting on spawn failure).
//!
//! `--port 0` binds an ephemeral port; `--port-file` writes the resolved
//! port as decimal text once listening (how scripts/check.sh finds the
//! daemon it just launched). Status goes to stderr; stdout carries only the
//! `listening on ...` line for interactive use.
//!
//! `--data-dir` turns on durability: delivered events are write-ahead
//! logged and checkpointed under PATH, and a restarted daemon recovers its
//! computations from there before serving (clients see `RECOVERING` in the
//! meantime). Without it the daemon is fully in-memory.
//!
//! `--adaptive SPEC` switches every computation to online adaptive
//! re-clustering. SPEC uses the strategy-grammar suffix
//! `<maxCS>[@tau][/m]` (e.g. `8@0.5/3`); the `maxCS` part is overridden by
//! each computation's `Hello`, the `@tau` merge threshold and `/m`
//! migrate-after knobs apply daemon-wide.
//!
//! `--shards N` runs every computation on N ingest shards (`1` = the
//! classic single-worker pipeline); `--shards auto` enables live shard
//! autoscaling — start at 2 and let the placement engine split hot shards
//! and retire cold ones from per-shard occupancy EWMAs, with no
//! stop-the-world freeze. `--balance` steals clusters between shards at a
//! fixed count (implied by `auto`), and `--pin-cores` pins shard workers,
//! network pollers, and the WAL group-commit clock to topology-chosen CPUs
//! (distinct cores, shards grouped by LLC/NUMA node; Linux sysfs only —
//! silently unpinned elsewhere).

use cts_core::strategy::StrategySpec;
use cts_daemon::server::{Daemon, DaemonConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: cts-daemon [--host HOST] [--port PORT] [--port-file PATH]\n\
         \x20                 [--pollers N] [--max-conns N]\n\
         \x20                 [--queue-capacity N] [--epoch-every N]\n\
         \x20                 [--data-dir PATH] [--sync-window-ms N]\n\
         \x20                 [--checkpoint-every N] [--query-workers N]\n\
         \x20                 [--follow HOST:PORT]\n\
         \x20                 [--retain-epochs N] [--retain-bytes B]\n\
         \x20                 [--adaptive maxCS[@tau][/m]]\n\
         \x20                 [--shards N|auto] [--balance] [--pin-cores]"
    );
    std::process::exit(2);
}

fn main() {
    let mut host = "127.0.0.1".to_string();
    let mut port: u16 = 4650;
    let mut port_file: Option<String> = None;
    let mut config = DaemonConfig::default();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--host" => host = value(&mut i),
            "--port" => port = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--port-file" => port_file = Some(value(&mut i)),
            "--pollers" => config.pollers = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-conns" => {
                config.max_conn_threads = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--queue-capacity" => {
                config.queue_capacity = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--epoch-every" => {
                config.epoch_every = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--flush-timeout-secs" => {
                config.flush_timeout =
                    Duration::from_secs(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--data-dir" => config.data_dir = Some(value(&mut i).into()),
            "--sync-window-ms" => {
                config.sync_window =
                    Duration::from_millis(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--checkpoint-every" => {
                config.checkpoint_every = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--query-workers" => {
                config.query_workers = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--follow" => config.follow = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--retain-epochs" => {
                config.retain_epochs = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--retain-bytes" => {
                config.retain_bytes = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--adaptive" => {
                let spec = value(&mut i);
                match format!("adaptive:{spec}").parse::<StrategySpec>() {
                    Ok(StrategySpec::Adaptive { params }) => config.adaptive = Some(params),
                    _ => {
                        eprintln!("bad --adaptive spec {spec:?} (want maxCS[@tau][/m])");
                        usage();
                    }
                }
            }
            "--shards" => {
                let spec = value(&mut i);
                if spec == "auto" {
                    config.shards = 2;
                    config.auto_scale = true;
                } else {
                    match spec.parse::<u32>() {
                        Ok(n) if n >= 1 => config.shards = n,
                        _ => {
                            eprintln!("bad --shards {spec:?} (want a count >= 1 or 'auto')");
                            usage();
                        }
                    }
                }
            }
            "--balance" => config.balance = true,
            "--pin-cores" => config.pin_cores = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    config.addr = match format!("{host}:{port}").parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bad --host/--port: {e}");
            std::process::exit(2);
        }
    };

    let daemon = match Daemon::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cts-daemon: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = daemon.local_addr();
    println!("listening on {addr}");
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", addr.port())) {
            eprintln!("cts-daemon: cannot write port file {path}: {e}");
            daemon.shutdown();
            std::process::exit(1);
        }
    }
    eprintln!("[cts-daemon] serving; send the wire Shutdown message to stop");
    daemon.wait_for_shutdown_request();
    eprintln!("[cts-daemon] shutdown requested; draining");
    daemon.shutdown();
    eprintln!("[cts-daemon] bye");
}
