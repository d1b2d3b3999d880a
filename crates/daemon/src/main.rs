//! The `cts-daemon` binary: bind, serve, wait for a shutdown request
//! (delivered over the wire), drain, exit.
//!
//! ```text
//! cts-daemon [--host 127.0.0.1] [--port 4650] [--port-file PATH]
//!            [--pollers N]
//!            [--queue-capacity 64] [--epoch-every 4096]
//!            [--flush-timeout-secs 60]
//!            [--data-dir PATH] [--sync-window-ms 5] [--checkpoint-every N]
//!            [--follow HOST:PORT]
//!            [--retain-epochs N] [--retain-bytes B]
//!            [--adaptive maxCS[@tau][/m]]
//!            [--shards N|auto] [--balance] [--pin-cores] [--help]
//! ```
//!
//! Connections are served by an epoll poller pool, so the daemon serves on
//! Linux only: elsewhere, or if epoll set-up fails, it exits 1 with the
//! reason. `--pollers N` sizes the pool (0 = one per core, capped at 4).
//!
//! `--port 0` binds an ephemeral port; `--port-file` writes the resolved
//! port as decimal text once listening (how scripts/check.sh finds the
//! daemon it just launched). Status goes to stderr; stdout carries only the
//! `listening on ...` line for interactive use.
//!
//! `--flush-timeout-secs` bounds how long a `Flush` barrier waits before
//! reporting a stall. `--follow HOST:PORT` makes the daemon a read-only
//! follower that replicates that leader's computations. Batched queries are
//! answered on the poller that decoded them; there is no query thread to
//! size.
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
//! fixed count (implied by `auto`), and `--pin-cores` pins shard workers
//! and network pollers to CPUs of the process's own CPU mask (shards from
//! its front, pollers from its back; a failed pin is logged and leaves
//! `QueryPlacement.pinned` false).

use cts_core::strategy::StrategySpec;
use cts_daemon::server::{Daemon, DaemonConfig};
use std::time::Duration;

const USAGE: &str = "usage: cts-daemon [--host HOST] [--port PORT] [--port-file PATH]
                  [--pollers N]
                  [--queue-capacity N] [--epoch-every N]
                  [--flush-timeout-secs N]
                  [--data-dir PATH] [--sync-window-ms N]
                  [--checkpoint-every N] [--follow HOST:PORT]
                  [--retain-epochs N] [--retain-bytes B]
                  [--adaptive maxCS[@tau][/m]]
                  [--shards N|auto] [--balance] [--pin-cores] [--help]";

fn usage() -> ! {
    eprintln!("{USAGE}");
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
            eprintln!("cts-daemon: cannot serve: {e}");
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    /// The `--flag`s bracketed in `text` (`[--flag ...]` or `[--flag]`).
    fn listed(text: &str) -> BTreeSet<&str> {
        text.split('[')
            .filter_map(|item| item.split([' ', ']']).next())
            .filter(|flag| flag.starts_with("--"))
            .collect()
    }

    /// `USAGE`, the module doc's synopsis and `main`'s match arms name the
    /// same flags: a parsed flag cannot go undocumented, and a deleted one
    /// cannot linger in the docs.
    #[test]
    fn usage_synopsis_and_parser_name_the_same_flags() {
        let source = include_str!("main.rs");
        let synopsis = source.split("```").nth(1).expect("module doc synopsis");
        let parsed: BTreeSet<&str> = source
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix('"'))
            .filter_map(|l| l.split('"').next())
            .filter(|flag| flag.starts_with("--"))
            .collect();
        assert!(parsed.contains("--port"), "parsed flags: {parsed:?}");
        assert_eq!(listed(super::USAGE), parsed, "USAGE against main's match");
        assert_eq!(listed(synopsis), parsed, "synopsis against main's match");
    }
}
