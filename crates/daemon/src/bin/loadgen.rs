//! The `cts-loadgen` binary: replay the workload suite against a daemon as
//! concurrent client streams, differentially check every answer, and report
//! throughput/latency in the `cts-bench/1` JSON schema.
//!
//! ```text
//! cts-loadgen [--addr HOST:PORT] [--connections 8] [--seed 1]
//!             [--max-cluster-size 8] [--shards N] [--quick | --smoke]
//!             [--net-threads] [--pollers N] [--c10k N] [--c10k-bench]
//!             [--window-page N] [--json PATH] [--shutdown]
//!             [--data-dir PATH] [--checkpoint-every N]
//!             [--kill-after N [--restart]]
//!             [--followers N | --follower-addr HOST:PORT ...]
//!             [--epoch-every N] [--asof-epochs N]
//!             [--replay-as STRATEGY:MAXCS] [--wait-ready SECS]
//! ```
//!
//! Without `--addr`, an in-process daemon is started on an ephemeral
//! loopback port and shut down afterwards (the self-contained mode
//! `scripts/check.sh` uses for its mini-suite differential run). With
//! `--addr`, the load is aimed at an already-running daemon; add
//! `--shutdown` to send the wire Shutdown message at the end.
//!
//! `--quick` uses the reduced mini suite; `--smoke` streams a single SPMD
//! computation with a handful of queries (the CI liveness check). The
//! default replays the full 54-computation standard suite. Exit status is
//! non-zero on any differential mismatch.
//!
//! `--shards N` runs each computation's ingest path on N shard workers
//! (parallel causal delivery per process group); the differential checks
//! are unchanged, so this doubles as the sharded full-suite soak. Only
//! meaningful for the in-process daemon. `--shards auto` enables live
//! shard autoscaling instead of a fixed count (`--balance` steals clusters
//! at a fixed count, `--pin-cores` pins workers to topology-chosen CPUs),
//! and `--shards 0` or a non-numeric count is an argument error (exit 2).
//!
//! `--place` switches to the shard-autoscaling soak (PR 10): planted
//! hot-group fixtures are streamed through an in-process `--shards auto`
//! daemon (or an external `--addr` daemon started with one), the
//! `QueryPlacement` verb is sampled mid-stream, and the full differential
//! suite re-verifies every answer over the same computations. Exit status
//! is non-zero on any mismatch *or* if no autoscale action fired — a dead
//! autoscaler fails the soak even when the answers are right.
//!
//! `--window-page N` sets the page size of the window-scroll checks (0 =
//! the server's default cap); the small default forces the continuation
//! cursor through several round trips per scroll.
//!
//! `--net-threads` runs the in-process daemon on the thread-per-connection
//! backend (the differential oracle for the default epoll front end);
//! `--pollers N` sizes the epoll poller pool. `--c10k N` opens N idle
//! connections *first* and holds them through the whole differential run —
//! the capacity soak: every answer must stay correct while the daemon
//! carries them. `--c10k-bench` skips the suite and instead measures the
//! idle CPU and per-connection memory of both backends, emitting the
//! `daemon_ingest/c10k_*` entries `scripts/bench_gate.py --require-ratio`
//! gates on.
//!
//! `--followers N` spawns N in-process *follower* daemons replicating the
//! leader over the `Subscribe` WAL stream (requires a durable leader:
//! `--data-dir` in-process, or an external `--addr` leader started with
//! one); `--follower-addr HOST:PORT` (repeatable) aims at already-running
//! followers instead. Either way the differential query suite is fanned
//! across the fleet after a convergence barrier, and the
//! `repl/warm_batch_{leader,fleet}` benchmark pair records the read
//! scale-out ratio `scripts/bench_gate.py --require-ratio` gates on.
//!
//! `--asof-epochs N` adds the time-travel phase (PR 8): after the head
//! differential checks, up to N *historical* retained epochs per
//! computation are pulled back over `ReplayInterval`, re-timestamped
//! offline, and the `QueryAsOf*` answers at each epoch checked against
//! that prefix engine. `--replay-as STRATEGY:MAXCS` (grammar of
//! [`cts_core::StrategySpec`]: `merge1st:N`, `mergeNth:N[@tau]`,
//! `never[:N]`) replays the newest retained epoch of every computation
//! and re-clusters it offline under a different strategy, reporting the
//! paper's stamp-size/ratio deltas against the serving strategy.
//! `--epoch-every N` sets the in-process daemon's publish cadence — small
//! values retain many epochs, which is what makes those two phases (and
//! the retention-cycling soak) bite.
//!
//! `--wait-ready SECS` (external `--addr` daemons) polls a session-free
//! `ProtoHello` until the daemon stops answering `RECOVERING`, so a
//! crash/restart CI stage can gate the load run on recovery completing.
//!
//! `--data-dir` makes the in-process daemon durable (write-ahead log +
//! checkpoints under PATH). `--kill-after N` switches to the crash-replay
//! scenario: stream ~N events, crash-stop the daemon (no final sync or
//! checkpoint), and — with `--restart` — start a fresh daemon on the same
//! data directory, wait for recovery, re-stream the full suite, and run
//! the standard differential checks, which must report zero mismatches.
//!
//! `--drift` switches to the adaptive re-clustering soak (PR 9): the
//! planted-drift fixtures are streamed through an *adaptive* in-process
//! daemon (or an external `--addr` daemon started with `--adaptive`),
//! segmented at their planted phase boundaries so the reported
//! cluster-receive-ratio curves line up with the plants, then the full
//! differential suite (including `--asof-epochs` time travel) re-verifies
//! every answer. Exit status is non-zero on any mismatch *or* if a fixture
//! finished without a single drift migration — a dead detector fails the
//! soak even when the answers are right. Unless `--max-cluster-size` is
//! given, the soak uses 12 (the phase-stencil fixture's blocks are 8 wide,
//! and a migration needs room in the destination cluster).

use cts_daemon::loadgen::{self, LoadConfig};
use cts_daemon::server::{Daemon, DaemonConfig};
use cts_daemon::Client;
use cts_util::bench::Bencher;
use cts_workloads::suite::{mini_suite, standard_suite, SuiteEntry};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: cts-loadgen [--addr HOST:PORT] [--connections N] [--seed N]\n\
         \x20                  [--max-cluster-size N]\n\
         \x20                  [--net-threads] [--pollers N]\n\
         \x20                  [--c10k N] [--c10k-bench]\n\
         \x20                  [--quick | --smoke] [--window-page N]\n\
         \x20                  [--json PATH] [--shutdown]\n\
         \x20                  [--data-dir PATH] [--checkpoint-every N]\n\
         \x20                  [--kill-after N [--restart]]\n\
         \x20                  [--followers N | --follower-addr HOST:PORT ...]\n\
         \x20                  [--epoch-every N] [--asof-epochs N]\n\
         \x20                  [--replay-as STRATEGY:MAXCS] [--batch N]\n\
         \x20                  [--wait-ready SECS] [--drift] [--place]\n\
         \x20                  [--shards N|auto] [--balance] [--pin-cores]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr: Option<std::net::SocketAddr> = None;
    let mut json: Option<String> = None;
    let mut quick = false;
    let mut smoke = false;
    let mut send_shutdown = false;
    let mut data_dir: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut kill_after: Option<u64> = None;
    let mut restart = false;
    let mut shards: Option<u32> = None;
    let mut net_threads = false;
    let mut pollers: Option<usize> = None;
    let mut c10k: usize = 0;
    let mut c10k_bench = false;
    let mut followers: usize = 0;
    let mut epoch_every: Option<u64> = None;
    let mut replay_as: Option<cts_core::StrategySpec> = None;
    let mut wait_ready: Option<u64> = None;
    let mut drift_soak = false;
    let mut place_soak = false;
    let mut auto_scale = false;
    let mut balance = false;
    let mut pin_cores = false;
    let mut mcs_set = false;
    let mut cfg = LoadConfig::default();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            // Parse eagerly: a malformed address is an argument error
            // (exit 2 + usage), not something to discover after the
            // in-process-vs-external decision has already been made.
            "--addr" => {
                let raw = value(&mut i);
                addr = match raw.parse() {
                    Ok(a) => Some(a),
                    Err(e) => {
                        eprintln!("cts-loadgen: bad --addr {raw:?}: {e}");
                        usage();
                    }
                }
            }
            "--connections" => cfg.connections = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--batch" => cfg.batch = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-cluster-size" => {
                mcs_set = true;
                cfg.max_cluster_size = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--window-page" => cfg.window_page = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--json" => json = Some(value(&mut i)),
            "--shutdown" => send_shutdown = true,
            "--data-dir" => data_dir = Some(value(&mut i)),
            "--checkpoint-every" => {
                checkpoint_every = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--kill-after" => kill_after = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            // `--shards 0` and non-numeric counts are argument errors (exit
            // 2 + usage), not panics; `auto` turns on live autoscaling.
            "--shards" => {
                let raw = value(&mut i);
                if raw == "auto" {
                    shards = Some(2);
                    auto_scale = true;
                } else {
                    match raw.parse::<u32>() {
                        Ok(n) if n >= 1 => shards = Some(n),
                        _ => {
                            eprintln!(
                                "cts-loadgen: bad --shards {raw:?} (want a count >= 1 or 'auto')"
                            );
                            usage();
                        }
                    }
                }
            }
            "--pin-cores" => pin_cores = true,
            "--balance" => balance = true,
            "--place" => place_soak = true,
            "--net-threads" => net_threads = true,
            "--pollers" => pollers = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--c10k" => c10k = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--c10k-bench" => c10k_bench = true,
            "--followers" => followers = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--follower-addr" => {
                let raw = value(&mut i);
                match raw.parse() {
                    Ok(a) => cfg.follower_addrs.push(a),
                    Err(e) => {
                        eprintln!("cts-loadgen: bad --follower-addr {raw:?}: {e}");
                        usage();
                    }
                }
            }
            "--restart" => restart = true,
            "--epoch-every" => {
                epoch_every = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--asof-epochs" => cfg.asof_epochs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--wait-ready" => wait_ready = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--drift" => drift_soak = true,
            "--replay-as" => {
                let raw = value(&mut i);
                replay_as = match raw.parse() {
                    Ok(spec) => Some(spec),
                    Err(e) => {
                        eprintln!("cts-loadgen: bad --replay-as: {e}");
                        usage();
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    let suite: Vec<SuiteEntry> = if smoke {
        let mut s = standard_suite();
        s.truncate(1);
        s
    } else if quick {
        mini_suite()
    } else {
        standard_suite()
    };
    if smoke {
        cfg.precedence_queries = 25;
        cfg.gc_probes = 1;
    } else if quick {
        cfg.precedence_queries = 50;
    }
    if !drift_soak && !place_soak {
        eprintln!(
            "[cts-loadgen] {} computations, {} events, {} connections",
            suite.len(),
            suite.iter().map(|e| e.trace.num_events()).sum::<usize>(),
            cfg.connections
        );
    }

    let mut daemon_cfg = DaemonConfig::default();
    if let Some(dir) = &data_dir {
        daemon_cfg.data_dir = Some(dir.into());
    }
    if let Some(n) = checkpoint_every {
        daemon_cfg.checkpoint_every = n;
    }
    if net_threads {
        daemon_cfg.net = cts_daemon::server::NetBackend::Threads;
    }
    if let Some(n) = epoch_every {
        if addr.is_some() {
            eprintln!("cts-loadgen: --epoch-every configures the in-process daemon; drop --addr");
            std::process::exit(2);
        }
        daemon_cfg.epoch_every = n;
    }
    if let Some(n) = pollers {
        daemon_cfg.pollers = n;
    }
    if let Some(n) = shards {
        if addr.is_some() {
            eprintln!("cts-loadgen: --shards configures the in-process daemon; drop --addr");
            std::process::exit(2);
        }
        daemon_cfg.shards = n;
    }
    daemon_cfg.auto_scale = auto_scale;
    daemon_cfg.balance = balance;
    daemon_cfg.pin_cores = pin_cores;
    if (net_threads || pollers.is_some()) && addr.is_some() {
        eprintln!(
            "cts-loadgen: --net-threads/--pollers configure the in-process daemon; drop --addr"
        );
        std::process::exit(2);
    }
    if followers > 0 && !cfg.follower_addrs.is_empty() {
        eprintln!("cts-loadgen: pick one of --followers (in-process) or --follower-addr");
        std::process::exit(2);
    }
    if followers > 0 && addr.is_none() && data_dir.is_none() {
        eprintln!(
            "cts-loadgen: --followers needs a durable leader; add --data-dir (the \
             WAL is the replication stream)"
        );
        std::process::exit(2);
    }
    if (followers > 0 || !cfg.follower_addrs.is_empty()) && (kill_after.is_some() || c10k_bench) {
        eprintln!("cts-loadgen: follower fleets do not combine with --kill-after/--c10k-bench");
        std::process::exit(2);
    }

    // Backend idle-cost comparison: measure, optionally record, exit.
    if c10k_bench {
        let entries = match loadgen::c10k_bench_entries(5000, 500, Duration::from_secs(2)) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("cts-loadgen: c10k bench failed: {e}");
                std::process::exit(1);
            }
        };
        if let Some(path) = &json {
            let mut bencher = Bencher::quick();
            for entry in entries {
                bencher.record_entry(entry);
            }
            if let Err(e) = std::fs::write(path, bencher.to_json()) {
                eprintln!("cts-loadgen: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("[cts-loadgen] wrote {path}");
        }
        return;
    }

    // Crash-replay scenario: partial stream → crash-stop → restart →
    // recover → re-stream → differential check.
    if let Some(n) = kill_after {
        if addr.is_some() {
            eprintln!("cts-loadgen: --kill-after runs an in-process daemon; drop --addr");
            std::process::exit(2);
        }
        if data_dir.is_none() {
            eprintln!("cts-loadgen: --kill-after requires --data-dir");
            std::process::exit(2);
        }
        match loadgen::run_crash_replay(&suite, &cfg, daemon_cfg, n, restart) {
            Ok(None) => {
                eprintln!(
                    "[cts-loadgen] crash-stopped without --restart; data dir left \
                     for inspection"
                );
            }
            Ok(Some(report)) => {
                println!("{}", report.render());
                if report.mismatches > 0 {
                    eprintln!(
                        "cts-loadgen: {} differential mismatches after crash recovery",
                        report.mismatches
                    );
                    std::process::exit(1);
                }
                eprintln!("[cts-loadgen] crash replay clean: 0 mismatches after recovery");
            }
            Err(e) => {
                eprintln!("cts-loadgen: crash replay failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Adaptive re-clustering soak: planted-drift fixtures through an
    // adaptive daemon, curves sampled at the plants, differential oracle
    // plus detector-liveness gate.
    if drift_soak {
        if kill_after.is_some() || followers > 0 || !cfg.follower_addrs.is_empty() {
            eprintln!("cts-loadgen: --drift does not combine with --kill-after/--followers");
            std::process::exit(2);
        }
        if !mcs_set {
            // The phase-stencil fixture's blocks are 8 wide; a migration
            // needs headroom in the destination cluster, so the default
            // max cluster size of 8 would pin every process in place.
            cfg.max_cluster_size = 12;
        }
        let own = match addr {
            None => {
                daemon_cfg.adaptive = Some(cts_core::cluster::AdaptiveParams::new(
                    cfg.max_cluster_size as usize,
                ));
                let daemon = match Daemon::start(daemon_cfg) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("cts-loadgen: cannot start in-process daemon: {e}");
                        std::process::exit(1);
                    }
                };
                cfg.addr = daemon.local_addr();
                eprintln!("[cts-loadgen] in-process adaptive daemon on {}", cfg.addr);
                Some(daemon)
            }
            Some(a) => {
                // An external daemon must itself be started with
                // `--adaptive`; a merge-only daemon passes the oracle but
                // fails the detector-liveness gate below.
                cfg.addr = a;
                None
            }
        };
        let report = match cts_daemon::drift::run_drift_soak(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cts-loadgen: drift soak failed: {e}");
                std::process::exit(1);
            }
        };
        println!("{}", report.render());
        if send_shutdown {
            let r = Client::connect(cfg.addr).and_then(|mut c| c.shutdown_daemon());
            if let Err(e) = r {
                eprintln!("cts-loadgen: shutdown request failed: {e}");
            }
        }
        if let Some(daemon) = own {
            daemon.shutdown();
        }
        if !report.passed() {
            eprintln!(
                "cts-loadgen: drift soak FAILED ({} mismatches, undetected {:?})",
                report.load.mismatches, report.undetected
            );
            std::process::exit(1);
        }
        eprintln!(
            "[cts-loadgen] drift soak clean: 0 mismatches, {} migrations",
            report.migrations
        );
        return;
    }

    // Shard-autoscaling soak: planted hot-group fixtures through a
    // `--shards auto` daemon, placement sampled mid-stream, differential
    // oracle plus autoscaler-liveness gate.
    if place_soak {
        if kill_after.is_some() || followers > 0 || !cfg.follower_addrs.is_empty() {
            eprintln!("cts-loadgen: --place does not combine with --kill-after/--followers");
            std::process::exit(2);
        }
        let own = match addr {
            None => {
                daemon_cfg.shards = daemon_cfg.shards.max(2);
                daemon_cfg.auto_scale = true;
                let daemon = match Daemon::start(daemon_cfg) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("cts-loadgen: cannot start in-process daemon: {e}");
                        std::process::exit(1);
                    }
                };
                cfg.addr = daemon.local_addr();
                eprintln!(
                    "[cts-loadgen] in-process autoscaling daemon on {}",
                    cfg.addr
                );
                Some(daemon)
            }
            Some(a) => {
                // An external daemon must itself be started with
                // `--shards auto`; a fixed-count daemon passes the oracle
                // but fails the liveness gate below.
                cfg.addr = a;
                None
            }
        };
        let report = match cts_daemon::place::run_place_soak(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cts-loadgen: place soak failed: {e}");
                std::process::exit(1);
            }
        };
        println!("{}", report.render());
        if send_shutdown {
            let r = Client::connect(cfg.addr).and_then(|mut c| c.shutdown_daemon());
            if let Err(e) = r {
                eprintln!("cts-loadgen: shutdown request failed: {e}");
            }
        }
        if let Some(daemon) = own {
            daemon.shutdown();
        }
        if !report.passed() {
            eprintln!(
                "cts-loadgen: place soak FAILED ({} mismatches, {} autoscale actions)",
                report.load.mismatches,
                report.rescales()
            );
            std::process::exit(1);
        }
        eprintln!(
            "[cts-loadgen] place soak clean: 0 mismatches, {} autoscale actions",
            report.rescales()
        );
        return;
    }

    // Aim at an external daemon, or run one in-process.
    let own_daemon = match addr {
        None => {
            let daemon = match Daemon::start(daemon_cfg) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cts-loadgen: cannot start in-process daemon: {e}");
                    std::process::exit(1);
                }
            };
            cfg.addr = daemon.local_addr();
            eprintln!("[cts-loadgen] in-process daemon on {}", cfg.addr);
            Some(daemon)
        }
        Some(a) => {
            cfg.addr = a;
            None
        }
    };

    // A freshly restarted durable daemon refuses every request with
    // RECOVERING while it replays on-disk state in the background;
    // --wait-ready polls a session-free ProtoHello (creates nothing on
    // the daemon) until it answers, so crash/restart CI stages can gate
    // on recovery without retry-looping the whole load run.
    if let Some(secs) = wait_ready {
        let deadline = std::time::Instant::now() + Duration::from_secs(secs);
        loop {
            let ready = Client::connect(cfg.addr)
                .and_then(|mut c| c.proto_hello())
                .is_ok();
            if ready {
                eprintln!("[cts-loadgen] daemon at {} is ready", cfg.addr);
                break;
            }
            if std::time::Instant::now() >= deadline {
                eprintln!(
                    "cts-loadgen: daemon at {} still not ready after {secs}s",
                    cfg.addr
                );
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    // In-process follower fleet: each follower replicates the leader into
    // its own data directory under a scratch root.
    let mut own_followers: Vec<Daemon> = Vec::new();
    let follower_root =
        std::env::temp_dir().join(format!("cts-loadgen-followers-{}", std::process::id()));
    if followers > 0 {
        match loadgen::spawn_followers(cfg.addr, followers, &follower_root) {
            Ok(ds) => {
                cfg.follower_addrs = ds.iter().map(|d| d.local_addr()).collect();
                eprintln!(
                    "[cts-loadgen] {} in-process followers replicating {}: {:?}",
                    ds.len(),
                    cfg.addr,
                    cfg.follower_addrs
                );
                own_followers = ds;
            }
            Err(e) => {
                eprintln!("cts-loadgen: cannot start followers: {e}");
                std::process::exit(1);
            }
        }
    }

    // C10K soak: hold a fleet of idle connections for the whole run, so
    // the differential suite below is answered *while* the daemon carries
    // them. Capacity plus correctness, not capacity instead of it.
    let held = if c10k > 0 {
        // Each held connection costs this process one fd (plus one in the
        // daemon, when it is in-process) — take the hard rlimit up front.
        #[cfg(target_os = "linux")]
        if let Ok(n) = cts_daemon::netpoll::raise_nofile_to_hard() {
            eprintln!("[cts-loadgen] fd limit raised to {n}");
        }
        eprintln!("[cts-loadgen] opening {c10k} idle connections to hold through the run");
        match loadgen::hold_idle_conns(cfg.addr, c10k) {
            Ok(h) => {
                eprintln!("[cts-loadgen] holding {} idle connections", h.len());
                h
            }
            Err(e) => {
                eprintln!("cts-loadgen: c10k connection hold failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        Vec::new()
    };

    let report = match loadgen::run(&suite, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cts-loadgen: load run failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", report.render());

    // Time-travel what-if: replay the newest retained epoch of every
    // computation and re-cluster it offline under a different strategy.
    if let Some(spec) = replay_as {
        match loadgen::run_replay_as(&suite, &cfg, spec) {
            Ok(reports) => {
                for r in &reports {
                    println!("[replay-as] {}", r.render());
                }
                if reports.is_empty() {
                    eprintln!("cts-loadgen: --replay-as found no retained epochs to replay");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("cts-loadgen: --replay-as failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Read scale-out measurement: the same warm batched-query workload
    // against the leader alone, then fanned across the followers.
    let mut fleet_entries = Vec::new();
    if !cfg.follower_addrs.is_empty() {
        match loadgen::fleet_bench_entries(&suite, &cfg, 4, 3) {
            Ok(entries) => {
                for e in &entries {
                    eprintln!(
                        "[cts-loadgen] repl/{}: min {:.1} ms over {} items",
                        e.name,
                        e.min_ns / 1e6,
                        e.iters_per_sample
                    );
                }
                fleet_entries = entries;
            }
            Err(e) => {
                eprintln!("cts-loadgen: fleet bench failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &json {
        let mut bencher = Bencher::quick();
        for entry in report.bench_entries() {
            bencher.record_entry(entry);
        }
        for entry in fleet_entries {
            bencher.record_entry(entry);
        }
        if addr.is_none() {
            // Shard-ingest scaling on the widest computations (the
            // in-process pipeline, so the TCP stack stays out of the
            // measurement): the `_s4` / `_s1` ratio in this report is the
            // ingest speedup the sharded runtime delivers on this host.
            eprintln!("[cts-loadgen] recording shard_ingest sweep (1/2/4 shards)");
            for entry in loadgen::shard_sweep_entries(&[1, 2, 4], 3) {
                bencher.record_entry(entry);
            }
        }
        if let Err(e) = std::fs::write(path, bencher.to_json()) {
            eprintln!("cts-loadgen: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[cts-loadgen] wrote {path}");
    }

    if !held.is_empty() {
        eprintln!(
            "[cts-loadgen] suite ran clean while {} idle connections were held",
            held.len()
        );
        drop(held);
    }

    for d in own_followers {
        d.shutdown();
    }
    if followers > 0 {
        let _ = std::fs::remove_dir_all(&follower_root);
    }
    if send_shutdown {
        let r = Client::connect(cfg.addr).and_then(|mut c| c.shutdown_daemon());
        match r {
            Ok(()) => eprintln!("[cts-loadgen] daemon acknowledged shutdown"),
            Err(e) => eprintln!("cts-loadgen: shutdown request failed: {e}"),
        }
    }
    if let Some(daemon) = own_daemon {
        daemon.shutdown();
    }

    if report.mismatches > 0 {
        eprintln!(
            "cts-loadgen: {} differential mismatches — daemon answers diverge \
             from the offline engine",
            report.mismatches
        );
        std::process::exit(1);
    }
}
