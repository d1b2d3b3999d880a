//! The `cts-loadgen` binary: one driver for every soak. It replays workload
//! computations against a daemon as concurrent client streams and
//! differentially checks every answer against the offline engine.
//!
//! ```text
//! cts-loadgen [--addr HOST:PORT] [--connections 8] [--seed 1]
//!             [--max-cluster-size 8] [--quick | --smoke | --drift | --place]
//!             [--batch N] [--window-page N] [--shards N]
//!             [--net-threads] [--pollers N] [--c10k N] [--c10k-bench]
//!             [--json PATH] [--shutdown]
//!             [--data-dir PATH] [--checkpoint-every N]
//!             [--kill-after N [--restart]]
//!             [--followers N | --follower-addr HOST:PORT ...]
//!             [--epoch-every N] [--asof-epochs N]
//!             [--replay-as STRATEGY:MAXCS] [--wait-ready SECS]
//! ```
//!
//! Every run is one pipeline:
//!
//! 1. **Target.** An in-process daemon on an ephemeral loopback port; with
//!    `--addr`, an already-running daemon; with `--kill-after N`, the crash
//!    sequence: stream ~N events into a durable in-process daemon
//!    (`--data-dir` required), crash-stop it (no final sync or checkpoint)
//!    and — with `--restart` — recover a fresh daemon on the same data
//!    directory. Then `--wait-ready SECS` polls a session-free `ProtoHello`
//!    until the daemon stops answering `RECOVERING`; `--followers N`
//!    spawns N in-process followers replicating the durable leader over the
//!    `Subscribe` WAL stream (`--follower-addr HOST:PORT`, repeatable, names
//!    running ones instead); `--c10k N` opens N idle connections and holds
//!    them through the whole run, so every answer must stay correct while
//!    the daemon carries them.
//! 2. **Plant phase** of the scenario, if it has one (below).
//! 3. **Differential run** (`loadgen::run`): shuffled, duplicated
//!    concurrent ingest, a flush barrier, then sampled precedence,
//!    greatest-concurrent and window checks — with `--asof-epochs N`, also
//!    at up to N historical retained epochs per computation, replayed over
//!    `ReplayInterval` — fanned across the follower fleet when there is one.
//! 4. **Extras.** `--replay-as STRATEGY:MAXCS` (grammar of
//!    [`cts_core::StrategySpec`]: `merge1st:N`, `mergeNth:N[@tau]`,
//!    `never[:N]`) re-clusters the newest retained epoch of every
//!    computation offline and reports the paper's stamp-size/ratio deltas
//!    against the serving strategy. A fleet also times the same warm
//!    batched-query workload against the leader alone and across the
//!    followers: the `repl/warm_batch_{leader,fleet}` entries.
//! 5. **Teardown.** Idle connections, followers and their scratch
//!    directory, `--shutdown` (the wire Shutdown message), the in-process
//!    daemon.
//!
//! Exit status 1 means a differential mismatch, a failed liveness gate or a
//! runtime error; 2 an argument error.
//!
//! The scenarios (`loadgen::{STANDARD, DRIFT, PLACE}`):
//!
//! - the default replays the 54-computation standard suite; `--quick` the
//!   reduced mini suite; `--smoke` a single SPMD computation with a handful
//!   of queries (the CI liveness check);
//! - `--drift`: the planted-drift fixtures through an *adaptive* daemon
//!   (an external one must run `--adaptive`), the cluster map sampled at
//!   every planted phase boundary into cluster-receive-ratio curves. A
//!   fixture without a single drift migration fails the soak. Unless
//!   `--max-cluster-size` is given, the soak uses 12;
//! - `--place`: planted hot-group fixtures through a daemon autoscaling
//!   from two shards (an external one must run `--shards auto`), the
//!   placement sampled at thirds. No autoscale action fails the soak.
//!
//! The flags that configure the in-process daemon — `--data-dir`,
//! `--checkpoint-every`, `--epoch-every` (publish cadence: small values
//! retain many epochs), `--shards N` (ingest shard workers per
//! computation), `--net-threads` (the thread-per-connection transport),
//! `--pollers N`, `--followers`, `--kill-after` and `--c10k-bench` — are
//! refused with `--addr`.
//!
//! `--window-page N` sets the page size of the window-scroll checks (0 =
//! the server's default cap). `--c10k-bench` runs no scenario: it measures
//! the idle CPU and per-connection memory of both network backends.
//! `--json PATH` writes what a run measures as `cts-bench/1` entries — the
//! fleet's or `--c10k-bench`'s — for `scripts/bench_gate.py`.

use cts_core::StrategySpec;
use cts_daemon::loadgen::{self, Fixtures, LoadConfig, PlantedReport, Scenario};
use cts_daemon::server::{Daemon, DaemonConfig, NetBackend};
use cts_daemon::Client;
use cts_util::bench::{BenchEntry, Bencher};
use cts_workloads::suite::{mini_suite, standard_suite};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroU32;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: cts-loadgen [--addr HOST:PORT] [--connections N] [--seed N]\n\
         \x20                  [--max-cluster-size N]\n\
         \x20                  [--net-threads] [--pollers N]\n\
         \x20                  [--c10k N] [--c10k-bench]\n\
         \x20                  [--quick | --smoke | --drift | --place]\n\
         \x20                  [--window-page N] [--json PATH] [--shutdown]\n\
         \x20                  [--data-dir PATH] [--checkpoint-every N]\n\
         \x20                  [--kill-after N [--restart]]\n\
         \x20                  [--followers N | --follower-addr HOST:PORT ...]\n\
         \x20                  [--epoch-every N] [--asof-epochs N]\n\
         \x20                  [--replay-as STRATEGY:MAXCS] [--batch N]\n\
         \x20                  [--wait-ready SECS] [--shards N]"
    );
    std::process::exit(2);
}

/// An argument combination that cannot work: say why, exit 2.
fn refuse(why: &str) -> ! {
    eprintln!("cts-loadgen: {why}");
    std::process::exit(2);
}

/// Everything the command line sets.
struct Args {
    addr: Option<SocketAddr>,
    /// The in-process-only flags given, refused with `--addr`.
    in_process: Vec<String>,
    scenario: Scenario,
    quick: bool,
    smoke: bool,
    json: Option<String>,
    send_shutdown: bool,
    kill_after: Option<u64>,
    restart: bool,
    c10k: usize,
    c10k_bench: bool,
    followers: usize,
    replay_as: Option<StrategySpec>,
    wait_ready: Option<u64>,
    cfg: LoadConfig,
    daemon: DaemonConfig,
}

fn parse_args() -> Args {
    let mut a = Args {
        addr: None,
        in_process: Vec::new(),
        scenario: loadgen::STANDARD,
        quick: false,
        smoke: false,
        json: None,
        send_shutdown: false,
        kill_after: None,
        restart: false,
        c10k: 0,
        c10k_bench: false,
        followers: 0,
        replay_as: None,
        wait_ready: None,
        cfg: LoadConfig::default(),
        daemon: DaemonConfig::default(),
    };
    let mut max_cluster_size: Option<u32> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    // Malformed values are argument errors (exit 2 + usage), discovered
    // before anything starts.
    fn parsed<T: FromStr>(flag: &str, raw: String) -> T
    where
        T::Err: std::fmt::Display,
    {
        raw.parse().unwrap_or_else(|e| {
            eprintln!("cts-loadgen: bad {flag} {raw:?}: {e}");
            usage()
        })
    }
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--addr" => a.addr = Some(parsed(flag, value(&mut i))),
            "--connections" => a.cfg.connections = parsed(flag, value(&mut i)),
            "--batch" => a.cfg.batch = parsed(flag, value(&mut i)),
            "--seed" => a.cfg.seed = parsed(flag, value(&mut i)),
            "--max-cluster-size" => max_cluster_size = Some(parsed(flag, value(&mut i))),
            "--quick" => a.quick = true,
            "--smoke" => a.smoke = true,
            "--drift" | "--place" => {
                if a.scenario.planted.is_some() {
                    refuse("pick one of --drift or --place");
                }
                a.scenario = if flag == "--drift" {
                    loadgen::DRIFT
                } else {
                    loadgen::PLACE
                };
            }
            "--window-page" => a.cfg.window_page = parsed(flag, value(&mut i)),
            "--json" => a.json = Some(value(&mut i)),
            "--shutdown" => a.send_shutdown = true,
            "--restart" => a.restart = true,
            "--c10k" => a.c10k = parsed(flag, value(&mut i)),
            "--follower-addr" => a.cfg.follower_addrs.push(parsed(flag, value(&mut i))),
            "--asof-epochs" => a.cfg.asof_epochs = parsed(flag, value(&mut i)),
            "--wait-ready" => a.wait_ready = Some(parsed(flag, value(&mut i))),
            "--replay-as" => a.replay_as = Some(parsed(flag, value(&mut i))),
            "--help" | "-h" => usage(),
            "--data-dir" | "--checkpoint-every" | "--epoch-every" | "--shards"
            | "--net-threads" | "--pollers" | "--followers" | "--kill-after" | "--c10k-bench" => {
                a.in_process.push(flag.to_string());
                let d = &mut a.daemon;
                match flag {
                    "--data-dir" => d.data_dir = Some(value(&mut i).into()),
                    "--checkpoint-every" => d.checkpoint_every = parsed(flag, value(&mut i)),
                    "--epoch-every" => d.epoch_every = parsed(flag, value(&mut i)),
                    "--shards" => d.shards = parsed::<NonZeroU32>(flag, value(&mut i)).get(),
                    "--net-threads" => d.net = NetBackend::Threads,
                    "--pollers" => d.pollers = parsed(flag, value(&mut i)),
                    "--followers" => a.followers = parsed(flag, value(&mut i)),
                    "--kill-after" => a.kill_after = Some(parsed(flag, value(&mut i))),
                    _ => a.c10k_bench = true,
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    if let Some(m) = max_cluster_size.or(a.scenario.max_cluster_size) {
        a.cfg.max_cluster_size = m;
    }
    if a.smoke {
        a.cfg.precedence_queries = 25;
        a.cfg.gc_probes = 1;
    } else if a.quick {
        a.cfg.precedence_queries = 50;
    }

    let fleet = a.followers > 0 || !a.cfg.follower_addrs.is_empty();
    if let (Some(_), Some(flag)) = (a.addr, a.in_process.first()) {
        refuse(&format!(
            "{flag} configures the in-process daemon; drop --addr"
        ));
    }
    if a.followers > 0 && !a.cfg.follower_addrs.is_empty() {
        refuse("pick one of --followers (in-process) or --follower-addr");
    }
    if a.followers > 0 && a.daemon.data_dir.is_none() {
        refuse("--followers needs a durable leader; add --data-dir (the WAL is the replication stream)");
    }
    if fleet && (a.kill_after.is_some() || a.c10k_bench) {
        refuse("follower fleets do not combine with --kill-after/--c10k-bench");
    }
    if a.scenario.planted.is_some() && (a.kill_after.is_some() || fleet) {
        refuse(&format!(
            "--{} does not combine with --kill-after/--followers",
            a.scenario.name
        ));
    }
    if a.kill_after.is_some() && a.daemon.data_dir.is_none() {
        refuse("--kill-after requires --data-dir");
    }
    if a.restart && a.kill_after.is_none() {
        refuse("--restart restarts after --kill-after; add it");
    }
    if a.json.is_some() && !fleet && !a.c10k_bench {
        refuse("--json records a follower fleet's or --c10k-bench's entries; this run has neither");
    }
    a
}

/// The daemon under test and everything the run started around it.
struct Target {
    /// The load's configuration, aimed at the target and its fleet.
    cfg: LoadConfig,
    /// The in-process daemon, when the run owns one.
    daemon: Option<Daemon>,
    followers: Vec<Daemon>,
    /// Scratch root of the in-process followers' data directories.
    follower_root: Option<PathBuf>,
    /// Idle connections held through the run (`--c10k`).
    held: Vec<TcpStream>,
}

/// Bring the target up: the in-process daemon, an `--addr`, or the crash
/// sequence's recovered daemon. `None`: the crash sequence stopped at the
/// crash, leaving nothing to check.
fn build_target(a: &Args, fixtures: &Fixtures) -> Result<Option<Target>, String> {
    let mut in_process = a.daemon.clone();
    (a.scenario.daemon)(&mut in_process, a.cfg.max_cluster_size);
    let daemon = match (a.addr, a.kill_after) {
        (Some(_), _) => None,
        (None, Some(n)) => {
            let recovered =
                loadgen::crash_and_restart(&fixtures.suite, &a.cfg, in_process, n, a.restart)
                    .map_err(|e| format!("crash replay failed: {e}"))?;
            if recovered.is_none() {
                eprintln!(
                    "[cts-loadgen] crash-stopped without --restart; data dir left for inspection"
                );
                return Ok(None);
            }
            recovered
        }
        (None, None) => {
            let daemon = Daemon::start(in_process)
                .map_err(|e| format!("cannot start in-process daemon: {e}"))?;
            eprintln!(
                "[cts-loadgen] in-process {} daemon on {}",
                a.scenario.name,
                daemon.local_addr()
            );
            Some(daemon)
        }
    };
    let addr = daemon.as_ref().map_or_else(
        || a.addr.expect("no daemon without --addr"),
        |d| d.local_addr(),
    );
    Ok(Some(Target {
        cfg: LoadConfig {
            addr,
            ..a.cfg.clone()
        },
        daemon,
        followers: Vec::new(),
        follower_root: None,
        held: Vec::new(),
    }))
}

/// Everything between build and teardown: `--wait-ready`, the followers
/// and the `--c10k` hold (kept on the target for the teardown), the plant
/// phase and the differential run, then the extras. The report is printed
/// as soon as it exists.
fn drive(a: &Args, t: &mut Target, fixtures: &Fixtures) -> Result<PlantedReport, String> {
    // A freshly restarted durable daemon refuses every request with
    // RECOVERING while it replays on-disk state in the background; a
    // session-free ProtoHello creates nothing on the daemon.
    if let Some(secs) = a.wait_ready {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while Client::connect(t.cfg.addr)
            .and_then(|mut c| c.proto_hello())
            .is_err()
        {
            if Instant::now() >= deadline {
                return Err(format!(
                    "daemon at {} still not ready after {secs}s",
                    t.cfg.addr
                ));
            }
            std::thread::sleep(Duration::from_millis(200));
        }
        eprintln!("[cts-loadgen] daemon at {} is ready", t.cfg.addr);
    }

    if a.followers > 0 {
        let root =
            std::env::temp_dir().join(format!("cts-loadgen-followers-{}", std::process::id()));
        t.follower_root = Some(root.clone());
        t.followers = loadgen::spawn_followers(t.cfg.addr, a.followers, &root)
            .map_err(|e| format!("cannot start followers: {e}"))?;
        t.cfg.follower_addrs = t.followers.iter().map(|d| d.local_addr()).collect();
        eprintln!(
            "[cts-loadgen] {} in-process followers replicating {}: {:?}",
            a.followers, t.cfg.addr, t.cfg.follower_addrs
        );
    }

    if a.c10k > 0 {
        // Each held connection costs this process one fd (plus one in the
        // daemon, when it is in-process) — take the hard rlimit up front.
        #[cfg(target_os = "linux")]
        if let Ok(n) = cts_daemon::netpoll::raise_nofile_to_hard() {
            eprintln!("[cts-loadgen] fd limit raised to {n}");
        }
        t.held = loadgen::hold_idle_conns(t.cfg.addr, a.c10k)
            .map_err(|e| format!("c10k connection hold failed: {e}"))?;
        eprintln!("[cts-loadgen] holding {} idle connections", t.held.len());
    }

    let report = loadgen::run_planted(&a.scenario, fixtures, &t.cfg)
        .map_err(|e| format!("{} run failed: {e}", a.scenario.name))?;
    println!("{}", report.render());
    if !t.held.is_empty() && report.passed() {
        eprintln!(
            "[cts-loadgen] suite ran clean while {} idle connections were held",
            t.held.len()
        );
    }

    // Time-travel what-if: replay the newest retained epoch of every
    // computation and re-cluster it offline under a different strategy.
    if let Some(spec) = a.replay_as {
        let reports = loadgen::run_replay_as(&fixtures.suite, &t.cfg, spec)
            .map_err(|e| format!("--replay-as failed: {e}"))?;
        for r in &reports {
            println!("[replay-as] {}", r.render());
        }
        if reports.is_empty() {
            return Err("--replay-as found no retained epochs to replay".into());
        }
    }

    // Read scale-out: the same warm batched-query workload against the
    // leader alone, then fanned across the followers.
    if !t.cfg.follower_addrs.is_empty() {
        let entries = loadgen::fleet_bench_entries(&fixtures.suite, &t.cfg, 4, 3)
            .map_err(|e| format!("fleet bench failed: {e}"))?;
        for e in &entries {
            eprintln!(
                "[cts-loadgen] repl/{}: min {:.1} ms over {} items",
                e.name,
                e.min_ns / 1e6,
                e.iters_per_sample
            );
        }
        write_json(a.json.as_deref(), entries)?;
    }
    Ok(report)
}

/// Stop everything the run started, whatever it came to.
fn teardown(t: Target, send_shutdown: bool) {
    drop(t.held);
    for d in t.followers {
        d.shutdown();
    }
    if let Some(root) = t.follower_root {
        let _ = std::fs::remove_dir_all(root);
    }
    if send_shutdown {
        match Client::connect(t.cfg.addr).and_then(|mut c| c.shutdown_daemon()) {
            Ok(()) => eprintln!("[cts-loadgen] daemon acknowledged shutdown"),
            Err(e) => eprintln!("cts-loadgen: shutdown request failed: {e}"),
        }
    }
    if let Some(d) = t.daemon {
        d.shutdown();
    }
}

/// The one exit decision: 1 on a runtime error, a differential mismatch or
/// a failed liveness gate; 0 otherwise (including a run with nothing to
/// check).
fn exit_status(scenario: &Scenario, outcome: Result<Option<PlantedReport>, String>) -> i32 {
    match outcome {
        Err(e) => {
            eprintln!("cts-loadgen: {e}");
            1
        }
        Ok(None) => 0,
        Ok(Some(r)) if r.passed() => {
            eprintln!(
                "[cts-loadgen] {} soak clean: 0 mismatches{}",
                scenario.name,
                r.liveness()
            );
            0
        }
        Ok(Some(r)) => {
            eprintln!(
                "cts-loadgen: {} soak FAILED: {} differential mismatches{}",
                scenario.name,
                r.load.mismatches,
                r.liveness()
            );
            1
        }
    }
}

fn write_json(path: Option<&str>, entries: Vec<BenchEntry>) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    let mut bencher = Bencher::quick();
    for entry in entries {
        bencher.record_entry(entry);
    }
    std::fs::write(path, bencher.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("[cts-loadgen] wrote {path}");
    Ok(())
}

fn main() {
    let a = parse_args();
    let outcome = if a.c10k_bench {
        loadgen::c10k_bench_entries(5000, 500, Duration::from_secs(2))
            .map_err(|e| format!("c10k bench failed: {e}"))
            .and_then(|entries| write_json(a.json.as_deref(), entries))
            .map(|()| None)
    } else {
        let fixtures = a.scenario.fixtures(|| {
            if a.smoke {
                let mut s = standard_suite();
                s.truncate(1);
                s
            } else if a.quick {
                mini_suite()
            } else {
                standard_suite()
            }
        });
        eprintln!(
            "[cts-loadgen] {}: {} computations, {} events, {} connections",
            a.scenario.name,
            fixtures.suite.len(),
            fixtures
                .suite
                .iter()
                .map(|e| e.trace.num_events())
                .sum::<usize>(),
            a.cfg.connections
        );
        match build_target(&a, &fixtures) {
            Err(e) => Err(e),
            Ok(None) => Ok(None),
            Ok(Some(mut target)) => {
                let outcome = drive(&a, &mut target, &fixtures).map(Some);
                teardown(target, a.send_shutdown);
                outcome
            }
        }
    };
    std::process::exit(exit_status(&a.scenario, outcome));
}
