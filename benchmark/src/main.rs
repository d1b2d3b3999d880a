//! `cts-benchmark`: a pinned end-to-end benchmark of `cts-daemon`, spawned
//! as a child process, plus a separate traced run that drives each layer's
//! public functions in-process for the per-layer ledger. Start it through
//! `benchmark/run.sh`, which builds both binaries first.

mod daemon;
mod e2e;
mod host;
mod layers;
mod oracle;
mod phases;
mod report;
mod spans;
mod stats;
mod workload;

use daemon::Launch;
use host::Placement;
use report::RunResult;
use std::path::PathBuf;
use std::process::ExitCode;

/// Least free memory to start with; the largest daemon of the benchmark
/// peaks well under a quarter of this.
const MIN_MEM_AVAILABLE_MIB: u64 = 6 * 1024;

struct Args {
    workloads: Vec<&'static workload::Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    calibrate: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                       [--layers] [--smoke] [--json PATH] [--calibrate [RUNS]]\n\
         workloads: {}",
        workload::SPECS.map(|s| s.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: workload::SPECS.iter().collect(),
        seed: 1,
        seconds: workload::NOMINAL_SECONDS,
        trace: false,
        json: None,
        calibrate: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        argv.get(*i).map(String::as_str).unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i);
                args.workloads = vec![workload::spec(name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name:?}");
                    usage()
                })];
            }
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value(&mut i).parse().unwrap_or_else(|_| usage());
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value(&mut i) {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--layers" => args.trace = true,
            "--smoke" => args.seconds = workload::NOMINAL_SECONDS / 20.0,
            "--json" => args.json = Some(value(&mut i).into()),
            "--calibrate" => {
                let runs = argv.get(i + 1).and_then(|v| v.parse().ok());
                i += usize::from(runs.is_some());
                args.calibrate = Some(runs.unwrap_or(10));
            }
            _ => usage(),
        }
        i += 1;
    }
    args
}

/// The paths `run.sh` hands over.
struct Env {
    daemon_bin: PathBuf,
    bench_dir: PathBuf,
    /// Whether `taskset` is there to confine the daemon.
    taskset: bool,
}

fn env() -> Result<Env, String> {
    let var = |k: &str| {
        std::env::var_os(k)
            .map(PathBuf::from)
            .ok_or_else(|| format!("{k} is not set; start the benchmark with benchmark/run.sh"))
    };
    let env = Env {
        daemon_bin: var("CTS_DAEMON_BIN")?,
        bench_dir: var("CTS_BENCH_DIR")?,
        taskset: host::taskset_available(),
    };
    if !env.daemon_bin.is_file() {
        return Err(format!("no daemon binary at {}", env.daemon_bin.display()));
    }
    Ok(env)
}

fn preflight() -> Result<(), String> {
    if let Some(free) = host::mem_available_mib() {
        if free < MIN_MEM_AVAILABLE_MIB {
            return Err(format!(
                "MemAvailable is {free} MiB, the benchmark wants {MIN_MEM_AVAILABLE_MIB}"
            ));
        }
    }
    let running = host::pids_named("cts-daemon");
    if !running.is_empty() {
        return Err(format!(
            "a cts-daemon is already running (pid {running:?}); it would share the daemon's cores"
        ));
    }
    Ok(())
}

/// Run one workload: generate its input from the seed, then the end-to-end
/// run on a thread confined to the generator's CPU, and for a traced run
/// the in-process layer drive on unconfined threads.
fn run_workload(
    spec: &'static workload::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: &Env,
    placement: &Placement,
) -> RunResult {
    let work = env
        .bench_dir
        .join("work")
        .join(format!("{}-{}", spec.name, std::process::id()));
    let results = env.bench_dir.join("results");
    let launch = Launch {
        bin: env.daemon_bin.clone(),
        work: work.clone(),
        placement: placement.clone(),
        taskset: env.taskset,
        args: spec.daemon_args.iter().map(|s| s.to_string()).collect(),
    };
    let result = RunResult::start(spec, seed, seconds);
    let outcome = std::fs::create_dir_all(&work)
        .and_then(|()| std::fs::create_dir_all(&results))
        .and_then(|()| {
            let input = workload::generate(spec, seed, seconds);
            let mut tracer = spans::Tracer::new(trace);
            let mut e2e = std::thread::scope(|s| {
                s.spawn(|| {
                    let _ = cts_daemon::netpoll::pin_current_thread(placement.generator_cpu);
                    e2e::run(spec, &input, &launch, seconds, &mut tracer)
                })
                .join()
                .expect("end-to-end thread panicked")
            })?;
            if !trace {
                return Ok((e2e, None));
            }
            // The layer drive gets the CPU the daemon had (when that is one
            // CPU), so in-process and end-to-end figures share a budget.
            let (layers, ops) = std::thread::scope(|s| {
                s.spawn(|| {
                    if let [cpu] = placement.daemon_cpus[..] {
                        let _ = cts_daemon::netpoll::pin_current_thread(cpu);
                    }
                    layers::run(spec, &input, &work, &e2e, &mut tracer)
                })
                .join()
                .expect("layer thread panicked")
            })?;
            e2e.ops.add(ops.attempted, ops.failed);
            layers::print_self_times(&tracer);
            let path = results.join(format!("trace-{}.json", spec.name));
            std::fs::write(path, tracer.to_json(spec.name))?;
            Ok((e2e, Some(layers)))
        });
    let result = result.finish(outcome);
    if !result.correct() {
        // Keep what the daemon said before the work directory goes.
        report::keep_stderr_logs(&work, &results, spec.name);
    }
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn main() -> ExitCode {
    let args = parse_args();
    let env = match env().and_then(|e| preflight().map(|()| e)) {
        Ok(e) => e,
        Err(why) => {
            eprintln!("cts-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let placement = Placement::detect();
    let host = host::host_json(&placement, env.taskset);
    eprintln!("[cts-benchmark] host {host}");
    if placement.shared_core() {
        eprintln!("[cts-benchmark] one CPU only: generator and daemon share it");
    }

    if let Some(runs) = args.calibrate {
        let ok = report::calibrate(
            runs,
            &args.workloads,
            args.seconds,
            &host,
            |spec, seed| run_workload(spec, seed, args.seconds, false, &env, &placement),
            &env.bench_dir.join("results").join("calibration.json"),
        );
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut results = Vec::new();
    for spec in &args.workloads {
        eprintln!(
            "[cts-benchmark] {} seed {} seconds {} trace {}",
            spec.name, args.seed, args.seconds, args.trace as u8
        );
        let r = run_workload(spec, args.seed, args.seconds, args.trace, &env, &placement);
        eprint!("{}", r.table());
        results.push(r);
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report::full_json(&results, &host)) {
            eprintln!("cts-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // The last line of stdout is the result object of the (last) workload.
    for r in &results {
        println!("{}", r.result_line(args.trace));
    }
    if results.iter().all(RunResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
