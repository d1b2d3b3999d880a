//! Output: the result line the contract asks for, the human tables, the
//! JSON report, and the noise calibration that sets the bounds.

use crate::e2e::{Metric, Report};
use crate::stats::{median, quartiles, spread};
use crate::workload::Spec;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The end-to-end metrics, in report order: name, unit, and whether higher
/// is better. `BENCHMARK.json` repeats this list with each metric's bound.
pub const END_TO_END: [(&str, &str, bool); 9] = [
    ("setup_s", "s", false),
    ("ingest_kev_per_s", "kev/s", true),
    ("daemon_cpu_us_per_ev", "us", false),
    ("peak_rss_mb", "MiB", false),
    ("precedes_p50_us", "us", false),
    ("gc_p50_us", "us", false),
    ("reads_per_s", "1/s", true),
    ("recovery_s", "s", false),
    ("cr_per_kev", "count", false),
];

/// Copy the daemon stderr logs of a failed workload out of its work
/// directory before that is removed.
pub fn keep_stderr_logs(work: &Path, results: &Path, workload: &str) {
    let Ok(dir) = std::fs::read_dir(work) else {
        return;
    };
    for entry in dir.flatten() {
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".stderr.log") {
            let to = results.join(format!("failed-{workload}-{}", name.to_string_lossy()));
            let _ = std::fs::copy(entry.path(), to);
        }
    }
}

/// One workload's run: the end-to-end report, the per-layer metrics of a
/// traced run, or the error that stopped it.
pub struct RunResult {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub e2e: Option<Report>,
    pub layers: Option<Vec<Metric>>,
    pub error: Option<String>,
    started: Instant,
    pub wall_s: f64,
}

impl RunResult {
    pub fn start(spec: &'static Spec, seed: u64, seconds: f64) -> RunResult {
        RunResult {
            spec,
            seed,
            seconds,
            e2e: None,
            layers: None,
            error: None,
            started: Instant::now(),
            wall_s: 0.0,
        }
    }

    pub fn finish(mut self, outcome: io::Result<(Report, Option<Vec<Metric>>)>) -> RunResult {
        match outcome {
            Ok((e2e, layers)) => {
                self.e2e = Some(e2e);
                self.layers = layers;
            }
            Err(e) => self.error = Some(e.to_string()),
        }
        self.wall_s = self.started.elapsed().as_secs_f64();
        self
    }

    fn ops(&self) -> (u64, u64) {
        match &self.e2e {
            Some(r) => (r.ops.attempted.max(1), r.ops.failed),
            None => (1, 1),
        }
    }

    /// The metrics this run reports: per-layer for a traced run, end-to-end
    /// otherwise.
    fn reported(&self, trace: bool) -> Vec<&Metric> {
        let Some(e2e) = &self.e2e else {
            return Vec::new();
        };
        match trace {
            false => e2e.e2e.iter().collect(),
            true => e2e
                .side
                .iter()
                .chain(self.layers.iter().flatten())
                .collect(),
        }
    }

    /// No operation failed, nothing went wrong, and every number is one.
    pub fn correct(&self) -> bool {
        self.error.is_none()
            && self.ops().1 == 0
            && self
                .reported(self.layers.is_some())
                .iter()
                .all(|m| m.value.is_finite())
    }

    /// The single JSON object the contract wants as the last line of stdout.
    pub fn result_line(&self, trace: bool) -> String {
        let (attempted, failed) = self.ops();
        let metrics: Vec<String> = self
            .reported(trace)
            .iter()
            .map(|m| metric_json(m))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            metrics.join(", ")
        )
    }

    /// Human-readable block: every metric by name with its unit, the timed
    /// phases, and the notes.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let (attempted, failed) = self.ops();
        let _ = writeln!(
            out,
            "== {} (seed {}, {} s budget, {:.1} s wall) ops_attempted {attempted} ops_failed {failed}",
            self.spec.name, self.seed, self.seconds, self.wall_s
        );
        if let Some(e) = &self.error {
            let _ = writeln!(out, "   ERROR: {e}");
        }
        let Some(e2e) = &self.e2e else {
            return out;
        };
        for m in self.reported(self.layers.is_some()) {
            let _ = writeln!(out, "   {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for (name, secs, samples) in &e2e.phases {
            let _ = writeln!(out, "   phase {name:<22} {secs:>8.3} s  n = {samples}");
        }
        for note in &e2e.notes {
            let _ = writeln!(out, "   note: {note}");
        }
        out
    }

    fn json(&self) -> String {
        let trace = self.layers.is_some();
        let (attempted, failed) = self.ops();
        let metrics: Vec<String> = self
            .reported(trace)
            .iter()
            .map(|m| format!("      {}", metric_json(m)))
            .collect();
        let phases: Vec<String> = self
            .e2e
            .iter()
            .flat_map(|r| &r.phases)
            .map(|(n, s, k)| {
                format!("{{\"phase\": \"{n}\", \"seconds\": {s:.4}, \"samples\": {k}}}")
            })
            .collect();
        format!(
            "  {{\n    \"workload\": \"{}\",\n    \"why\": \"{}\",\n    \"seed\": {},\n    \
             \"seconds\": {},\n    \"traced\": {trace},\n    \"wall_s\": {:.2},\n    \
             \"ops_attempted\": {attempted},\n    \"ops_failed\": {failed},\n    \"metrics\": {{\n{}\n    }},\n    \
             \"phases\": [{}]\n  }}",
            self.spec.name,
            self.spec.why,
            self.seed,
            self.seconds,
            self.wall_s,
            metrics.join(",\n"),
            phases.join(", ")
        )
    }
}

/// `"name": {"value": v, "unit": "u"}`, the contract's shape of a metric.
fn metric_json(m: &Metric) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.name,
        json_number(m.value),
        m.unit
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The `--json` report: the host block and one object per workload.
pub fn full_json(results: &[RunResult], host: &str) -> String {
    let runs: Vec<String> = results.iter().map(RunResult::json).collect();
    format!(
        "{{\n\"schema\": \"cts-benchmark/1\",\n\"host\": {host},\n\"runs\": [\n{}\n]\n}}\n",
        runs.join(",\n")
    )
}

/// Noise calibration, the same procedure as the contract's acceptance
/// check: two sets of `runs` runs of each workload, every run on another
/// seed; per metric the spread of each set (interquartile range over
/// median) and how much worse the second median is than the first. The
/// bound a metric needs is three times its spread and two and a half times
/// that difference, and never under 0.05. Returns whether every run was
/// correct.
pub fn calibrate(
    runs: usize,
    workloads: &[&'static Spec],
    seconds: f64,
    host: &str,
    mut run: impl FnMut(&'static Spec, u64) -> RunResult,
    out: &Path,
) -> bool {
    let mut ok = true;
    // values[set][workload][metric] = samples
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()]; 2];
    for (set, per_workload) in values.iter_mut().enumerate() {
        for (spec, per_metric) in workloads.iter().zip(per_workload) {
            for i in 0..runs {
                let seed = (set * runs + i + 1) as u64;
                let r = run(spec, seed);
                eprintln!(
                    "[calibrate] set {set} {} seed {seed}: {:.1} s wall, correct {}",
                    spec.name,
                    r.wall_s,
                    r.correct()
                );
                ok &= r.correct();
                if !r.correct() {
                    eprint!("{}", r.table());
                }
                for (m, (name, ..)) in END_TO_END.iter().enumerate() {
                    if let Some(v) = r.e2e.as_ref().and_then(|e| e.get(name)) {
                        per_metric[m].push(v);
                    }
                }
            }
        }
    }
    let mut rows = Vec::new();
    eprintln!(
        "{:<14} {:<22} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "sprd A", "sprd B", "worse", "bound"
    );
    for (w, spec) in workloads.iter().enumerate() {
        for (m, (name, unit, higher)) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let (Some(ma), Some(mb)) = (median(a), median(b)) else {
                continue;
            };
            let (sa, sb) = (spread(a).unwrap_or(0.0), spread(b).unwrap_or(0.0));
            // Positive when the second set is worse than the first.
            let worse = if *higher {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let need = (3.0 * sa.max(sb)).max(2.5 * worse.abs()).max(0.05);
            let bound = (need * 100.0).ceil() / 100.0;
            eprintln!(
                "{:<14} {:<22} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>8.4} {:>6.2}",
                spec.name, name, ma, mb, sa, sb, worse, bound
            );
            let q = |v: &[f64]| quartiles(v).unwrap_or((f64::NAN, f64::NAN));
            let list = |v: &[f64]| {
                let items: Vec<String> = v.iter().map(|x| json_number(*x)).collect();
                items.join(", ")
            };
            rows.push(format!(
                "  {{\"workload\": \"{}\", \"metric\": \"{name}\", \"unit\": \"{unit}\", \
                 \"median_a\": {}, \"median_b\": {}, \"q1_a\": {}, \"q3_a\": {}, \"q1_b\": {}, \
                 \"q3_b\": {}, \"spread_a\": {}, \"spread_b\": {}, \"second_worse_by\": {}, \
                 \"bound_needed\": {bound}, \"values_a\": [{}], \"values_b\": [{}]}}",
                spec.name,
                json_number(ma),
                json_number(mb),
                json_number(q(a).0),
                json_number(q(a).1),
                json_number(q(b).0),
                json_number(q(b).1),
                json_number(sa),
                json_number(sb),
                json_number(worse),
                list(a),
                list(b),
            ));
        }
    }
    let json = format!(
        "{{\n\"schema\": \"cts-benchmark-calibration/1\",\n\"host\": {host},\n\"runs_per_set\": {runs},\n\
         \"seconds\": {seconds},\n\"rows\": [\n{}\n]\n}}\n",
        rows.join(",\n")
    );
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("cts-benchmark: cannot write {}: {e}", out.display());
        return false;
    }
    eprintln!("[calibrate] wrote {}", out.display());
    ok
}
