//! Host facts and `/proc` readers: CPU placement, memory, and the daemon
//! child's CPU time and resident set.

use std::fs;
use std::io;

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux reports these
/// in `USER_HZ`, which is 100 on every supported architecture.
const USER_HZ: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds. The command
/// name (field 2) may contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `kB` field of `/proc/<pid>/status` or `/proc/meminfo`, in KiB.
pub fn parse_kib_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

pub fn process_cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat_cpu_seconds(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable /proc stat"))
}

/// CPU seconds of the calling process (all threads).
pub fn self_cpu_seconds() -> f64 {
    process_cpu_seconds(std::process::id()).unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn process_peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_kib_field(&status, "VmHWM")
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc status"))
}

pub fn mem_available_mib() -> Option<u64> {
    let meminfo = fs::read_to_string("/proc/meminfo").ok()?;
    parse_kib_field(&meminfo, "MemAvailable").map(|kib| kib / 1024)
}

/// Pids of running processes whose command name is `name`.
pub fn pids_named(name: &str) -> Vec<u32> {
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            fs::read_to_string(format!("/proc/{pid}/comm")).is_ok_and(|c| c.trim_end() == name)
        })
        .collect()
}

/// Is there a `taskset` on `PATH` to confine the daemon child with?
pub fn taskset_available() -> bool {
    std::env::var_os("PATH")
        .is_some_and(|paths| std::env::split_paths(&paths).any(|d| d.join("taskset").is_file()))
}

/// Where the two sides run. The generator never shares a core with the
/// daemon when the host has at least two: the daemon gets every allowed CPU
/// but the last, the generator the last one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    pub allowed: Vec<usize>,
    pub daemon_cpus: Vec<usize>,
    pub generator_cpu: usize,
}

impl Placement {
    pub fn from_allowed(allowed: &[usize]) -> Placement {
        let (&generator_cpu, rest) = allowed.split_last().expect("at least one allowed CPU");
        let daemon_cpus = if rest.is_empty() {
            vec![generator_cpu]
        } else {
            rest.to_vec()
        };
        Placement {
            allowed: allowed.to_vec(),
            daemon_cpus,
            generator_cpu,
        }
    }

    pub fn detect() -> Placement {
        let allowed = cts_daemon::netpoll::current_affinity().unwrap_or_else(|_| vec![0]);
        Placement::from_allowed(&allowed)
    }

    /// True when both sides have to share the only CPU; wake-up latency
    /// then depends on the scheduler and depth-1 timings are not comparable
    /// with a two-core run.
    pub fn shared_core(&self) -> bool {
        self.daemon_cpus == [self.generator_cpu]
    }

    /// The daemon's CPU list in `taskset -c` syntax.
    pub fn daemon_cpu_list(&self) -> String {
        let cpus: Vec<String> = self.daemon_cpus.iter().map(|c| c.to_string()).collect();
        cpus.join(",")
    }
}

/// The `host` block of a report, as JSON.
pub fn host_json(placement: &Placement, taskset: bool) -> String {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let mem_total = fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| parse_kib_field(&m, "MemTotal"))
        .map_or(0, |kib| kib / 1024);
    format!(
        "{{\"nproc\": {}, \"daemon_cpus\": \"{}\", \"generator_cpu\": {}, \
         \"shared_core\": {}, \"daemon_pinned\": {}, \"mem_total_mib\": {}, \
         \"mem_available_mib\": {}, \"kernel\": \"{}\", \"data_dirs\": \"checkout\"}}",
        placement.allowed.len(),
        placement.daemon_cpu_list(),
        placement.generator_cpu,
        placement.shared_core(),
        taskset,
        mem_total,
        mem_available_mib().unwrap_or(0),
        kernel.trim(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_spaces_and_parens_in_the_command_name() {
        // utime = 250 ticks, stime = 50 ticks -> 3.0 s
        let line = "1234 (cts (dae) mon) S 1 1234 1234 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 5 0 \
                    12345 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(line), Some(3.0));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn kib_fields_are_found_by_exact_key() {
        let status = "Name:\tcts-daemon\nVmPeak:\t  999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_kib_field(status, "VmHWM"), Some(2048));
        assert_eq!(parse_kib_field(status, "VmRSS"), Some(1024));
        assert_eq!(parse_kib_field(status, "Vm"), None);
        assert_eq!(parse_kib_field(status, "MemAvailable"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(process_cpu_seconds(std::process::id()).is_ok());
        assert!(process_peak_rss_mib(std::process::id()).unwrap() > 0.0);
    }

    #[test]
    fn generator_gets_the_last_cpu_and_the_daemon_the_rest() {
        let p = Placement::from_allowed(&[0, 1]);
        assert_eq!((p.daemon_cpu_list().as_str(), p.generator_cpu), ("0", 1));
        assert!(!p.shared_core());
        let p = Placement::from_allowed(&[2, 3, 6, 7]);
        assert_eq!(
            (p.daemon_cpu_list().as_str(), p.generator_cpu),
            ("2,3,6", 7)
        );
        let p = Placement::from_allowed(&[0]);
        assert!(p.shared_core());
    }
}
