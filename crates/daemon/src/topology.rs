//! CPU/cache/NUMA topology discovery from sysfs, and worker placement.
//!
//! The daemon's threads — shard workers and epoll pollers — land wherever
//! the OS scheduler drops them by default. On multi-socket or SMT hosts
//! that means shard workers bouncing between cache domains and the
//! exchange hand-off crossing NUMA links. This module reads the kernel's
//! own description of the machine from `/sys/devices/system/{cpu,node}`
//! (stdlib only, no libc topology calls) and derives a [`PlacementPlan`]:
//! one CPU per shard slot with SMT siblings avoided and adjacent shards
//! sharing a last-level cache / NUMA node (the exchange peers they talk to
//! most), pollers pushed to the far end of the machine so they never
//! preempt a shard core.
//!
//! Everything parses from a plain directory tree, so the unit tests run
//! against committed fixture `/sys` snapshots (single-socket, dual-NUMA,
//! SMT, hotplug holes) on any CI host; only [`CpuTopology::discover`]
//! touches the real `/sys`. The actual `sched_setaffinity` pinning lives in
//! [`crate::netpoll`] next to the other raw syscalls.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// One online logical CPU and where it sits in the machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cpu {
    /// Logical CPU number (the `N` of `cpuN`).
    pub id: usize,
    /// Physical package (socket) id.
    pub package: usize,
    /// Core id within the package.
    pub core: usize,
    /// Is this the lowest-numbered online sibling of its physical core?
    /// Placement prefers primaries so two workers never share a core's
    /// execution units.
    pub smt_primary: bool,
    /// Dense index of the last-level-cache group this CPU belongs to.
    pub llc: usize,
    /// NUMA node (0 on non-NUMA machines).
    pub node: usize,
}

/// The machine's online-CPU topology.
#[derive(Clone, Debug, Default)]
pub struct CpuTopology {
    cpus: Vec<Cpu>,
}

/// Parse a sysfs cpulist (`"0-3,5,7-8"`) into sorted CPU numbers. Handles
/// hotplug holes, stray whitespace, and the empty list (`"\n"` → `[]`).
pub fn parse_cpulist(s: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    let trimmed = s.trim();
    if trimmed.is_empty() {
        return Some(out);
    }
    for part in trimmed.split(',') {
        let part = part.trim();
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.trim().parse().ok()?;
                let hi: usize = hi.trim().parse().ok()?;
                if hi < lo || hi - lo > 4096 {
                    return None;
                }
                out.extend(lo..=hi);
            }
            None => out.push(part.parse().ok()?),
        }
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

fn read_trimmed(path: &Path) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn read_usize(path: &Path) -> Option<usize> {
    read_trimmed(path)?.parse().ok()
}

impl CpuTopology {
    /// Read the live machine's topology from `/sys/devices/system`.
    pub fn discover() -> io::Result<CpuTopology> {
        CpuTopology::from_dir(Path::new("/sys/devices/system"))
    }

    /// Parse a `/sys/devices/system`-shaped directory tree. Missing pieces
    /// degrade gracefully: no `online` file falls back to enumerating the
    /// `cpuN` directories, no cache directories collapse every CPU into one
    /// LLC group, no `node` directory means a single NUMA node.
    pub fn from_dir(root: &Path) -> io::Result<CpuTopology> {
        let cpu_root = root.join("cpu");
        let online = read_trimmed(&cpu_root.join("online"))
            .and_then(|s| parse_cpulist(&s))
            .unwrap_or_default();
        let online = if online.is_empty() {
            enumerate_cpu_dirs(&cpu_root)?
        } else {
            // `online` can list CPUs whose directories a fixture (or a
            // mid-hotplug kernel) does not carry; keep only parseable ones.
            online
                .into_iter()
                .filter(|c| cpu_root.join(format!("cpu{c}")).is_dir())
                .collect()
        };
        if online.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no online CPUs under {}", cpu_root.display()),
            ));
        }

        // NUMA: node directories carry cpulists; absent = single node.
        let mut node_of: BTreeMap<usize, usize> = BTreeMap::new();
        if let Ok(entries) = std::fs::read_dir(root.join("node")) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(n) = name
                    .to_str()
                    .and_then(|s| s.strip_prefix("node"))
                    .and_then(|s| s.parse::<usize>().ok())
                else {
                    continue;
                };
                if let Some(list) =
                    read_trimmed(&entry.path().join("cpulist")).and_then(|s| parse_cpulist(&s))
                {
                    for c in list {
                        node_of.insert(c, n);
                    }
                }
            }
        }

        // LLC groups: per CPU, the shared_cpu_list of its deepest cache
        // level. Distinct lists get dense group ids in first-seen order.
        let mut llc_ids: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
        let mut cpus = Vec::with_capacity(online.len());
        for &c in &online {
            let dir = cpu_root.join(format!("cpu{c}"));
            let package = read_usize(&dir.join("topology/physical_package_id")).unwrap_or(0);
            let core = read_usize(&dir.join("topology/core_id")).unwrap_or(c);
            let siblings = read_trimmed(&dir.join("topology/thread_siblings_list"))
                .and_then(|s| parse_cpulist(&s))
                .unwrap_or_else(|| vec![c]);
            let smt_primary = siblings
                .iter()
                .filter(|s| online.contains(s))
                .min()
                .is_none_or(|&lo| lo == c);
            let llc_list = deepest_cache_group(&dir).unwrap_or_else(|| online.clone());
            let next = llc_ids.len();
            let llc = *llc_ids.entry(llc_list).or_insert(next);
            let node = node_of.get(&c).copied().unwrap_or(0);
            cpus.push(Cpu {
                id: c,
                package,
                core,
                smt_primary,
                llc,
                node,
            });
        }
        Ok(CpuTopology { cpus })
    }

    /// The online CPUs, sorted by id.
    pub fn cpus(&self) -> &[Cpu] {
        &self.cpus
    }

    /// Online logical CPUs.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Distinct physical cores among the online CPUs.
    pub fn num_cores(&self) -> usize {
        let mut cores: Vec<(usize, usize)> =
            self.cpus.iter().map(|c| (c.package, c.core)).collect();
        cores.sort_unstable();
        cores.dedup();
        cores.len()
    }

    /// Distinct NUMA nodes among the online CPUs.
    pub fn num_nodes(&self) -> usize {
        let mut nodes: Vec<usize> = self.cpus.iter().map(|c| c.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Placement candidates in preference order: SMT primaries first, both
    /// halves sorted by `(node, llc, id)` so a contiguous prefix stays
    /// within one NUMA node and cache domain.
    fn candidates(&self) -> Vec<usize> {
        let mut primaries: Vec<&Cpu> = self.cpus.iter().filter(|c| c.smt_primary).collect();
        let mut secondaries: Vec<&Cpu> = self.cpus.iter().filter(|c| !c.smt_primary).collect();
        let key = |c: &&Cpu| (c.node, c.llc, c.id);
        primaries.sort_by_key(key);
        secondaries.sort_by_key(key);
        primaries
            .into_iter()
            .chain(secondaries)
            .map(|c| c.id)
            .collect()
    }

    /// Assign CPUs to `shards` shard workers and `pollers` network pollers.
    /// Shards take the front of the candidate order (so they pack one
    /// cache/NUMA domain and sit next to their exchange peers); pollers
    /// take the back, keeping off the shard cores whenever the machine is
    /// big enough. On an oversubscribed machine assignments wrap — pinning
    /// then still keeps each worker from migrating, it just shares its
    /// core.
    pub fn plan(&self, shards: usize, pollers: usize) -> PlacementPlan {
        let cand = self.candidates();
        debug_assert!(!cand.is_empty());
        let shard_cpus: Vec<usize> = (0..shards).map(|s| cand[s % cand.len()]).collect();
        // Back of the list, skipping the shard block while any CPU remains.
        let spare: Vec<usize> = cand
            .iter()
            .rev()
            .copied()
            .filter(|c| !shard_cpus.contains(c))
            .collect();
        let pick = |i: usize| -> usize {
            if spare.is_empty() {
                cand[(shards + i) % cand.len()]
            } else {
                spare[i % spare.len()]
            }
        };
        let poller_cpus: Vec<usize> = (0..pollers).map(pick).collect();
        PlacementPlan {
            shard_cpus,
            poller_cpus,
        }
    }
}

/// A topology-derived CPU assignment for the daemon's pinned threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementPlan {
    /// CPU for each shard worker slot (index = shard id).
    pub shard_cpus: Vec<usize>,
    /// CPU for each network poller.
    pub poller_cpus: Vec<usize>,
}

/// The `shared_cpu_list` of the deepest (highest-level) data-carrying cache
/// of one `cpuN` directory, or `None` if the tree has no cache info.
fn deepest_cache_group(cpu_dir: &Path) -> Option<Vec<usize>> {
    let cache = cpu_dir.join("cache");
    let mut best: Option<(usize, Vec<usize>)> = None;
    for entry in std::fs::read_dir(cache).ok()?.flatten() {
        let name = entry.file_name();
        if !name.to_str().is_some_and(|s| s.starts_with("index")) {
            continue;
        }
        let dir = entry.path();
        let Some(level) = read_usize(&dir.join("level")) else {
            continue;
        };
        // Instruction caches don't describe data locality.
        if read_trimmed(&dir.join("type")).as_deref() == Some("Instruction") {
            continue;
        }
        let Some(list) = read_trimmed(&dir.join("shared_cpu_list")).and_then(|s| parse_cpulist(&s))
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, list));
        }
    }
    best.map(|(_, list)| list)
}

fn enumerate_cpu_dirs(cpu_root: &Path) -> io::Result<Vec<usize>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(cpu_root)? {
        let entry = entry?;
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name();
        if let Some(n) = name
            .to_str()
            .and_then(|s| s.strip_prefix("cpu"))
            .and_then(|s| s.parse::<usize>().ok())
        {
            out.push(n);
        }
    }
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fixture(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/sysfs")
            .join(name)
    }

    #[test]
    fn cpulist_parses_ranges_singles_and_holes() {
        assert_eq!(parse_cpulist("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpulist("0-1,3"), Some(vec![0, 1, 3]));
        assert_eq!(parse_cpulist("5"), Some(vec![5]));
        assert_eq!(parse_cpulist(" 0-1, 4-5 ,7\n"), Some(vec![0, 1, 4, 5, 7]));
        assert_eq!(parse_cpulist(""), Some(vec![]));
        assert_eq!(parse_cpulist("\n"), Some(vec![]));
        assert_eq!(parse_cpulist("3-1"), None);
        assert_eq!(parse_cpulist("a-b"), None);
        assert_eq!(parse_cpulist("1,,2"), None);
    }

    #[test]
    fn single_socket_tree_parses() {
        let t = CpuTopology::from_dir(&fixture("single-socket")).unwrap();
        assert_eq!(t.num_cpus(), 4);
        assert_eq!(t.num_cores(), 4);
        assert_eq!(t.num_nodes(), 1);
        assert!(t.cpus().iter().all(|c| c.smt_primary));
        // One shared L3: every CPU lands in the same LLC group.
        assert!(t.cpus().iter().all(|c| c.llc == t.cpus()[0].llc));
        let plan = t.plan(2, 1);
        assert_eq!(plan.shard_cpus, vec![0, 1]);
        // Pollers stay off the shard cores.
        for c in &plan.poller_cpus {
            assert!(!plan.shard_cpus.contains(c), "worker shares a shard core");
        }
    }

    #[test]
    fn dual_numa_tree_groups_by_node_and_llc() {
        let t = CpuTopology::from_dir(&fixture("dual-numa")).unwrap();
        assert_eq!(t.num_cpus(), 8);
        assert_eq!(t.num_nodes(), 2);
        // Two packages, two LLC groups, aligned with the nodes.
        for c in t.cpus() {
            assert_eq!(c.node, if c.id < 4 { 0 } else { 1 }, "cpu{}", c.id);
            assert_eq!(c.package, c.node);
        }
        let llc0 = t.cpus()[0].llc;
        let llc4 = t.cpus().iter().find(|c| c.id == 4).unwrap().llc;
        assert_ne!(llc0, llc4);
        // Four shards pack node 0 entirely before touching node 1.
        let plan = t.plan(4, 2);
        assert_eq!(plan.shard_cpus, vec![0, 1, 2, 3]);
        for c in &plan.poller_cpus {
            assert!(*c >= 4, "poller cpu{c} landed on the shard node");
        }
    }

    #[test]
    fn smt_tree_prefers_one_thread_per_core() {
        let t = CpuTopology::from_dir(&fixture("smt")).unwrap();
        assert_eq!(t.num_cpus(), 4);
        assert_eq!(t.num_cores(), 2);
        let primaries: Vec<usize> = t
            .cpus()
            .iter()
            .filter(|c| c.smt_primary)
            .map(|c| c.id)
            .collect();
        assert_eq!(primaries, vec![0, 1]); // siblings are (0,2) and (1,3)
                                           // Two shards take the two primaries — distinct physical cores —
                                           // and the spare SMT siblings absorb the pollers.
        let plan = t.plan(2, 2);
        assert_eq!(plan.shard_cpus, vec![0, 1]);
        for c in &plan.poller_cpus {
            assert!(*c >= 2, "poller cpu{c} took a primary thread");
        }
    }

    #[test]
    fn hotplug_hole_skips_the_offline_cpu() {
        let t = CpuTopology::from_dir(&fixture("hotplug-hole")).unwrap();
        assert_eq!(t.num_cpus(), 3);
        let ids: Vec<usize> = t.cpus().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 3]);
        // cpu3's sibling (cpu2) is offline, so cpu3 is its core's primary.
        assert!(t.cpus().iter().all(|c| c.smt_primary));
        // Oversubscribed plan wraps instead of panicking.
        let plan = t.plan(5, 2);
        assert_eq!(plan.shard_cpus.len(), 5);
        assert!(plan.shard_cpus.iter().all(|c| ids.contains(c)));
    }

    #[test]
    fn live_discovery_is_sane_on_linux() {
        if !Path::new("/sys/devices/system/cpu").is_dir() {
            return; // non-Linux CI: fixtures above still cover the parser
        }
        let t = CpuTopology::discover().unwrap();
        assert!(t.num_cpus() >= 1);
        assert!(t.num_cores() >= 1);
        let plan = t.plan(2, 1);
        assert_eq!(plan.shard_cpus.len(), 2);
    }
}
