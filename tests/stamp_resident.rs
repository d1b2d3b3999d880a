//! Retained stamp history costs one copy of its words in resident memory.
//!
//! A live engine publishes an epoch every few thousand events and keeps
//! the last few readable. The epochs share the stamp history, so what they
//! hold resident together should be about the words the stamps store —
//! `SpaceReport`'s `cluster_elements` at 4 bytes each — plus a record per
//! event, and nothing that grows with the number of epochs held or with
//! how often the history has been moved to a bigger buffer.
//!
//! This file holds a single test so that it runs in a process of its own:
//! the resident set it samples (`VmRSS`) is the whole process's.

use cts_core::cluster::{Encoding, SpaceReport};
use cts_core::strategy::MergeOnFirst;
use cts_core::ClusterEngine;
use cts_workloads::web::ShardedWebServer;
use cts_workloads::Workload;
use std::collections::VecDeque;

/// Epoch cadence and retention of the daemon's defaults.
const PUBLISH_EVERY: usize = 4096;
const RETAINED: usize = 8;

/// Bytes charged per event for the record that locates its stamp.
const RECORD_BYTES: u64 = 12;

/// Resident bytes the bound allows beyond the stamp history: 16 MiB.
///
/// What an engine keeps besides its stamps is small and does not grow with
/// history: the Fidge/Mattern frontier (`N` clocks of `N` words, 350 KiB
/// at 296 processes), the clocks of messages in flight, the cluster
/// versions and the cluster-receive lists (8 bytes per cluster receive).
/// Records double in place, so up to two generations of them (12 bytes
/// per event each, 2 MiB apiece here) can be resident while a retained
/// epoch holds the older one. The rest is the allocator: freed clocks and
/// half-touched pages at the tops of the word arena's chunks. 16 MiB
/// covers all of it with room. A log that deep-copies its stamps whenever
/// it doubles under a retained epoch peaks at about 1.8 copies of them
/// (152 MiB of growth for these 86 MiB), 37 MiB over the bound.
const SLACK: u64 = 16 << 20;

/// This process's resident set in bytes (`VmRSS`).
fn vm_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line");
    kb << 10
}

#[test]
fn retained_epochs_hold_one_copy_of_the_stamp_words() {
    if !cfg!(target_os = "linux") {
        eprintln!("skipped: VmRSS is read from /proc/self/status, which only Linux has");
        return;
    }
    // The `wide_sharded` benchmark computation: 296 processes, 180 000
    // events.
    let trace = ShardedWebServer {
        shards: 8,
        clients_per_shard: 24,
        workers_per_shard: 11,
        requests: 18_000,
        affinity: 0.6,
        redirect: 0.05,
    }
    .generate(1);
    let n = trace.num_processes();
    let before = vm_rss();
    let mut eng = ClusterEngine::new(n, MergeOnFirst::new(8));
    let mut retained = VecDeque::new();
    let mut peak = before;
    for (i, &ev) in trace.events().iter().enumerate() {
        eng.accept(ev);
        if (i + 1) % PUBLISH_EVERY == 0 {
            retained.push_back(eng.snapshot());
            if retained.len() > RETAINED {
                retained.pop_front();
            }
            peak = peak.max(vm_rss());
        }
    }
    let cts = eng.snapshot();
    let events = cts.stamps().len() as u64;
    let words = SpaceReport::measure(&cts, Encoding::Actual { n: n as usize }).cluster_elements;
    let history = 4 * words + RECORD_BYTES * events;
    let growth = peak - before;
    let bound = history + history * 15 / 100 + SLACK;
    let mib = |b: u64| b as f64 / f64::from(1 << 20);
    eprintln!(
        "{events} events, {:.1} MiB of stamp history, peak growth {:.1} MiB ({:.2}x), bound {:.1} MiB",
        mib(history),
        mib(growth),
        growth as f64 / history as f64,
        mib(bound)
    );
    assert!(
        growth <= bound,
        "resident growth {:.1} MiB exceeds 1.15 x {:.1} MiB of stamp history + {:.0} MiB",
        mib(growth),
        mib(history),
        mib(SLACK)
    );
    drop(retained);
}
