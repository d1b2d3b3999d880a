//! Thin, safe wrappers over the Linux readiness syscalls the event loop
//! needs: `epoll`, `eventfd`, `timerfd`, plus the two `rlimit`/`listen`
//! helpers the C10K paths use, the process CPU clock their idle-cost
//! entry reads, and the CPU-affinity calls behind `--pin-cores` with the
//! plan that assigns its CPUs. Hand-declared FFI — the workspace links no
//! external crates, and std already links libc, so these symbols resolve
//! without adding a dependency.
//!
//! Everything here is Linux-only (gated at the module declaration), and so
//! is serving: off Linux `Daemon::start` reports `Unsupported`.
//!
//! Ownership is RAII throughout: [`Poller`], [`EventFd`] and [`TimerFd`]
//! close their descriptor on drop. Registration does *not* own the
//! registered fd — the event loop keeps the `TcpStream`s and deregisters
//! before dropping them (the kernel would also drop the registration on
//! close, but being explicit keeps token reuse honest).

use std::io;
use std::os::raw::{c_int, c_uint, c_void};
use std::time::Duration;

pub type RawFd = c_int;

// ---- FFI surface ----

/// `struct epoll_event` is packed on x86_64 (and only there) so the 12-byte
/// layout matches the kernel ABI; other architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
    fn timerfd_settime(
        fd: c_int,
        flags: c_int,
        new_value: *const Itimerspec,
        old_value: *mut Itimerspec,
    ) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn clock_gettime(clockid: c_int, tp: *mut Timespec) -> c_int;
}

// ---- readiness and control constants (uapi values, stable ABI) ----

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered readiness: one event per transition, read/write to EAGAIN.
pub const EPOLLET: u32 = 1 << 31;
/// Wake only one of the epoll instances sharing a level-triggered fd — the
/// accept path's thundering-herd guard across the poller pool.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLL_CLOEXEC: c_int = 0x80000;
const EFD_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;
const TFD_CLOEXEC: c_int = 0x80000;
const TFD_NONBLOCK: c_int = 0x800;
const CLOCK_MONOTONIC: c_int = 1;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const RLIMIT_NOFILE: c_int = 7;

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Drain an 8-byte counter fd (eventfd/timerfd) without blocking. Returns
/// the counter value, or 0 if the fd had nothing pending.
fn read_counter(fd: RawFd) -> u64 {
    let mut buf = [0u8; 8];
    let n = unsafe { read(fd, buf.as_mut_ptr().cast::<c_void>(), 8) };
    if n == 8 {
        u64::from_le_bytes(buf)
    } else {
        0
    }
}

// ---- epoll ----

/// One epoll instance. `wait` fills a caller-owned event buffer; tokens are
/// the opaque `u64` the caller registered.
pub struct Poller {
    fd: RawFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
    }

    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument must be non-null on pre-2.6.9 kernels; passing
        // one unconditionally costs nothing.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block up to `timeout_ms` (-1 = forever) and return how many events
    /// were written into `events`. A signal interruption reports 0 events.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

// ---- eventfd ----

/// A cross-thread wakeup: any thread `wake()`s, the owning poller sees
/// `EPOLLIN` and `drain()`s. Non-blocking on both sides.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Post a wakeup. A full counter (EAGAIN) already guarantees a pending
    /// wake, so the error is ignorable by construction.
    pub fn wake(&self) {
        let one = 1u64.to_le_bytes();
        unsafe { write(self.fd, one.as_ptr().cast::<c_void>(), 8) };
    }

    /// Consume all pending wakeups.
    pub fn drain(&self) -> u64 {
        read_counter(self.fd)
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

// ---- timerfd ----

/// A timer that delivers expirations as fd readiness — how the WAL
/// group-commit window and the ingest-retry backoff live in the same
/// `epoll_wait` as the sockets.
pub struct TimerFd {
    fd: RawFd,
}

impl TimerFd {
    pub fn new() -> io::Result<TimerFd> {
        let fd = cvt(unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK) })?;
        Ok(TimerFd { fd })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    fn settime(&self, interval: Duration, first: Duration) -> io::Result<()> {
        let ts = |d: Duration| Timespec {
            tv_sec: d.as_secs() as i64,
            tv_nsec: d.subsec_nanos() as i64,
        };
        let spec = Itimerspec {
            it_interval: ts(interval),
            it_value: ts(first),
        };
        cvt(unsafe { timerfd_settime(self.fd, 0, &spec, std::ptr::null_mut()) }).map(|_| ())
    }

    /// Fire every `interval`, first expiration one interval from now.
    /// A zero interval would disarm, so it is clamped to 1 ms.
    pub fn set_periodic(&self, interval: Duration) -> io::Result<()> {
        let iv = interval.max(Duration::from_millis(1));
        self.settime(iv, iv)
    }

    /// Fire once after `delay` (clamped away from zero, which would disarm).
    pub fn set_oneshot(&self, delay: Duration) -> io::Result<()> {
        self.settime(Duration::ZERO, delay.max(Duration::from_nanos(1)))
    }

    pub fn disarm(&self) -> io::Result<()> {
        self.settime(Duration::ZERO, Duration::ZERO)
    }

    /// Consume pending expirations (must be called once readable, or an
    /// edge-triggered registration never fires again).
    pub fn drain(&self) -> u64 {
        read_counter(self.fd)
    }
}

impl Drop for TimerFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

// ---- CPU affinity (the `--pin-cores` placement path) ----

/// 1024-bit CPU mask, the glibc `cpu_set_t` size. Machines above 1024 CPUs
/// exist but are out of scope; `pin_current_thread` rejects them cleanly.
const CPU_SET_WORDS: usize = 16;

/// Pin the calling thread to a single CPU. `pid` 0 means "this thread" for
/// both affinity syscalls, so no gettid is needed.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cpu {cpu} beyond the {}-bit mask", CPU_SET_WORDS * 64),
        ));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1u64 << (cpu % 64);
    cvt(unsafe { sched_setaffinity(0, CPU_SET_WORDS * 8, mask.as_ptr()) }).map(|_| ())
}

/// The calling thread's allowed CPUs, ascending.
pub fn current_affinity() -> io::Result<Vec<usize>> {
    affinity_of(0)
}

/// The process's allowed CPUs, ascending: its main thread's mask, which
/// `cts-daemon` never pins — not the caller's, which may be a poller that
/// has already pinned itself.
pub fn process_affinity() -> io::Result<Vec<usize>> {
    affinity_of(std::process::id() as c_int)
}

fn affinity_of(pid: c_int) -> io::Result<Vec<usize>> {
    let mut mask = [0u64; CPU_SET_WORDS];
    cvt(unsafe { sched_getaffinity(pid, CPU_SET_WORDS * 8, mask.as_mut_ptr()) })?;
    let mut cpus = Vec::new();
    for (w, bits) in mask.iter().enumerate() {
        let mut bits = *bits;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            cpus.push(w * 64 + b);
            bits &= bits - 1;
        }
    }
    Ok(cpus)
}

/// The `--pin-cores` CPUs over `allowed`, the process's mask in order: shard
/// workers take the front, pollers the back, skipping the shard CPUs while
/// any other is left. Both wrap when the list is short. Empty assigns none.
pub fn pin_plan(allowed: &[usize], shards: usize, pollers: usize) -> (Vec<usize>, Vec<usize>) {
    if allowed.is_empty() {
        return Default::default();
    }
    let wrap = |i: usize| allowed[i % allowed.len()];
    let shard_cpus: Vec<usize> = (0..shards).map(wrap).collect();
    let free = |c: &&usize| !shard_cpus.contains(c);
    let spare: Vec<usize> = allowed.iter().rev().filter(free).copied().collect();
    let poller = |i: usize| spare.get(i % spare.len().max(1)).copied();
    let poller_cpus = (0..pollers)
        .map(|i| poller(i).unwrap_or_else(|| wrap(shards + i)))
        .collect();
    (shard_cpus, poller_cpus)
}

// ---- helpers for the C10K paths ----

/// Raise the listener's backlog beyond std's default 128 — a connect burst
/// of thousands otherwise sees resets before the accept loop catches up.
pub fn raise_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    cvt(unsafe { listen(fd, backlog) }).map(|_| ())
}

/// The soft `RLIMIT_NOFILE` after raising it to the hard limit (the usual
/// 1024 soft default is far below what holding thousands of sockets needs;
/// the hard limit is the real budget).
pub fn raise_nofile_to_hard() -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur < lim.rlim_max {
        let raised = Rlimit {
            rlim_cur: lim.rlim_max,
            rlim_max: lim.rlim_max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            lim.rlim_cur = lim.rlim_max;
        }
    }
    Ok(lim.rlim_cur)
}

/// CPU time this process has used so far, user + system over all threads,
/// at the nanosecond resolution of `CLOCK_PROCESS_CPUTIME_ID`.
pub fn process_cpu_time() -> io::Result<Duration> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    cvt(unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) })?;
    Ok(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_a_poller() {
        let poller = Poller::new().unwrap();
        let ev = EventFd::new().unwrap();
        poller.add(ev.fd(), EPOLLIN, 42).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        ev.wake();
        ev.wake();
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 42);
        assert_eq!(ev.drain(), 2); // both wakes coalesced in the counter
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn process_cpu_clock_moves_in_less_than_a_tick() {
        // A clock-tick counter moves in 10 ms steps; this clock resolves a
        // spin far shorter than that.
        let t0 = process_cpu_time().unwrap();
        let mut t1 = t0;
        while t1 == t0 {
            t1 = process_cpu_time().unwrap();
        }
        assert!(t1 - t0 < Duration::from_millis(5), "{t0:?} -> {t1:?}");
    }

    #[test]
    fn oneshot_timer_fires_once() {
        let poller = Poller::new().unwrap();
        let t = TimerFd::new().unwrap();
        poller.add(t.fd(), EPOLLIN, 7).unwrap();
        t.set_oneshot(Duration::from_millis(10)).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        let n = poller.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7);
        assert_eq!(t.drain(), 1);
        // Consumed and one-shot: no further readiness.
        assert_eq!(poller.wait(&mut events, 50).unwrap(), 0);
    }

    #[test]
    fn periodic_timer_keeps_firing_until_disarmed() {
        let poller = Poller::new().unwrap();
        let t = TimerFd::new().unwrap();
        poller.add(t.fd(), EPOLLIN, 9).unwrap();
        t.set_periodic(Duration::from_millis(5)).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        let mut fired = 0u64;
        for _ in 0..3 {
            if poller.wait(&mut events, 2000).unwrap() == 1 {
                fired += t.drain();
            }
        }
        assert!(fired >= 3, "periodic timer fired {fired} times");
        t.disarm().unwrap();
        t.drain();
        assert_eq!(poller.wait(&mut events, 30).unwrap(), 0);
    }

    #[test]
    fn modify_and_delete_registrations() {
        let poller = Poller::new().unwrap();
        let ev = EventFd::new().unwrap();
        poller.add(ev.fd(), 0, 1).unwrap(); // registered with no interest
        ev.wake();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        poller.modify(ev.fd(), EPOLLIN, 2).unwrap();
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!({ events[0].data }, 2);
        poller.delete(ev.fd()).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn nofile_limit_is_sane() {
        let n = raise_nofile_to_hard().unwrap();
        assert!(n >= 256, "nofile limit {n} too small to run anything");
    }

    #[test]
    fn pin_round_trips_through_getaffinity() {
        let before = current_affinity().unwrap();
        assert!(!before.is_empty());
        let target = before[0];
        pin_current_thread(target).unwrap();
        assert_eq!(current_affinity().unwrap(), vec![target]);
        // Restore the original mask so later tests on this thread are free.
        let mut mask = [0u64; CPU_SET_WORDS];
        for c in &before {
            mask[c / 64] |= 1u64 << (c % 64);
        }
        cvt(unsafe { sched_setaffinity(0, CPU_SET_WORDS * 8, mask.as_ptr()) }).unwrap();
        assert_eq!(current_affinity().unwrap(), before);
    }

    #[test]
    fn pin_rejects_out_of_range_cpu() {
        assert!(pin_current_thread(CPU_SET_WORDS * 64).is_err());
    }

    #[test]
    fn process_affinity_ignores_the_callers_pin() {
        let process = process_affinity().unwrap();
        assert!(!process.is_empty());
        let last = *process.last().unwrap();
        std::thread::spawn(move || {
            pin_current_thread(last).unwrap();
            assert_eq!(current_affinity().unwrap(), vec![last]);
            assert_eq!(process_affinity().unwrap(), process);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn plan_gives_shards_the_front_and_pollers_the_back() {
        let (shards, pollers) = pin_plan(&[0, 1, 2, 3, 4, 5], 2, 2);
        assert_eq!(shards, vec![0, 1]);
        assert_eq!(pollers, vec![5, 4]);
        // Each side alone, as the two call sites ask for it.
        assert_eq!(pin_plan(&[0, 1, 2, 3], 3, 0), (vec![0, 1, 2], vec![]));
        assert_eq!(pin_plan(&[0, 1, 2, 3], 0, 2), (vec![], vec![3, 2]));
    }

    #[test]
    fn plan_keeps_shards_and_pollers_apart_when_cpus_suffice() {
        for n in 2..=8usize {
            let allowed: Vec<usize> = (0..n).collect();
            for shards in 0..n {
                let (s, p) = pin_plan(&allowed, shards, n - shards);
                assert!(p.iter().all(|c| !s.contains(c)), "{n} cpus: {s:?} {p:?}");
                let mut all = [s, p].concat();
                all.sort_unstable();
                assert_eq!(all, allowed, "every cpu used once");
            }
        }
    }

    #[test]
    fn plan_wraps_on_short_lists() {
        assert_eq!(pin_plan(&[7], 3, 2), (vec![7, 7, 7], vec![7, 7]));
        let (s, p) = pin_plan(&[0, 1, 2], 4, 2);
        assert_eq!(s, vec![0, 1, 2, 0]);
        // No CPU is free of shards: pollers continue the wrap.
        assert_eq!(p, vec![1, 2]);
        let (s, p) = pin_plan(&[0, 1, 2], 2, 3);
        assert_eq!(s, vec![0, 1]);
        assert_eq!(p, vec![2, 2, 2]);
        assert_eq!(pin_plan(&[], 2, 2), (vec![], vec![]));
    }

    #[test]
    fn plan_uses_only_cpus_of_a_gapped_mask() {
        let allowed = [2, 3, 6, 7];
        for (shards, pollers) in [(2, 2), (4, 4), (1, 3), (6, 1)] {
            let (s, p) = pin_plan(&allowed, shards, pollers);
            assert_eq!((s.len(), p.len()), (shards, pollers));
            assert!(s.iter().chain(&p).all(|c| allowed.contains(c)));
        }
        assert_eq!(pin_plan(&allowed, 2, 2), (vec![2, 3], vec![7, 6]));
    }
}
