//! The few Linux calls the benchmark needs that `std` does not expose:
//! nanosecond-timeout `ppoll` for the open-loop sender, per-thread timer
//! slack, and CPU clocks (this process's and the server's).  Declared
//! directly against the C library `std` already links, so the benchmark
//! needs no extra crate.

use std::os::raw::{c_int, c_long, c_ulong, c_void};
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn clock_getcpuclockid(pid: c_int, clock: *mut c_int) -> c_int;
}

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: c_int = 29;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// Waits until `fd` is ready for `events` or `timeout` passes.  Errors
/// (including `EINTR`) read as a timeout; the caller re-checks its state.
pub fn wait_fd(fd: c_int, events: i16, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out locals for the
    // whole call; `nfds` is 1 to match the single entry; a null sigmask
    // means "keep the current mask".
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Sets the calling thread's timer slack to 1 ns so sleeps until a send
/// time wake close to it (the default slack is 50 µs).
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's own timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// CPU time consumed so far by this process, all threads.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live local the kernel writes one timespec into.
    unsafe {
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts);
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by process `pid`, all threads, including
/// threads that have exited (the rayon shim's scoped workers do), at
/// nanosecond resolution: the process's CPU-time clock, which Linux lets
/// a process read for any other process of the same user.
pub fn pid_cpu(pid: u32) -> Option<Duration> {
    let mut clock: c_int = 0;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock` and `ts` are live locals the C library writes one
    // clock id and one timespec into.
    let ok = unsafe {
        clock_getcpuclockid(pid as c_int, &mut clock) == 0 && clock_gettime(clock, &mut ts) == 0
    };
    ok.then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}
