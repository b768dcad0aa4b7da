//! The open-loop generator: pre-encoded HTTP/1.1 requests sent on a fixed
//! schedule over at most `nproc` keep-alive connections, one thread each.
//!
//! A request is written when it is due whether or not earlier responses
//! have arrived (requests pipeline on the connection), and its latency is
//! counted from the time it was *due*, not the time it was written — so a
//! stall in the server delays every later request's clock, and the
//! generator's own lateness is reported separately as lag.

use crate::sys;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long before a due send the sender stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(30);

/// One scheduled request: due `at` after the run starts, sending
/// `payloads[payload]`.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub at: Duration,
    pub payload: usize,
}

/// What to keep of a response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capture {
    Never,
    /// The first body seen for this payload (per connection).
    First,
    Always,
}

/// The fate of one op.  `status == 0` means no response arrived before the
/// drain deadline.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub status: u16,
    pub latency: Duration,
    pub lag: Duration,
    pub body: Option<String>,
}

pub struct RunResult {
    /// In schedule order.
    pub outcomes: Vec<Outcome>,
    /// CPU the generator process used during the run.
    pub cpu: Duration,
}

/// Encodes a POST request the server can pipeline.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends `ops` (sorted by `at`) and waits up to `drain` after the last
/// send for outstanding responses.
pub fn run(
    addr: SocketAddr,
    payloads: &[Vec<u8>],
    capture: &[Capture],
    ops: &[Op],
    drain: Duration,
) -> std::io::Result<RunResult> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    let mut streams = Vec::new();
    for _ in 0..threads {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        streams.push(stream);
    }
    let cpu_before = sys::process_cpu();
    // A short lead so every thread is parked before the first send.
    let start = Instant::now() + Duration::from_millis(20);
    let per_thread: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(t, stream)| {
                let mine: Vec<usize> = (t..ops.len()).step_by(threads).collect();
                scope.spawn(move || connection(stream, payloads, capture, ops, &mine, start, drain))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let cpu = sys::process_cpu().saturating_sub(cpu_before);
    let mut outcomes = vec![Outcome::default(); ops.len()];
    for (i, outcome) in per_thread.into_iter().flatten() {
        outcomes[i] = outcome;
    }
    Ok(RunResult { outcomes, cpu })
}

/// One connection's send/receive loop over its share of the schedule.
fn connection(
    mut stream: TcpStream,
    payloads: &[Vec<u8>],
    capture: &[Capture],
    ops: &[Op],
    mine: &[usize],
    start: Instant,
    drain: Duration,
) -> Vec<(usize, Outcome)> {
    sys::tight_timer_slack();
    let fd = stream.as_raw_fd();
    let mut results: Vec<(usize, Outcome)> = Vec::with_capacity(mine.len());
    let mut seen = vec![false; payloads.len()];
    // (op index, due instant, lag) of requests written but not answered.
    let mut pending: VecDeque<(usize, Instant, Duration)> = VecDeque::new();
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut next = 0usize;
    let last_due = mine.last().map(|&i| start + ops[i].at).unwrap_or(start);
    let deadline = last_due + drain;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut broken = false;
    loop {
        let now = Instant::now();
        while next < mine.len() && start + ops[mine[next]].at <= now {
            let i = mine[next];
            let due = start + ops[i].at;
            out.extend_from_slice(&payloads[ops[i].payload]);
            pending.push_back((i, due, now - due));
            next += 1;
        }
        if written < out.len() && !broken {
            match stream.write(&out[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => broken = true,
            }
            if written == out.len() {
                out.clear();
                written = 0;
            }
        }
        let mut progressed = false;
        if !broken {
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        inbuf.extend_from_slice(&chunk[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
        if progressed {
            let now = Instant::now();
            let mut consumed = 0usize;
            while let Some((status, body, len)) = parse_response(&inbuf[consumed..]) {
                consumed += len;
                let Some((i, due, lag)) = pending.pop_front() else {
                    break;
                };
                let payload = ops[i].payload;
                let keep = match capture[payload] {
                    Capture::Never => false,
                    Capture::Always => true,
                    Capture::First => !std::mem::replace(&mut seen[payload], true),
                };
                results.push((
                    i,
                    Outcome {
                        status,
                        latency: now - due,
                        lag,
                        body: keep.then(|| String::from_utf8_lossy(body).into_owned()),
                    },
                ));
            }
            inbuf.drain(..consumed);
        }
        let now = Instant::now();
        let all_sent = next == mine.len();
        if (all_sent && pending.is_empty()) || broken || now >= deadline {
            break;
        }
        if !progressed {
            let wake = if all_sent {
                deadline
            } else {
                start + ops[mine[next]].at
            };
            let wait = wake.saturating_duration_since(now);
            // Sleep until shortly before the next send is due, then spin:
            // waking from a sleep takes tens of µs on a virtual CPU.
            if wait > SPIN || written < out.len() {
                let events = if written < out.len() {
                    sys::POLLIN | sys::POLLOUT
                } else {
                    sys::POLLIN
                };
                sys::wait_fd(
                    fd,
                    events,
                    wait.saturating_sub(SPIN).min(Duration::from_millis(50)),
                );
            } else {
                std::hint::spin_loop();
            }
        }
    }
    // Whatever is still pending (or was never sent) gets no response.
    for (i, _, lag) in pending {
        results.push((
            i,
            Outcome {
                lag,
                ..Outcome::default()
            },
        ));
    }
    for &i in &mine[next..] {
        results.push((i, Outcome::default()));
    }
    results
}

/// Parses one complete response at the front of `buf`: `(status, body,
/// bytes consumed)`, or `None` while it is incomplete.
fn parse_response(buf: &[u8]) -> Option<(u16, &[u8], usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.get(9..12)?.parse().ok()?;
    let length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let end = head_end + length;
    (buf.len() >= end).then(|| (status, &buf[head_end..end], end))
}
