//! Deterministic network fault injection: a seeded in-process TCP proxy.
//!
//! The network analogue of [`failpoint`](crate::failpoint): where
//! `FaultMedia` reproduces the inconvenient ways disks fail, this module
//! reproduces the inconvenient ways *networks* fail — and does it
//! deterministically, so a resilience test can assert recovery behaviour
//! under a pinned fault schedule instead of whatever a flaky LAN
//! happened to serve up.
//!
//! [`ChaosProxy`] fronts a real TCP listener (a shard server in the
//! cluster tests): clients connect to the proxy's address, the proxy
//! connects onward to the upstream and pumps bytes both ways. Each
//! accepted connection is assigned a [`Fault`] drawn reproducibly from
//! the proxy's [`FaultPlan`] — a pure function of `(seed, connection
//! index)`, so the same seed always yields the same fault schedule:
//!
//! - [`Fault::Refuse`] — accept, then close immediately: the client's
//!   connect succeeds but its first exchange dies (the closest a
//!   userspace proxy gets to a kernel connect-refusal).
//! - [`Fault::BlackHole`] — accept and *read* the client's bytes, but
//!   never answer (the slow-loris shape: the connection looks alive,
//!   nothing ever comes back).
//! - [`Fault::Delay`] — forward faithfully, but hold each upstream
//!   *response* for a fixed latency plus seeded jitter. Response
//!   boundaries are detected from the `Content-Length` framing this
//!   workspace's HTTP always emits, so every request on a kept-alive
//!   connection pays the latency, not just the first.
//! - [`Fault::Reset`] — forward `after_bytes` of response bytes, then
//!   kill the connection abruptly mid-stream.
//! - [`Fault::ShortWrite`] — forward only the first `keep_bytes` of
//!   response bytes, then close: the wire analogue of a torn write.
//! - [`Fault::Throttle`] — forward at a byte rate, modelling a
//!   congested or drip-feeding peer. A tiny rate is the classic
//!   read-timeout defeater: every read makes *some* progress, so only
//!   deadline-anchored clients ever give up.
//!
//! Faults shape the **upstream → client** direction (the response
//! path); the request path is forwarded verbatim, so the upstream sees
//! well-formed requests and the client sees a sick server. Counters in
//! [`ChaosStats`] record what was actually injected, letting tests
//! assert both the schedule and its effects.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::rng::DetRng;
use crate::shutdown::{wake_accept, ShutdownFlag};

/// How one proxied connection misbehaves (or doesn't).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward faithfully in both directions.
    None,
    /// Accept, then close immediately — connect-level refusal.
    Refuse,
    /// Accept and consume the request, but never answer.
    BlackHole,
    /// Hold each response for `ms` plus a seeded jitter in
    /// `[0, jitter_ms]` before forwarding it.
    Delay {
        /// Fixed latency per response, milliseconds.
        ms: u64,
        /// Upper bound of the per-response seeded jitter, milliseconds.
        jitter_ms: u64,
    },
    /// Forward `after_bytes` response bytes, then kill the connection.
    Reset {
        /// Response bytes forwarded before the connection dies.
        after_bytes: u64,
    },
    /// Forward only the first `keep_bytes` response bytes, then close
    /// cleanly — a truncated (torn) response.
    ShortWrite {
        /// Response bytes the client receives before EOF.
        keep_bytes: u64,
    },
    /// Forward responses at `bytes_per_sec` — a drip-feeding peer.
    Throttle {
        /// Forwarding rate, bytes per second (min 1).
        bytes_per_sec: u64,
    },
}

/// A reproducible per-connection fault assignment: weighted choices
/// drawn from a `u64` seed. [`FaultPlan::fault_for`] is a pure function
/// of `(seed, connection_index)`, so two proxies with the same plan
/// inject the same schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    choices: Vec<(u32, Fault)>,
}

impl FaultPlan {
    /// Every connection passes through untouched.
    pub fn healthy() -> Self {
        Self::always(Fault::None)
    }

    /// Every connection gets the same fault.
    pub fn always(fault: Fault) -> Self {
        Self {
            seed: 0,
            choices: vec![(1, fault)],
        }
    }

    /// Weighted faults drawn per connection from `seed`. Zero-weight
    /// choices are dropped; an empty (or all-zero) list means healthy.
    pub fn seeded(seed: u64, choices: Vec<(u32, Fault)>) -> Self {
        let choices: Vec<(u32, Fault)> = choices.into_iter().filter(|(w, _)| *w > 0).collect();
        if choices.is_empty() {
            return Self::healthy();
        }
        Self { seed, choices }
    }

    /// The fault assigned to connection number `conn` (0-based accept
    /// order). Pure: calling it twice returns the same fault.
    pub fn fault_for(&self, conn: u64) -> Fault {
        if self.choices.len() == 1 {
            return self.choices[0].1;
        }
        let total: u64 = self.choices.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut rng = DetRng::new(self.seed).fork(conn);
        let mut x = rng.below(total as usize) as u64;
        for (w, f) in &self.choices {
            let w = u64::from(*w);
            if x < w {
                return *f;
            }
            x -= w;
        }
        self.choices[self.choices.len() - 1].1
    }

    /// The jitter stream for connection `conn` — decorrelated from the
    /// fault-choice draw so adding choices never shifts the jitter.
    fn jitter_rng(&self, conn: u64) -> DetRng {
        DetRng::new(self.seed).fork(conn).fork(0xD1E7)
    }
}

/// What the proxy actually injected, as lock-free counters.
#[derive(Debug, Default)]
pub struct ChaosStats {
    connections: AtomicU64,
    passthrough: AtomicU64,
    refused: AtomicU64,
    black_holed: AtomicU64,
    delays: AtomicU64,
    resets: AtomicU64,
    short_writes: AtomicU64,
    throttled: AtomicU64,
    bytes_to_upstream: AtomicU64,
    bytes_to_client: AtomicU64,
}

macro_rules! stat_getters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        $( $(#[$doc])* pub fn $name(&self) -> u64 { self.$name.load(Ordering::Relaxed) } )*
    };
}

impl ChaosStats {
    stat_getters! {
        /// Connections accepted.
        connections,
        /// Connections proxied with no fault.
        passthrough,
        /// Connections refused (accept-then-close).
        refused,
        /// Connections black-holed (request eaten, no answer).
        black_holed,
        /// Responses held for injected latency.
        delays,
        /// Connections killed mid-response.
        resets,
        /// Responses truncated by a short write.
        short_writes,
        /// Connections forwarded under a byte-rate throttle.
        throttled,
        /// Request bytes forwarded to the upstream.
        bytes_to_upstream,
        /// Response bytes forwarded back to clients.
        bytes_to_client,
    }
}

/// A running fault-injection proxy. Dropping it stops the accept loop
/// (waking it with [`wake_accept`]); in-flight connection pumps notice
/// the stop flag within ~100 ms.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    stats: Arc<ChaosStats>,
    plan: Arc<Mutex<FaultPlan>>,
    stop: ShutdownFlag,
    accept_thread: Option<JoinHandle<()>>,
}

/// Granularity at which pumps poll the stop flag.
const POLL: Duration = Duration::from_millis(50);

impl ChaosProxy {
    /// Bind an ephemeral local port and start proxying to `upstream`
    /// under `plan`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ChaosStats::default());
        let plan = Arc::new(Mutex::new(plan));
        let stop = ShutdownFlag::new();
        let accept_thread = {
            let (stats, plan, stop) = (Arc::clone(&stats), Arc::clone(&plan), stop.clone());
            std::thread::spawn(move || accept_loop(&listener, upstream, &plan, &stats, &stop))
        };
        Ok(Self {
            addr,
            stats,
            plan,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The proxy's injection counters.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Swap the fault plan for future connections (healing a "sick"
    /// replica mid-test). The connection counter keeps running.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock().unwrap_or_else(|e| e.into_inner()) = plan;
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.trigger();
        wake_accept(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &Arc<Mutex<FaultPlan>>,
    stats: &Arc<ChaosStats>,
    stop: &ShutdownFlag,
) {
    let mut conn: u64 = 0;
    while !stop.is_triggered() {
        match listener.accept() {
            // The wake connection from `Drop`: never counted or served.
            Ok(_) if stop.is_triggered() => break,
            Ok((client, _)) => {
                let (fault, rng) = {
                    let plan = plan.lock().unwrap_or_else(|e| e.into_inner());
                    (plan.fault_for(conn), plan.jitter_rng(conn))
                };
                conn += 1;
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let (stats, stop) = (Arc::clone(stats), stop.clone());
                // Detached: pumps poll `stop` and exit promptly when the
                // proxy is dropped.
                std::thread::spawn(move || handle_conn(client, upstream, fault, rng, stats, &stop));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn handle_conn(
    client: TcpStream,
    upstream: SocketAddr,
    fault: Fault,
    rng: DetRng,
    stats: Arc<ChaosStats>,
    stop: &ShutdownFlag,
) {
    match fault {
        Fault::Refuse => {
            stats.refused.fetch_add(1, Ordering::Relaxed);
            drop(client); // accept-then-close: the client's exchange dies
            return;
        }
        Fault::BlackHole => {
            stats.black_holed.fetch_add(1, Ordering::Relaxed);
            black_hole(client, stop);
            return;
        }
        Fault::None => {
            stats.passthrough.fetch_add(1, Ordering::Relaxed);
        }
        Fault::Throttle { .. } => {
            stats.throttled.fetch_add(1, Ordering::Relaxed);
        }
        // Delay / Reset / ShortWrite count when they actually fire,
        // inside the shaped pump.
        _ => {}
    }
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) else {
        return; // upstream really is down; the client sees the close
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let (Ok(client_rx), Ok(server_tx)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    // Request path: verbatim, on its own thread.
    let request_pump = {
        let stop = stop.clone();
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || pump_plain(client_rx, server_tx, &stop, &stats.bytes_to_upstream))
    };
    // Response path: fault-shaped, on this thread.
    pump_shaped(server, client, fault, rng, &stats, stop);
    let _ = request_pump.join();
}

/// Read and discard until the peer closes or the proxy stops: the
/// connection stays "alive" but nothing is ever answered.
fn black_hole(stream: TcpStream, stop: &ShutdownFlag) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut sink = [0u8; 4096];
    let mut s = &stream;
    while !stop.is_triggered() {
        match s.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Forward bytes verbatim `from → to`, polling `stop`. On EOF the
/// destination's write side is shut down so the peer sees it.
fn pump_plain(from: TcpStream, to: TcpStream, stop: &ShutdownFlag, forwarded: &AtomicU64) {
    let _ = from.set_read_timeout(Some(POLL));
    let mut buf = [0u8; 4096];
    let (mut rx, mut tx) = (&from, &to);
    while !stop.is_triggered() {
        match rx.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if tx.write_all(&buf[..n]).is_err() {
                    break;
                }
                forwarded.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// Track response boundaries in a `Content-Length`-framed HTTP/1.1
/// byte stream, so per-response faults (latency) fire once per response
/// even on kept-alive connections. A response without a
/// `Content-Length` header is treated as close-delimited (the rest of
/// the stream is its body).
#[derive(Debug)]
enum RespFramer {
    /// Accumulating head bytes of the next response.
    Head(Vec<u8>),
    /// Inside a body with this many bytes left.
    Body(u64),
}

impl RespFramer {
    fn new() -> Self {
        RespFramer::Head(Vec::new())
    }

    /// Is the next byte the start of a new response?
    fn at_boundary(&self) -> bool {
        matches!(self, RespFramer::Head(buf) if buf.is_empty())
    }

    /// Advance the framing state over forwarded bytes.
    fn advance(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            match self {
                RespFramer::Head(buf) => {
                    buf.extend_from_slice(bytes);
                    bytes = &[];
                    if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                        let body_started = buf.len() as u64 - (pos as u64 + 4);
                        let len = content_length(&buf[..pos]).unwrap_or(u64::MAX);
                        let remaining = len.saturating_sub(body_started);
                        *self = if remaining == 0 {
                            RespFramer::new()
                        } else {
                            RespFramer::Body(remaining)
                        };
                    } else if buf.len() > 64 * 1024 {
                        // Not something we can frame; stop trying.
                        *self = RespFramer::Body(u64::MAX);
                    }
                }
                RespFramer::Body(remaining) => {
                    let take = (*remaining).min(bytes.len() as u64);
                    *remaining -= take;
                    bytes = &bytes[take as usize..];
                    if *remaining == 0 {
                        *self = RespFramer::new();
                    }
                }
            }
        }
    }
}

/// Parse `Content-Length` (case-insensitive) out of a response head.
fn content_length(head: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(head).ok()?;
    text.split("\r\n").skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })
}

/// Forward response bytes `from → to` under the connection's fault.
fn pump_shaped(
    from: TcpStream,
    to: TcpStream,
    fault: Fault,
    mut rng: DetRng,
    stats: &ChaosStats,
    stop: &ShutdownFlag,
) {
    let _ = from.set_read_timeout(Some(POLL));
    let mut buf = [0u8; 4096];
    let (mut rx, mut tx) = (&from, &to);
    let mut forwarded: u64 = 0;
    let mut framer = RespFramer::new();
    'outer: while !stop.is_triggered() {
        let n = match rx.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue;
            }
            Err(_) => break,
        };
        let chunk = &buf[..n];
        match fault {
            Fault::None | Fault::Refuse | Fault::BlackHole => {
                if tx.write_all(chunk).is_err() {
                    break;
                }
            }
            Fault::Delay { ms, jitter_ms } => {
                if framer.at_boundary() {
                    let jitter = if jitter_ms > 0 { rng.below(jitter_ms as usize + 1) as u64 } else { 0 };
                    stats.delays.fetch_add(1, Ordering::Relaxed);
                    sleep_unless_stopped(Duration::from_millis(ms + jitter), stop);
                }
                framer.advance(chunk);
                if tx.write_all(chunk).is_err() {
                    break;
                }
            }
            Fault::Throttle { bytes_per_sec } => {
                let rate = bytes_per_sec.max(1);
                // Fine-grained slices so a low rate *drips*: many small
                // reads each arriving "in time" — exactly the pattern
                // that defeats per-syscall read timeouts.
                for slice in chunk.chunks(64) {
                    if stop.is_triggered() || tx.write_all(slice).is_err() {
                        break 'outer;
                    }
                    let pause = Duration::from_secs_f64(slice.len() as f64 / rate as f64);
                    sleep_unless_stopped(pause, stop);
                }
            }
            Fault::Reset { after_bytes } => {
                let room = after_bytes.saturating_sub(forwarded);
                let take = (room as usize).min(chunk.len());
                if take > 0 && tx.write_all(&chunk[..take]).is_err() {
                    break;
                }
                if (chunk.len() as u64) > room {
                    stats.resets.fetch_add(1, Ordering::Relaxed);
                    stats.bytes_to_client.fetch_add(take as u64, Ordering::Relaxed);
                    break; // abrupt: both sides shut down below, mid-response
                }
            }
            Fault::ShortWrite { keep_bytes } => {
                let room = keep_bytes.saturating_sub(forwarded);
                let take = (room as usize).min(chunk.len());
                if take > 0 && tx.write_all(&chunk[..take]).is_err() {
                    break;
                }
                if (chunk.len() as u64) > room {
                    stats.short_writes.fetch_add(1, Ordering::Relaxed);
                    stats.bytes_to_client.fetch_add(take as u64, Ordering::Relaxed);
                    break; // clean close after the torn prefix
                }
            }
        }
        forwarded += n as u64;
        stats.bytes_to_client.fetch_add(n as u64, Ordering::Relaxed);
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Sleep in stop-aware slices.
fn sleep_unless_stopped(total: Duration, stop: &ShutdownFlag) {
    let end = Instant::now() + total;
    while !stop.is_triggered() {
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        std::thread::sleep(left.min(POLL));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A running test upstream; dropping it stops its accept loop.
    struct Upstream {
        addr: SocketAddr,
        stop: ShutdownFlag,
    }

    impl Drop for Upstream {
        fn drop(&mut self) {
            self.stop.trigger();
            wake_accept(self.addr);
        }
    }

    /// A one-shot echo-ish HTTP upstream: answers every request with a
    /// fixed `Content-Length`-framed body, keep-alive.
    fn upstream(body: &'static str) -> Upstream {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let addr = listener.local_addr().expect("addr");
        let stop = ShutdownFlag::new();
        let stop2 = stop.clone();
        std::thread::spawn(move || {
            while !stop2.is_triggered() {
                match listener.accept() {
                    Ok(_) if stop2.is_triggered() => break,
                    Ok((stream, _)) => {
                        let stop3 = stop2.clone();
                        std::thread::spawn(move || serve_conn(stream, body, &stop3));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        });
        Upstream { addr, stop }
    }

    fn serve_conn(stream: TcpStream, body: &str, stop: &ShutdownFlag) {
        let _ = stream.set_read_timeout(Some(POLL));
        let mut s = &stream;
        let mut buf = [0u8; 4096];
        let mut pending = Vec::new();
        while !stop.is_triggered() {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    pending.extend_from_slice(&buf[..n]);
                    // One response per double-CRLF seen (requests here
                    // carry no bodies).
                    while let Some(pos) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                        pending.drain(..pos + 4);
                        let resp = format!(
                            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
                            body.len(),
                            body
                        );
                        if s.write_all(resp.as_bytes()).is_err() {
                            return;
                        }
                    }
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
        }
    }

    fn get(addr: SocketAddr, timeout: Duration) -> io::Result<String> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        let mut s = &stream;
        s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")?;
        let mut out = String::new();
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; 4096];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    out.push_str(&String::from_utf8_lossy(&buf[..n]));
                    if out.contains("BODY") || Instant::now() >= deadline {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        Ok(out)
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_seed_and_index() {
        let choices = vec![
            (3, Fault::None),
            (1, Fault::Refuse),
            (1, Fault::ShortWrite { keep_bytes: 10 }),
            (1, Fault::Delay { ms: 5, jitter_ms: 5 }),
        ];
        let a = FaultPlan::seeded(42, choices.clone());
        let b = FaultPlan::seeded(42, choices.clone());
        let c = FaultPlan::seeded(43, choices);
        let seq = |p: &FaultPlan| (0..200).map(|i| p.fault_for(i)).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b), "same seed, same schedule");
        assert_ne!(seq(&a), seq(&c), "different seed, different schedule");
        // Pure: re-asking for the same connection never drifts.
        assert_eq!(a.fault_for(7), a.fault_for(7));
        // Every weighted class actually appears in a 200-draw schedule.
        let s = seq(&a);
        assert!(s.contains(&Fault::None));
        assert!(s.contains(&Fault::Refuse));
    }

    #[test]
    fn passthrough_forwards_both_ways() {
        let up = upstream("BODY");
        let proxy = ChaosProxy::spawn(up.addr, FaultPlan::healthy()).expect("spawn");
        let resp = get(proxy.addr(), Duration::from_secs(2)).expect("get");
        assert!(resp.contains("200 OK"), "{resp}");
        assert!(resp.contains("BODY"), "{resp}");
        assert_eq!(proxy.stats().connections(), 1);
        assert_eq!(proxy.stats().passthrough(), 1);
    }

    #[test]
    fn refuse_kills_the_exchange() {
        let up = upstream("BODY");
        let proxy = ChaosProxy::spawn(up.addr, FaultPlan::always(Fault::Refuse)).expect("spawn");
        let resp = get(proxy.addr(), Duration::from_millis(500)).unwrap_or_default();
        assert!(!resp.contains("200 OK"), "refused connection answered: {resp}");
        assert_eq!(proxy.stats().refused(), 1);
    }

    #[test]
    fn black_hole_accepts_but_never_answers() {
        let up = upstream("BODY");
        let proxy = ChaosProxy::spawn(up.addr, FaultPlan::always(Fault::BlackHole)).expect("spawn");
        let t = Instant::now();
        let resp = get(proxy.addr(), Duration::from_millis(300)).unwrap_or_default();
        assert!(resp.is_empty(), "black hole leaked bytes: {resp}");
        assert!(t.elapsed() >= Duration::from_millis(250), "client gave up early");
        assert_eq!(proxy.stats().black_holed(), 1);
    }

    #[test]
    fn short_write_truncates_the_response() {
        let up = upstream("BODY");
        let proxy = ChaosProxy::spawn(up.addr, FaultPlan::always(Fault::ShortWrite { keep_bytes: 12 }))
            .expect("spawn");
        let resp = get(proxy.addr(), Duration::from_secs(2)).unwrap_or_default();
        assert!(resp.len() <= 12, "kept {} bytes: {resp:?}", resp.len());
        assert_eq!(proxy.stats().short_writes(), 1);
    }

    #[test]
    fn delay_holds_every_response_on_a_kept_alive_connection() {
        let up = upstream("BODY");
        let proxy = ChaosProxy::spawn(up.addr, FaultPlan::always(Fault::Delay { ms: 60, jitter_ms: 0 }))
            .expect("spawn");
        let timeout = Duration::from_secs(2);
        let stream = TcpStream::connect_timeout(&proxy.addr(), timeout).expect("connect");
        stream.set_read_timeout(Some(timeout)).expect("timeout");
        let mut s = &stream;
        let mut buf = [0u8; 4096];
        let mut latencies = Vec::new();
        for _ in 0..2 {
            let t = Instant::now();
            s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
            let mut got = String::new();
            while !got.contains("BODY") {
                let n = s.read(&mut buf).expect("read");
                assert!(n > 0, "EOF mid-response");
                got.push_str(&String::from_utf8_lossy(&buf[..n]));
            }
            latencies.push(t.elapsed());
        }
        for (i, l) in latencies.iter().enumerate() {
            assert!(
                *l >= Duration::from_millis(55),
                "request {i} answered in {l:?} — delay must hit every response, not just the first"
            );
        }
        assert_eq!(proxy.stats().delays(), 2);
    }

    #[test]
    fn set_plan_heals_future_connections() {
        let up = upstream("BODY");
        let proxy = ChaosProxy::spawn(up.addr, FaultPlan::always(Fault::Refuse)).expect("spawn");
        let sick = get(proxy.addr(), Duration::from_millis(300)).unwrap_or_default();
        assert!(!sick.contains("200 OK"));
        proxy.set_plan(FaultPlan::healthy());
        let healed = get(proxy.addr(), Duration::from_secs(2)).expect("healed get");
        assert!(healed.contains("200 OK"), "{healed}");
    }

    #[test]
    fn framer_tracks_response_boundaries() {
        let mut f = RespFramer::new();
        assert!(f.at_boundary());
        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nBODY";
        f.advance(&resp[..10]);
        assert!(!f.at_boundary(), "mid-head");
        f.advance(&resp[10..resp.len() - 2]);
        assert!(!f.at_boundary(), "mid-body");
        f.advance(&resp[resp.len() - 2..]);
        assert!(f.at_boundary(), "after a full response");
        // Split across responses in one chunk.
        let two = [&resp[..], &resp[..]].concat();
        f.advance(&two);
        assert!(f.at_boundary());
    }
}
