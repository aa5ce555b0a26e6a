//! A cooperative shutdown signal.
//!
//! [`ShutdownFlag`] is a cloneable handle over one shared atomic bit.
//! Long-running loops (worker pools, pollers) check
//! [`is_triggered`](ShutdownFlag::is_triggered) between work items; any
//! clone may call [`trigger`](ShutdownFlag::trigger) to ask all of them
//! to wind down. An accept loop blocked in `accept` is woken by
//! [`wake_accept`]. Triggering is idempotent, never blocks, and cannot
//! be undone — drain-and-exit is the only protocol.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A shared, one-way "please stop" bit.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A fresh, untriggered flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request shutdown. Returns `true` if this call was the first to
    /// trigger the flag.
    pub fn trigger(&self) -> bool {
        !self.0.swap(true, Ordering::SeqCst)
    }

    /// True once any clone has triggered.
    pub fn is_triggered(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Wake an accept loop blocked on the listener at `addr` by connecting
/// once (an unspecified address via loopback of its family). Errors are
/// ignored: a listener that is already gone has no loop left to wake.
pub fn wake_accept(mut addr: SocketAddr) {
    match &mut addr {
        SocketAddr::V4(a) if a.ip().is_unspecified() => a.set_ip(Ipv4Addr::LOCALHOST),
        SocketAddr::V6(a) if a.ip().is_unspecified() => a.set_ip(Ipv6Addr::LOCALHOST),
        _ => {}
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_bit() {
        let a = ShutdownFlag::new();
        let b = a.clone();
        assert!(!a.is_triggered() && !b.is_triggered());
        assert!(b.trigger(), "first trigger reports true");
        assert!(!a.trigger(), "second trigger reports false");
        assert!(a.is_triggered() && b.is_triggered());
    }

    #[test]
    fn triggers_across_threads() {
        let flag = ShutdownFlag::new();
        let seen = {
            let flag = flag.clone();
            std::thread::spawn(move || {
                while !flag.is_triggered() {
                    std::thread::yield_now();
                }
                true
            })
        };
        flag.trigger();
        assert!(seen.join().unwrap());
    }
}
