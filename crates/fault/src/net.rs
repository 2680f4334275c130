//! Deterministic network fault injection: a seed-replayable TCP proxy.
//!
//! [`NetProxy`] sits between a client and an upstream server and
//! applies one [`NetFault`] per accepted connection, chosen by the
//! connection's accept index from a seeded [`NetFaultPlan`]. The same
//! seed always yields the same fault parameters in the same order, so
//! a chaos-test failure replays exactly from its seed (the accept
//! *order* under real concurrency is the only nondeterminism, which is
//! why plans assign faults by index instead of by wall clock).
//!
//! The fault model mirrors what real networks do to an HTTP server:
//!
//! * **Slow loris** ([`NetFault::SlowLoris`]): the client's request
//!   bytes trickle upstream a few bytes at a time with a delay between
//!   chunks — a slow or adversarial writer. The server must bound the
//!   read with a timeout instead of parking a handler thread forever.
//! * **Torn reply** ([`NetFault::TornReply`]): the proxy forwards only
//!   a prefix of the server's response and then closes both directions
//!   — a connection dying mid-response. The *client* sees torn bytes;
//!   the test asserts such responses never parse as a complete `200`.
//! * **Abort** ([`NetFault::Abort`]): the connection is closed abruptly
//!   after a prefix of the *request* has been forwarded — a client
//!   reset while the server is still reading. The server must treat it
//!   as an I/O error, not a crash.
//! * **Stalled client** ([`NetFault::StalledClient`]): response bytes
//!   are held for a while before being forwarded — a reader that stops
//!   draining its socket. Bounded server-side write buffering plus the
//!   reply path's timeout keep worker state bounded.

use mb_common::Rng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on how long a proxy pump thread blocks in one read; this
/// is what bounds the proxy's wall clock after the test stops driving
/// traffic.
const PUMP_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Copy-buffer size for the pump threads.
const PUMP_BUF: usize = 4096;

/// One per-connection network fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Forward traffic untouched.
    None,
    /// Trickle the request upstream `chunk` bytes at a time, sleeping
    /// `delay_ms` between chunks.
    SlowLoris {
        /// Bytes forwarded per chunk (≥ 1).
        chunk: usize,
        /// Sleep between chunks, in milliseconds.
        delay_ms: u64,
    },
    /// Forward only the first `after` bytes of the response, then close
    /// both directions — the client observes a torn response.
    TornReply {
        /// Response bytes forwarded before the tear.
        after: u64,
    },
    /// Close the connection abruptly after forwarding `after` request
    /// bytes upstream — the server observes a mid-request disconnect.
    Abort {
        /// Request bytes forwarded before the abort.
        after: u64,
    },
    /// Hold response bytes for `delay_ms` before forwarding the first
    /// chunk — a client that stops reading.
    StalledClient {
        /// How long the first response chunk is held, in milliseconds.
        delay_ms: u64,
    },
}

/// A seeded, replayable schedule assigning a [`NetFault`] to every
/// accepted connection by its accept index (wrapping around the plan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFaultPlan {
    faults: Vec<NetFault>,
}

impl NetFaultPlan {
    /// A plan that never injects faults (plain proxying).
    pub fn clean() -> Self {
        NetFaultPlan { faults: vec![NetFault::None] }
    }

    /// The canonical chaos schedule: every fault kind with seed-chosen
    /// parameters, interleaved with clean connections so mixed traffic
    /// mostly succeeds. The same seed always produces the same plan.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let faults = vec![
            NetFault::None,
            NetFault::SlowLoris {
                chunk: 1 + (rng.next_u64() % 3) as usize,
                delay_ms: 5 + rng.next_u64() % 20,
            },
            NetFault::None,
            NetFault::TornReply { after: 1 + rng.next_u64() % 40 },
            NetFault::None,
            NetFault::Abort { after: rng.next_u64() % 24 },
            NetFault::None,
            NetFault::StalledClient { delay_ms: 20 + rng.next_u64() % 60 },
        ];
        NetFaultPlan { faults }
    }

    /// The fault assigned to the `index`-th accepted connection.
    pub fn fault_for(&self, index: u64) -> NetFault {
        // seeded and clean both build a non-empty list.
        self.faults
            .get((index % self.faults.len() as u64) as usize)
            .copied()
            .unwrap_or(NetFault::None)
    }
}

/// A running fault-injecting TCP proxy. Dropping the handle does not
/// stop it; call [`NetProxy::stop`].
pub struct NetProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
    acceptor: JoinHandle<()>,
}

impl NetProxy {
    /// Bind an ephemeral local port and start proxying every accepted
    /// connection to `upstream`, applying `plan`'s fault for each
    /// connection's accept index.
    ///
    /// # Errors
    /// [`mb_common::Error::Io`] when the listen socket cannot be bound.
    pub fn start(upstream: SocketAddr, plan: NetFaultPlan) -> mb_common::Result<NetProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| mb_common::Error::Io(format!("proxy bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| mb_common::Error::Io(format!("proxy local_addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicU64::new(0));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = stream else { continue };
                    let index = accepted.fetch_add(1, Ordering::SeqCst);
                    let fault = plan.fault_for(index);
                    // Connection threads are detached; their read
                    // timeouts bound their lifetime after stop().
                    std::thread::spawn(move || proxy_connection(client, upstream, fault));
                }
            })
        };
        Ok(NetProxy { addr, stop, accepted, acceptor })
    }

    /// The proxy's listen address — point clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Stop accepting and join the acceptor thread. In-flight pump
    /// threads die on their own read timeouts.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the acceptor loose from accept().
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        let _ = self.acceptor.join();
    }
}

/// Close both directions of both streams; pump threads blocked on the
/// peer then observe EOF or an error and exit.
fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

fn proxy_connection(client: TcpStream, upstream: SocketAddr, fault: NetFault) {
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_read_timeout(Some(PUMP_READ_TIMEOUT));
    let _ = server.set_read_timeout(Some(PUMP_READ_TIMEOUT));
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);

    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        sever(&client, &server);
        return;
    };
    // client → server carries the request; server → client the reply.
    let up = std::thread::spawn(move || pump_request(client_r, server, fault));
    pump_reply(server_r, client, fault);
    let _ = up.join();
}

/// Forward request bytes (client → upstream), applying request-side
/// faults. Returns when the client closes, errors, or the fault severs
/// the connection.
fn pump_request(mut from: TcpStream, mut to: TcpStream, fault: NetFault) {
    let mut buf = [0u8; PUMP_BUF];
    let mut forwarded: u64 = 0;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let Some(chunk) = buf.get(..n) else { break };
        match fault {
            NetFault::SlowLoris { chunk: step, delay_ms } => {
                // Trickle this chunk out in `step`-byte slices.
                for piece in chunk.chunks(step.max(1)) {
                    std::thread::sleep(Duration::from_millis(delay_ms));
                    if to.write_all(piece).is_err() {
                        sever(&from, &to);
                        return;
                    }
                }
            }
            NetFault::Abort { after } => {
                let room = after.saturating_sub(forwarded) as usize;
                let piece = chunk.get(..room.min(chunk.len())).unwrap_or(&[]);
                if !piece.is_empty() && to.write_all(piece).is_err() {
                    sever(&from, &to);
                    return;
                }
                forwarded += piece.len() as u64;
                if forwarded >= after {
                    // Abrupt close mid-request: the server sees the
                    // connection die while it is still reading.
                    sever(&from, &to);
                    return;
                }
            }
            _ => {
                if to.write_all(chunk).is_err() {
                    break;
                }
            }
        }
        forwarded = forwarded.saturating_add(n as u64);
    }
    // Half-close so the upstream sees request EOF but can still reply.
    let _ = to.shutdown(Shutdown::Write);
}

/// Forward reply bytes (upstream → client), applying response-side
/// faults.
fn pump_reply(mut from: TcpStream, mut to: TcpStream, fault: NetFault) {
    let mut buf = [0u8; PUMP_BUF];
    let mut forwarded: u64 = 0;
    let mut stalled = matches!(fault, NetFault::StalledClient { .. });
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let Some(chunk) = buf.get(..n) else { break };
        if stalled {
            if let NetFault::StalledClient { delay_ms } = fault {
                // The "client" refuses to drain its socket for a while.
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            stalled = false;
        }
        match fault {
            NetFault::TornReply { after } => {
                let room = after.saturating_sub(forwarded) as usize;
                let piece = chunk.get(..room.min(chunk.len())).unwrap_or(&[]);
                if !piece.is_empty() && to.write_all(piece).is_err() {
                    sever(&from, &to);
                    return;
                }
                forwarded += piece.len() as u64;
                if forwarded >= after {
                    // Tear the response: the client got only a prefix.
                    sever(&from, &to);
                    return;
                }
            }
            _ => {
                if to.write_all(chunk).is_err() {
                    break;
                }
                forwarded = forwarded.saturating_add(n as u64);
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A one-connection upstream echoing a fixed reply after reading
    /// until request EOF (or `stop` bytes).
    fn upstream_once(reply: Vec<u8>) -> (SocketAddr, JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut seen = Vec::new();
            let mut buf = [0u8; 256];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => seen.extend_from_slice(&buf[..n]),
                }
                if seen.ends_with(b"\n") {
                    break; // our test "protocol": newline ends a request
                }
            }
            let _ = s.write_all(&reply);
            let _ = s.flush();
            seen
        });
        (addr, h)
    }

    #[test]
    fn seeded_plans_replay_exactly() {
        assert_eq!(NetFaultPlan::seeded(7), NetFaultPlan::seeded(7));
        assert_ne!(NetFaultPlan::seeded(7), NetFaultPlan::seeded(8));
        // Every kind appears in the canonical schedule.
        let plan = NetFaultPlan::seeded(7);
        assert!(plan.faults.iter().any(|f| matches!(f, NetFault::SlowLoris { .. })));
        assert!(plan.faults.iter().any(|f| matches!(f, NetFault::TornReply { .. })));
        assert!(plan.faults.iter().any(|f| matches!(f, NetFault::Abort { .. })));
        assert!(plan.faults.iter().any(|f| matches!(f, NetFault::StalledClient { .. })));
    }

    #[test]
    fn fault_assignment_wraps_by_index() {
        let plan = NetFaultPlan { faults: vec![NetFault::None, NetFault::TornReply { after: 3 }] };
        assert_eq!(plan.fault_for(0), NetFault::None);
        assert_eq!(plan.fault_for(1), NetFault::TornReply { after: 3 });
        assert_eq!(plan.fault_for(2), NetFault::None);
        assert_eq!(plan.fault_for(5), NetFault::TornReply { after: 3 });
    }

    #[test]
    fn clean_proxy_passes_traffic_through() {
        let (addr, upstream) = upstream_once(b"pong".to_vec());
        let proxy = NetProxy::start(addr, NetFaultPlan::clean()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"ping\n").unwrap();
        let mut reply = Vec::new();
        c.read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"pong");
        assert_eq!(upstream.join().unwrap(), b"ping\n");
        assert_eq!(proxy.accepted(), 1);
        proxy.stop();
    }

    #[test]
    fn slow_loris_still_delivers_the_full_request() {
        let (addr, upstream) = upstream_once(b"ok".to_vec());
        let plan = NetFaultPlan { faults: vec![NetFault::SlowLoris { chunk: 2, delay_ms: 1 }] };
        let proxy = NetProxy::start(addr, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"dripfeed\n").unwrap();
        let mut reply = Vec::new();
        c.read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"ok");
        assert_eq!(upstream.join().unwrap(), b"dripfeed\n");
        proxy.stop();
    }

    #[test]
    fn torn_reply_delivers_only_a_prefix() {
        let full = b"0123456789abcdef".to_vec();
        let (addr, upstream) = upstream_once(full.clone());
        let plan = NetFaultPlan { faults: vec![NetFault::TornReply { after: 6 }] };
        let proxy = NetProxy::start(addr, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"req\n").unwrap();
        let mut reply = Vec::new();
        let _ = c.read_to_end(&mut reply); // severed mid-reply: error or EOF
        assert!(reply.len() <= 6, "tear let {} bytes through", reply.len());
        assert_eq!(&reply[..], &full[..reply.len()], "prefix only");
        let _ = upstream.join();
        proxy.stop();
    }

    #[test]
    fn abort_cuts_the_request_short() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let upstream = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut seen = Vec::new();
            let _ = s.read_to_end(&mut seen); // until the abort severs us
            seen
        });
        let plan = NetFaultPlan { faults: vec![NetFault::Abort { after: 4 }] };
        let proxy = NetProxy::start(addr, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let _ = c.write_all(b"a long request body that will be cut");
        let seen = upstream.join().unwrap();
        assert!(seen.len() <= 4, "abort forwarded {} bytes", seen.len());
        proxy.stop();
    }

    #[test]
    fn stalled_client_eventually_gets_the_reply() {
        let (addr, upstream) = upstream_once(b"late but complete".to_vec());
        let plan = NetFaultPlan { faults: vec![NetFault::StalledClient { delay_ms: 30 }] };
        let proxy = NetProxy::start(addr, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"req\n").unwrap();
        let started = std::time::Instant::now();
        let mut reply = Vec::new();
        c.read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"late but complete");
        assert!(started.elapsed() >= Duration::from_millis(25), "stall was not applied");
        let _ = upstream.join();
        proxy.stop();
    }
}
