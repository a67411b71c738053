//! The transport layer: a blocking `TcpListener` accept loop feeding a
//! bounded request queue drained by a fixed pool of scoped worker threads
//! (the same scoped-thread shape as `runner::run_parallel`).
//!
//! * the accept loop **blocks** in `accept`, so a connection is queued the
//!   moment it arrives — no sleep sits on the request path;
//! * the queue is **bounded** — when it is full, new connections are
//!   answered `503` with `Retry-After` immediately instead of piling up;
//! * shutdown is **graceful** — a watcher thread checks the shutdown and
//!   signal flags every 10 ms (`WATCH_TICK`); once draining begins it holds
//!   the listener open for the drain grace window, then sets `stop` and
//!   wakes the blocked `accept` by connecting to the listener itself.
//!   Queued requests drain and every in-flight response completes before
//!   the process exits;
//! * a panicking request handler answers `500` and the worker survives.

use crate::http::{self, ReadError, Response};
use crate::service::{Service, ServiceConfig};
use crate::signal;
use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// How often the shutdown watcher re-checks the shutdown and signal flags.
const WATCH_TICK: Duration = Duration::from_millis(10);

/// Pause after a failed `accept` (`EMFILE`, `ENFILE`, `ECONNABORTED`, ...).
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Transport + service configuration of one server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address.
    pub addr: String,
    /// Listen port (`0` = ephemeral, kernel-assigned).
    pub port: u16,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded queue depth between accept and the workers; connections
    /// beyond it are answered `503`.
    pub queue_capacity: usize,
    /// How long the listener keeps accepting after draining begins.  During
    /// the window `/readyz` already answers `503`, so load balancers can
    /// stop routing to this node before its listener actually closes —
    /// without the window, requests in flight *towards* the socket at
    /// shutdown would be reset instead of served.  `0` closes immediately
    /// (the historical behaviour; tests use it to stay fast).
    pub drain_grace: Duration,
    /// Application-layer tunables.
    pub service: ServiceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cpus = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServeConfig {
            addr: "127.0.0.1".to_string(),
            port: 0,
            workers: cpus.clamp(1, 8),
            queue_capacity: 64,
            drain_grace: Duration::ZERO,
            // sim_threads stays 0 (= auto) here; `start` resolves it from
            // the *final* worker count so overriding `workers` after
            // `..Default::default()` cannot leave a stale ratio behind.
            service: ServiceConfig::default(),
        }
    }
}

/// A server running on its own thread.
pub struct RunningServer {
    /// The bound address (with the resolved ephemeral port).
    pub addr: std::net::SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    handle: thread::JoinHandle<()>,
}

impl RunningServer {
    /// The shared application state (tests read its counters).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until the accept loop and every worker have exited.
    pub fn join(self) {
        let _ = self.handle.join();
    }

    /// [`Self::shutdown`] + [`Self::join`].
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }
}

/// Bind and start serving on a background thread.
pub fn start(config: ServeConfig) -> io::Result<RunningServer> {
    let listener = TcpListener::bind((config.addr.as_str(), config.port))?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut service_config = config.service.clone();
    if service_config.sim_threads == 0 {
        // Auto: split the CPUs across the request workers.
        let cpus = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        service_config.sim_threads = (cpus / config.workers.max(1)).max(1);
    }
    let service = Arc::new(Service::new(service_config, Arc::clone(&shutdown)));
    let handle = {
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || {
            accept_loop(
                listener,
                wake_address(addr),
                &service,
                &shutdown,
                config.workers.max(1),
                config.queue_capacity,
                config.drain_grace,
            )
        })
    };
    Ok(RunningServer {
        addr,
        service,
        shutdown,
        handle,
    })
}

fn accept_loop(
    listener: TcpListener,
    wake: SocketAddr,
    service: &Service,
    shutdown: &AtomicBool,
    workers: usize,
    queue_capacity: usize,
    drain_grace: Duration,
) {
    let queue: Queue<TcpStream> = Queue::new(queue_capacity);
    let stop = AtomicBool::new(false);
    // Dropped when the accept loop exits, which ends the watcher's retries.
    let (exited, accept_exited) = mpsc::channel::<()>();

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(stream) = queue.pop() {
                    handle_connection(stream, service);
                }
            });
        }
        let stop = &stop;
        scope.spawn(move || watch_shutdown(shutdown, drain_grace, stop, accept_exited, wake));

        for accepted in listener.incoming() {
            // Once `stop` is set, this is the watcher's wake-up connection
            // (or a client racing it); dropping it closes it.
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok(stream) => {
                    if let Err(rejected) = queue.push(stream) {
                        reject_busy(rejected);
                    }
                }
                // The one sleep left in the loop: a persistent error would
                // otherwise spin the now-blocking `accept` hot.
                Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        }
        drop(exited);
        // Graceful drain: stop accepting, let the workers finish what is
        // queued and in flight, then fall out of the scope.
        queue.close();
    });
}

/// The shutdown watcher, off the request path.  Once draining begins
/// (signal or shutdown flag), `/readyz` already answers 503; the listener
/// stays open for `drain_grace` more so requests racing the shutdown are
/// served, not reset.  Then it sets `stop` and connects to the listener to
/// wake the blocked `accept`.  A thread is needed because the signal
/// handler, installed with `signal(2)`, restarts an interrupted `accept`;
/// only a real connection wakes it.  The wake-up is retried until the
/// accept loop has exited, so one failed connect cannot hang shutdown.
fn watch_shutdown(
    shutdown: &AtomicBool,
    drain_grace: Duration,
    stop: &AtomicBool,
    accept_exited: mpsc::Receiver<()>,
    wake: SocketAddr,
) {
    while !(shutdown.load(Ordering::SeqCst) || signal::received()) {
        thread::sleep(WATCH_TICK);
    }
    // A sleep, not a deadline: `Instant::now() + drain_grace` would
    // overflow for `--drain-grace-ms 18446744073709551615`.
    thread::sleep(drain_grace);
    stop.store(true, Ordering::SeqCst);
    loop {
        let _ = TcpStream::connect(wake);
        if accept_exited.recv_timeout(WATCH_TICK) != Err(mpsc::RecvTimeoutError::Timeout) {
            return;
        }
    }
}

/// The address the watcher dials to wake `accept`: the listener's own,
/// with an unspecified IP (`0.0.0.0`, `::`) replaced by the loopback
/// address of the same family.
fn wake_address(listening: SocketAddr) -> SocketAddr {
    let ip = match listening.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, listening.port())
}

fn handle_connection(mut stream: TcpStream, service: &Service) {
    let (response, fully_read) = match http::read_request(&mut stream) {
        Ok(request) => (
            match catch_unwind(AssertUnwindSafe(|| service.handle(&request))) {
                Ok(response) => response,
                Err(_) => Response::error(500, "request handler panicked"),
            },
            true,
        ),
        Err(ReadError::BadRequest(message)) => (Response::error(400, &message), false),
        Err(ReadError::TooLarge(message)) => (Response::error(413, &message), false),
        // The peer is gone or unreadable; nothing to send.
        Err(ReadError::Io(_)) => return,
    };
    let _ = http::write_response(&mut stream, &response);
    if !fully_read {
        // The request was answered before its bytes were consumed (e.g. a
        // 413 for an oversized body).  Closing with unread data pending
        // would reset the connection and can discard the queued response,
        // so discard the remainder first — bounded, never buffered.
        http::drain_to_eof(&mut stream, Duration::from_secs(2));
    }
}

/// Cap on concurrent rejection handlers; connections beyond it are dropped
/// without a response (the client sees a reset, which is still backpressure).
const MAX_REJECTORS: usize = 32;

/// Live rejection-handler count (process-wide; the server is one per
/// process in practice and the cap is a safety valve, not an exact quota).
static REJECTORS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn reject_busy(mut stream: TcpStream) {
    // Answer on a short-lived detached thread: the accept loop must never
    // block on a rejected client's socket.  The request is drained first
    // (overall 250ms deadline) so the client reliably receives the 503 —
    // closing with unread data pending would reset the connection before
    // the response arrives.
    if REJECTORS.fetch_add(1, Ordering::SeqCst) >= MAX_REJECTORS {
        REJECTORS.fetch_sub(1, Ordering::SeqCst);
        return; // overload upon overload: just drop the connection
    }
    thread::spawn(move || {
        let fully_read =
            http::read_request_timeout(&mut stream, Duration::from_millis(250)).is_ok();
        let response = Response::error(503, "request queue is full, retry shortly")
            .with_header("Retry-After", "1".to_string());
        let _ = http::write_response(&mut stream, &response);
        if !fully_read {
            // Same as handle_connection: closing with unread request bytes
            // pending would reset the connection and lose the 503.
            http::drain_to_eof(&mut stream, Duration::from_millis(500));
        }
        REJECTORS.fetch_sub(1, Ordering::SeqCst);
    });
}

/// A bounded multi-producer/multi-consumer queue with close semantics:
/// `push` fails fast when full or closed, `pop` blocks until an item or
/// close-and-drained.
struct Queue<T> {
    inner: Mutex<QueueInner<T>>,
    available: Condvar,
    capacity: usize,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Queue<T> {
    fn new(capacity: usize) -> Self {
        Queue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue, or hand the item back when the queue is full or closed.
    fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeue; `None` once the queue is closed and drained.
    fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).expect("queue poisoned");
        }
    }

    /// Reject future pushes and wake every blocked consumer.
    fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bounds_and_close_semantics() {
        let queue: Queue<u32> = Queue::new(2);
        assert!(queue.push(1).is_ok());
        assert!(queue.push(2).is_ok());
        assert_eq!(queue.push(3), Err(3), "over capacity fails fast");
        assert_eq!(queue.pop(), Some(1));
        assert!(queue.push(3).is_ok());
        queue.close();
        assert_eq!(queue.push(4), Err(4), "closed rejects producers");
        // Consumers drain what is queued, then observe the close.
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn wake_address_dials_loopback_for_unspecified_listeners() {
        let wake = |addr: &str| wake_address(addr.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:8080"), "127.0.0.1:8080");
        assert_eq!(wake("[::]:8080"), "[::1]:8080");
        assert_eq!(wake("127.0.0.1:8080"), "127.0.0.1:8080");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
    }

    #[test]
    fn zero_capacity_queue_rejects_everything() {
        let queue: Queue<u32> = Queue::new(0);
        assert_eq!(queue.push(1), Err(1));
    }
}
