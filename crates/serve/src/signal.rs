//! SIGINT/SIGTERM → shutdown flag, without the `libc` crate.
//!
//! `std` already links the platform C library on Unix, so declaring
//! `signal(2)` ourselves is enough; the handler only stores to an atomic
//! (async-signal-safe).  The server's shutdown watcher checks [`received`]
//! on its tick, so delivery latency is one watcher tick, off the request
//! path.

use std::sync::atomic::{AtomicBool, Ordering};

static RECEIVED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::RECEIVED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn handle(_signum: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, handle);
            signal(SIGTERM, handle);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Install the SIGINT/SIGTERM handlers (idempotent).  Call once from the
/// binary before serving; library users (tests) normally skip this and
/// drive shutdown through the server's flag instead.
pub fn install() {
    imp::install();
}

/// True once a termination signal has been received.
pub fn received() -> bool {
    RECEIVED.load(Ordering::SeqCst)
}
