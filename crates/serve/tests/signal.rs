//! `SIGTERM` end to end: the `earlyreg-serve` binary drains and exits 0.
#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Poll `probe` every 10 ms until it yields a value or `limit` passes.
fn within<T>(limit: Duration, mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if let Some(value) = probe() {
            return Some(value);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

/// The status code of `GET /readyz`, or `None` when the server is not up.
fn readyz_status(port: u16) -> Option<u16> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).ok()?;
    stream
        .write_all(b"GET /readyz HTTP/1.1\r\nHost: earlyreg\r\nConnection: close\r\n\r\n")
        .ok()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).ok()?;
    raw.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Wait at most 10 s for the child; kill it on timeout so the test fails
/// instead of hanging.
fn wait_10s(child: &mut Child) -> ExitStatus {
    match within(Duration::from_secs(10), || child.try_wait().unwrap()) {
        Some(status) => status,
        None => {
            let _ = child.kill();
            let _ = child.wait();
            panic!("earlyreg-serve did not exit within 10 s of SIGTERM");
        }
    }
}

#[test]
fn sigterm_drains_and_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("earlyreg-serve-sigterm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let mut child = Command::new(env!("CARGO_BIN_EXE_earlyreg-serve"))
        .args(["--port", "0", "--no-cache", "--port-file"])
        .arg(&port_file)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn earlyreg-serve");

    let port: Option<u16> = within(Duration::from_secs(10), || {
        let text = std::fs::read_to_string(&port_file).ok()?;
        text.strip_suffix('\n')?.parse().ok()
    });
    let ready = port.and_then(|port| {
        within(Duration::from_secs(10), || {
            (readyz_status(port) == Some(200)).then_some(())
        })
    });
    if ready.is_none() {
        let _ = child.kill();
        let _ = child.wait();
        panic!("earlyreg-serve never answered /readyz 200");
    }

    let sent = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(sent.success(), "kill -TERM failed");
    let status = wait_10s(&mut child);
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(status.success(), "exit status {status}; stdout:\n{stdout}");
    assert!(stdout.contains("shut down cleanly"), "stdout:\n{stdout}");
}
