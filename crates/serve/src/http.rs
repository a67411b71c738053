//! A minimal HTTP/1.1 request parser and response writer over
//! `std::net::TcpStream` — just enough protocol for a JSON service: one
//! request per connection (`Connection: close`), `Content-Length` bodies,
//! bounded header and body sizes, read timeouts against stuck peers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on the request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Overall deadline for reading one request: a peer that has not delivered
/// the full head and body within this long forfeits it.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Look up a header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_text(&self) -> Result<&str, ReadError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ReadError::BadRequest("request body is not valid UTF-8".to_string()))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Malformed request (maps to `400`).
    BadRequest(String),
    /// Head or body over the configured limits (maps to `413`).
    TooLarge(String),
    /// The connection died or timed out; nothing can be sent back.
    Io(std::io::Error),
}

/// Read and parse one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    read_request_timeout(stream, READ_TIMEOUT)
}

/// [`read_request`] with an explicit overall timeout (the backpressure path
/// drains rejected requests on a much shorter leash).
///
/// The timeout is a **total deadline for the whole request**, re-armed
/// before every read with the time remaining — not a per-read stall limit.
/// A slow-loris peer trickling one byte per read would otherwise hold a
/// worker for as long as it liked while each individual read stayed under
/// the limit.
pub fn read_request_timeout(
    stream: &mut TcpStream,
    timeout: Duration,
) -> Result<Request, ReadError> {
    let deadline = Instant::now() + timeout;

    // Accumulate until the blank line that ends the head.
    let mut buffer: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(position) = find_head_end(&buffer) {
            break position;
        }
        if buffer.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        match read_before_deadline(stream, &mut chunk, deadline)? {
            0 => {
                return Err(ReadError::BadRequest(
                    "connection closed before the request head ended".to_string(),
                ))
            }
            read => buffer.extend_from_slice(&chunk[..read]),
        }
    };

    let head = std::str::from_utf8(&buffer[..head_end])
        .map_err(|_| ReadError::BadRequest("request head is not valid UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::BadRequest("empty request".to_string()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("missing method".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("missing request target".to_string()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("missing HTTP version".to_string()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::BadRequest(format!(
            "unsupported protocol version '{version}'"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::BadRequest(format!("malformed header line '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // `Expect: 100-continue` clients (curl beyond 1 KiB bodies) wait for
    // the interim response before transmitting the body; answer it so they
    // do not stall out their expect timeout.
    let expects_continue = headers
        .iter()
        .any(|(name, value)| name == "expect" && value.eq_ignore_ascii_case("100-continue"));
    if expects_continue {
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .map_err(ReadError::Io)?;
    }

    // Body: whatever of it we already buffered, then the remainder.
    let mut body: Vec<u8> = buffer[head_end + 4..].to_vec();
    let content_length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .map(|(_, value)| {
            value
                .parse::<usize>()
                .map_err(|_| ReadError::BadRequest(format!("invalid Content-Length '{value}'")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge(format!(
            "request body exceeds {MAX_BODY_BYTES} bytes"
        )));
    }
    body.truncate(content_length);
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        match read_before_deadline(stream, &mut chunk[..want], deadline)? {
            0 => {
                return Err(ReadError::BadRequest(
                    "connection closed before the request body ended".to_string(),
                ))
            }
            read => body.extend_from_slice(&chunk[..read]),
        }
    }

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// One read with the socket timeout re-armed to the time left before
/// `deadline`; an expired deadline is a timeout error.
fn read_before_deadline(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> Result<usize, ReadError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(ReadError::Io(std::io::Error::from(
            std::io::ErrorKind::TimedOut,
        )));
    }
    let _ = stream.set_read_timeout(Some(remaining));
    stream.read(chunk).map_err(ReadError::Io)
}

fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|window| window == b"\r\n\r\n")
}

/// Cap on bytes [`drain_to_eof`] will discard.
const MAX_DRAIN_BYTES: usize = 8 * 1024 * 1024;

/// Read and discard the peer's remaining input until EOF, the byte cap or
/// the deadline — whichever comes first.  Used before closing a connection
/// whose request was answered without being fully read, where unread data
/// would turn the close into a reset that can discard the response.
pub fn drain_to_eof(stream: &mut TcpStream, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    let mut sink = [0u8; 8192];
    let mut drained = 0usize;
    while drained < MAX_DRAIN_BYTES {
        match read_before_deadline(stream, &mut sink, deadline) {
            Ok(0) | Err(_) => return,
            Ok(read) => drained += read,
        }
    }
}

/// One response to write back.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (always JSON in this service).
    pub body: String,
    /// Extra headers beyond the standard set.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            body,
            headers: Vec::new(),
        }
    }

    /// A JSON error envelope (`{"error": "..."}`).
    pub fn error(status: u16, message: &str) -> Self {
        let envelope = serde::value::Value::Map(vec![(
            "error".to_string(),
            serde::value::Value::Str(message.to_string()),
        )]);
        Self::json(status, envelope.canonical())
    }

    /// Attach one extra header.
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }
}

/// The reason phrase for the status codes this service uses.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize and send one response.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        status_text(response.status),
        response.body.len()
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn error_responses_are_json_envelopes() {
        let response = Response::error(400, "nope");
        assert_eq!(response.status, 400);
        assert_eq!(response.body, "{\"error\":\"nope\"}");
        assert_eq!(status_text(503), "Service Unavailable");
    }
}
