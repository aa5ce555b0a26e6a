//! Minimal HTTP/1.1 framing over blocking TCP.
//!
//! The service speaks exactly the subset a JSON search API needs: a
//! request line, headers (only `Content-Length` and `Connection` are
//! interpreted), and a UTF-8 body. Connections default to one request
//! (`Connection: close`); a client that sends `Connection: keep-alive`
//! opts into reuse — the shard router's pooled client does, ordinary
//! clients are unaffected. Keeping the wire layer this small is what
//! lets the whole server run on `std::net` with no async runtime — a
//! deliberate choice for the offline build (see `vendor/README.md`).

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path without query string (`/search`).
    pub path: String,
    /// The request body, decoded as UTF-8.
    pub body: String,
    /// The client sent `Connection: keep-alive` — it wants to reuse the
    /// connection for another request after the response.
    pub keep_alive: bool,
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection before sending anything.
    Closed,
    /// The framing is not HTTP we understand; respond `400`.
    BadRequest(String),
    /// The declared body exceeds the configured cap; respond `413`.
    TooLarge,
    /// The socket failed mid-read (including read timeouts).
    Io(io::Error),
}

/// Parse the request head (everything before the blank line) into
/// `(method, path, content_length, keep_alive)`.
fn parse_head(head: &str) -> Result<(String, String, usize, bool), String> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(format!("malformed request line {request_line:?}"));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(format!("malformed request line {request_line:?}"));
    }
    // Strip any query string; the API is body-driven.
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut content_length: Option<usize> = None;
    let mut keep_alive = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header {line:?}"));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n = value
                .trim()
                .parse()
                .map_err(|_| format!("bad content-length {value:?}"))?;
            // RFC 7230 §3.3.2: differing lengths leave the body's end
            // ambiguous, so the request is refused, never guessed at.
            if content_length.is_some_and(|prev| prev != n) {
                return Err("conflicting content-length headers".into());
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // RFC 7230 §3.3.3: a body this server cannot frame (it does
            // not decode chunked) is refused rather than read as empty.
            return Err(format!("unsupported transfer-encoding {value:?}"));
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
        }
    }
    Ok((method.to_ascii_uppercase(), path, content_length.unwrap_or(0), keep_alive))
}

/// Read one request from `stream`. Bodies larger than `max_body` are
/// rejected without being read.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<HttpRequest, RecvError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RecvError::BadRequest("request head too large".into()));
        }
        let n = stream.read(&mut chunk).map_err(RecvError::Io)?;
        if n == 0 {
            return if buf.is_empty() {
                Err(RecvError::Closed)
            } else {
                Err(RecvError::BadRequest("connection closed mid-head".into()))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RecvError::BadRequest("head is not UTF-8".into()))?;
    let (method, path, content_length, keep_alive) =
        parse_head(head).map_err(RecvError::BadRequest)?;
    if content_length > max_body {
        return Err(RecvError::TooLarge);
    }

    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(RecvError::BadRequest("body longer than content-length".into()));
    }
    let missing = content_length - body.len();
    if missing > 0 {
        let start = body.len();
        body.resize(content_length, 0);
        stream.read_exact(&mut body[start..]).map_err(RecvError::Io)?;
    }
    let body =
        String::from_utf8(body).map_err(|_| RecvError::BadRequest("body is not UTF-8".into()))?;
    Ok(HttpRequest {
        method,
        path,
        body,
        keep_alive,
    })
}

/// Offset of `\r\n\r\n` in `buf`, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The canonical reason phrase for the statuses this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete `Connection: close` JSON response.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    write_response_with(stream, status, &[], body)
}

/// Like [`write_response`], with extra response headers (e.g. the
/// `Deprecation` header on legacy unversioned paths).
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    write_response_conn(stream, status, extra_headers, body, false)
}

/// Like [`write_response_with`], with the connection disposition made
/// explicit: `keep_alive` answers a client that asked for reuse, and the
/// caller then loops reading the next request off the same stream.
pub fn write_response_conn(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    // One write: splitting head and body across TCP segments lets
    // Nagle hold the body until the head's (delayed) ACK, which turns a
    // loopback round-trip into tens of milliseconds.
    head.push_str(body);
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// A blocking one-shot HTTP client: connect, send one request, read the
/// `(status, body)` of the response. Shared by the e2e tests, the
/// throughput bench, and the demo example.
pub mod client {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// A fully parsed response: `(status, headers, body)`.
    pub type FullResponse = (u16, Vec<(String, String)>, String);

    /// Issue `method path` with `body` against `addr`.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        send(&mut stream, method, path, body)?;
        read_response(&mut stream)
    }

    /// Write one request onto an existing stream (exposed so tests can
    /// split a request across writes to exercise server-side framing).
    pub fn send(
        stream: &mut TcpStream,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<()> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: newslink\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        // Single write: see `write_response` on Nagle vs delayed ACK.
        head.push_str(body);
        stream.write_all(head.as_bytes())?;
        stream.flush()
    }

    /// Read a full `Connection: close` response into `(status, body)`.
    pub fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
        let (status, _headers, body) = read_response_full(stream)?;
        Ok((status, body))
    }

    /// Like [`request`], but also surface the response headers — the
    /// deprecation-header tests need to see the wire head, not just the
    /// body.
    pub fn request_with_headers(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<FullResponse> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        send(&mut stream, method, path, body)?;
        read_response_full(&mut stream)
    }

    /// Write one request that asks the server to keep the connection
    /// open after responding (the shard router's pooled client pairs
    /// this with [`read_response_framed`]).
    pub fn send_keep_alive(
        stream: &mut TcpStream,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<()> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: newslink\r\nConnection: keep-alive\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        // Single write: see `write_response` on Nagle vs delayed ACK.
        head.push_str(body);
        stream.write_all(head.as_bytes())?;
        stream.flush()
    }

    /// Read exactly one `Content-Length`-framed response off the stream,
    /// leaving it positioned at the next response — the reuse-safe
    /// counterpart of [`read_response_full`]'s read-to-EOF. Responses
    /// without a `Content-Length` header are treated as malformed (this
    /// service always emits one). Generic over [`Read`] so callers can
    /// wrap the socket in a deadline-anchored reader (see the router's
    /// `DeadlineStream`): a per-socket read timeout alone resets on
    /// every byte, so a drip-feeding peer could extend a "bounded" read
    /// indefinitely.
    pub fn read_response_framed<R: Read>(stream: &mut R) -> std::io::Result<FullResponse> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if buf.len() > super::MAX_HEAD_BYTES {
                return Err(bad("response head too large"));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| bad("non-UTF8 head"))?
            .to_string();
        let status: u16 = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let headers: Vec<(String, String)> = head
            .split("\r\n")
            .skip(1)
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name.trim().to_string(), value.trim().to_string()))
            .collect();
        let content_length: usize = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad("missing content-length"))?;
        let mut body = buf[head_end + 4..].to_vec();
        if body.len() > content_length {
            return Err(bad("body longer than content-length"));
        }
        let start = body.len();
        body.resize(content_length, 0);
        stream.read_exact(&mut body[start..])?;
        let body = String::from_utf8(body).map_err(|_| bad("non-UTF8 body"))?;
        Ok((status, headers, body))
    }

    /// Read a full `Connection: close` response into
    /// `(status, headers, body)`.
    pub fn read_response_full(
        stream: &mut TcpStream,
    ) -> std::io::Result<FullResponse> {
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let text = String::from_utf8(raw)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF8"))?;
        let status = text
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let (head, body) = text
            .split_once("\r\n\r\n")
            .map(|(h, b)| (h.to_string(), b.to_string()))
            .unwrap_or((text.clone(), String::new()));
        let headers = head
            .split("\r\n")
            .skip(1) // status line
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name.trim().to_string(), value.trim().to_string()))
            .collect();
        Ok((status, headers, body))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_content_length() {
        let (m, p, n, ka) =
            parse_head("POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: 12").unwrap();
        assert_eq!((m.as_str(), p.as_str(), n, ka), ("POST", "/search", 12, false));
        // A repeated but identical length is unambiguous (RFC 7230 §3.3.2).
        let (_, _, n, _) =
            parse_head("POST / HTTP/1.1\r\nContent-Length: 7\r\ncontent-length: 7").unwrap();
        assert_eq!(n, 7);
    }

    #[test]
    fn strips_query_string_and_upcases_method() {
        let (m, p, n, ka) = parse_head("get /metrics?verbose=1 HTTP/1.1\r\nHost: x").unwrap();
        assert_eq!((m.as_str(), p.as_str(), n, ka), ("GET", "/metrics", 0, false));
    }

    #[test]
    fn keep_alive_is_opt_in_only() {
        let ka = |head: &str| parse_head(head).unwrap().3;
        assert!(ka("GET / HTTP/1.1\r\nConnection: keep-alive"));
        assert!(ka("GET / HTTP/1.1\r\nconnection: Keep-Alive"));
        assert!(!ka("GET / HTTP/1.1\r\nConnection: close"));
        assert!(!ka("GET / HTTP/1.1\r\nHost: x"), "absent header means close");
    }

    #[test]
    fn rejects_garbage_heads() {
        assert!(parse_head("not http").is_err());
        assert!(parse_head("GET / SPDY/3").is_err());
        assert!(parse_head("GET / HTTP/1.1 extra").is_err());
        assert!(parse_head("POST / HTTP/1.1\r\nContent-Length: many").is_err());
        assert!(parse_head("POST / HTTP/1.1\r\nno-colon-header").is_err());
        assert!(parse_head("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0").is_err());
        assert!(parse_head("POST / HTTP/1.1\r\nTransfer-Encoding: chunked").is_err());
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    #[test]
    fn reasons_cover_emitted_statuses() {
        for s in [200, 400, 404, 405, 413, 429, 500, 503] {
            assert_ne!(reason(s), "Unknown", "status {s}");
        }
    }
}
