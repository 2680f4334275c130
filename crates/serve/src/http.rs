//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! Deliberately tiny: request line + headers + `Content-Length` bodies,
//! keep-alive by default, no chunked transfer encoding. Every limit is
//! explicit ([`HttpLimits`]) and every malformed input returns a typed
//! [`HttpError`] — a serving process must never panic on bytes from the
//! network (a property test feeds this parser arbitrary bytes).

use std::io::{BufRead, Read, Write};

/// Parser limits; exceeding any of them rejects the request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum request-line or header-line length in bytes.
    pub max_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits { max_line: 8 * 1024, max_headers: 64, max_body: 64 * 1024 }
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request syntax; answer `400 Bad Request`.
    Bad(String),
    /// A configured limit was exceeded; answer `413 Content Too Large`.
    TooLarge(String),
    /// The underlying socket failed mid-request (including read
    /// timeouts); no response is possible.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Bad(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge(m) => write!(f, "too large: {m}"),
            HttpError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl HttpError {
    /// The HTTP status code this error maps to (0 for I/O errors,
    /// which get no response).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Bad(_) => 400,
            HttpError::TooLarge(_) => 413,
            HttpError::Io(_) => 0,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target, e.g. `/link`.
    pub path: String,
    /// Headers in order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection.
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Read one `\n`-terminated line of at most `max` bytes, without the
/// terminator. `Ok(None)` means clean EOF before any byte.
fn read_line<R: BufRead>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, HttpError> {
    let mut buf = Vec::new();
    let mut limited = r.by_ref().take(max as u64 + 1);
    let n = limited.read_until(b'\n', &mut buf).map_err(HttpError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(if buf.len() > max {
            HttpError::TooLarge(format!("line exceeds {max} bytes"))
        } else {
            HttpError::Bad("truncated line".to_string())
        });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(buf))
}

fn ascii(bytes: Vec<u8>) -> Result<String, HttpError> {
    String::from_utf8(bytes).map_err(|_| HttpError::Bad("non-UTF-8 header bytes".to_string()))
}

/// Parse one request from the stream. `Ok(None)` means the peer closed
/// the connection cleanly between requests (normal keep-alive end).
pub fn read_request<R: BufRead>(
    r: &mut R,
    limits: &HttpLimits,
) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line(r, limits.max_line)? else {
        return Ok(None);
    };
    let line = ascii(line)?;
    let mut parts = line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => return Err(HttpError::Bad(format!("malformed request line {line:?}"))),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Bad(format!("malformed method {method:?}")));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("unsupported version {version:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, limits.max_line)?
            .ok_or_else(|| HttpError::Bad("EOF inside headers".to_string()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooLarge(format!("more than {} headers", limits.max_headers)));
        }
        let line = ascii(line)?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Bad(format!("header without colon: {line:?}")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Bad(format!("malformed header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req =
        Request { method: method.to_string(), path: path.to_string(), headers, body: Vec::new() };
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::Bad("transfer-encoding is not supported".to_string()));
    }
    if let Some(cl) = req.header("content-length") {
        let len: usize =
            cl.parse().map_err(|_| HttpError::Bad(format!("bad content-length {cl:?}")))?;
        if len > limits.max_body {
            return Err(HttpError::TooLarge(format!(
                "body of {len} bytes (cap {})",
                limits.max_body
            )));
        }
        let mut body = vec![0u8; len];
        std::io::Read::read_exact(r, &mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                HttpError::Bad("truncated body".to_string())
            } else {
                HttpError::Io(e)
            }
        })?;
        req.body = body;
    }
    Ok(Some(req))
}

const fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response. `close` adds `Connection: close`;
/// `extra_headers` (name must be a valid lowercase HTTP header name;
/// the value must be line-break free) is how 503 responses carry
/// `Retry-After`.
pub(crate) fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        reason(status),
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()), &HttpLimits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /link HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/link");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn rejects_bad_content_length() {
        let e = parse(b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), 400);
    }

    #[test]
    fn rejects_oversized_body_without_reading_it() {
        let e = parse(b"POST / HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), 413);
    }

    #[test]
    fn rejects_truncated_headers_and_body() {
        assert_eq!(parse(b"GET / HTTP/1.1\r\nhost: x\r\n").unwrap_err().status(), 400);
        let e = parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(e.status(), 400);
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "application/json",
            b"{}",
            true,
            &[("retry-after", "1".to_string())],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn response_has_content_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", false, &[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
