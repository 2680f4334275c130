//! A minimal keep-alive HTTP/1.1 client for the load generators, plus
//! the `/link` request encoder and the `/metrics` scraper.

use mb_datagen::LinkedMention;
use mb_serve::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Candidates asked for per `/link` request (the server's default).
pub const TOP_K: usize = 5;

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // A wedged server must fail the run, not hang it past the
        // driver's limit.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| format!("set read timeout: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn { writer, reader: BufReader::new(stream) })
    }

    /// Send `raw` and read one response: `(status, body)`.
    pub fn exchange(&mut self, raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
        self.writer.write_all(raw).map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader.read_line(&mut line).map_err(|e| format!("status line: {e}"))?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line).map_err(|e| format!("header: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length =
                        value.trim().parse().map_err(|e| format!("content-length: {e}"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).map_err(|e| format!("body: {e}"))?;
        Ok((status, body))
    }
}

/// The body of a `/link` request for `m`.
pub fn link_body(m: &LinkedMention) -> String {
    format!(
        "{{\"surface\":{},\"left\":{},\"right\":{},\"k\":{TOP_K}}}",
        json::escape(&m.surface),
        json::escape(&m.left),
        json::escape(&m.right),
    )
}

/// The wire bytes of a `/link` request for `m`.
pub fn link_request(m: &LinkedMention) -> Vec<u8> {
    let body = link_body(m);
    let mut raw = format!(
        "POST /link HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    raw
}

pub const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nhost: bench\r\n\r\n";
const METRICS: &[u8] = b"GET /metrics HTTP/1.1\r\nhost: bench\r\n\r\n";

/// The server's `/metrics` exposition as `(name, value)` lines.
pub struct Scrape(Vec<(String, f64)>);

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> Result<Scrape, String> {
        let (status, body) = Conn::open(addr)?.exchange(METRICS)?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let text = String::from_utf8(body).map_err(|e| format!("/metrics: {e}"))?;
        Ok(Scrape(
            text.lines()
                .filter_map(|l| {
                    let (name, value) = l.rsplit_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect(),
        ))
    }

    /// The value of the line called `name` (labels included), or an
    /// error naming the missing line.
    pub fn get(&self, name: &str) -> Result<f64, String> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("/metrics has no line {name:?}"))
    }
}
