//! A deliberately minimal HTTP/1.1 subset over `std::net::TcpStream`.
//!
//! The daemon serves a handful of fixed routes to trusted tooling (CI,
//! curl, the bench harness); it does not need — and must not grow — a
//! general web stack. One request per connection (`Connection: close`),
//! bounded header and body sizes, `Content-Length` bodies only. Keeping
//! this hand-rolled keeps the workspace's zero-external-dependency
//! stance intact.

use polite_wifi_obs::json::JsonWriter;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + headers. Anything bigger than this
/// is not a polite-wifi client.
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body (scenario specs are a few KiB).
const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed request: method, path, decoded query pairs, headers
/// (names lowercased) and raw body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: BTreeMap<String, String>,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl Request {
    /// The query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// The header `name` (case-insensitive; pass it lowercased), if
    /// present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Splits `/submit?wait=1&x=y` into the path and its query pairs.
/// Values are taken literally (no percent-decoding): every legal value
/// in the daemon's API is `[A-Za-z0-9_-]`.
fn split_target(target: &str) -> (String, BTreeMap<String, String>) {
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = BTreeMap::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) => query.insert(k.to_string(), v.to_string()),
            None => query.insert(pair.to_string(), String::new()),
        };
    }
    (path.to_string(), query)
}

/// Reads one head line (LF-terminated) and charges it to `budget`. The
/// read itself stops at the budget left, so no client can make the
/// daemon buffer more than [`MAX_HEAD`] bytes of head, newline or not.
fn read_head_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> io::Result<String> {
    let mut line = String::new();
    let n = reader.take(*budget as u64).read_line(&mut line)?;
    if !line.ends_with('\n') {
        return Err(bad(if n == *budget {
            "request head too large"
        } else {
            "connection closed mid-headers"
        }));
    }
    *budget -= n;
    Ok(line)
}

/// Reads and parses one request from the stream. Errors on malformed
/// framing or on a request exceeding the size bounds.
pub fn read_request<R: Read>(stream: R) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD;
    let request_line = read_head_line(&mut reader, &mut budget)?;
    let mut content_length = 0usize;
    let mut headers = BTreeMap::new();
    loop {
        let line = read_head_line(&mut reader, &mut budget)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| bad("bad Content-Length"))?;
            }
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let target = parts
        .next()
        .ok_or_else(|| bad("request line has no target"))?;
    if content_length > MAX_BODY {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let (path, query) = split_target(target);
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// One response, written with `Connection: close` framing.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra `name: value` headers (e.g. `Retry-After`, `X-Cache`).
    pub headers: Vec<(&'static str, String)>,
    pub body: Vec<u8>,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

impl Response {
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// An `{"error": msg}` JSON reply.
    pub fn error(status: u16, msg: &str) -> Response {
        let mut w = JsonWriter::pretty();
        w.begin_object().key("error").string(msg).end_object();
        Response::json(status, w.finish())
    }

    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }

    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// A tiny blocking client for tests, CI and the bench harness: sends
/// one request, reads the response to EOF, returns (status, headers,
/// body).
pub fn request(
    addr: std::net::SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> io::Result<(u16, BTreeMap<String, String>, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let head_text = String::from_utf8_lossy(&raw[..split]).into_owned();
    let resp_body = raw[split + 4..].to_vec();
    let mut lines = head_text.lines();
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = BTreeMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Ok((status, headers, resp_body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn target_splits_into_path_and_query() {
        let (path, query) = split_target("/submit?wait=1&inject_trial_panic=2");
        assert_eq!(path, "/submit");
        assert_eq!(query.get("wait").map(String::as_str), Some("1"));
        assert_eq!(
            query.get("inject_trial_panic").map(String::as_str),
            Some("2")
        );
        let (path, query) = split_target("/healthz");
        assert_eq!(path, "/healthz");
        assert!(query.is_empty());
    }

    #[test]
    fn request_and_response_round_trip_over_a_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/submit");
            assert_eq!(req.param("wait"), Some("1"));
            assert_eq!(req.header("host"), Some(addr.to_string().as_str()));
            assert_eq!(req.body, b"{\"x\": 1}");
            Response::json(200, "{\"ok\": true}".to_string())
                .with_header("x-cache", "miss".to_string())
                .write_to(&mut stream)
                .unwrap();
        });
        let (status, headers, body) =
            request(addr, "POST", "/submit?wait=1", b"{\"x\": 1}").unwrap();
        server.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(headers.get("x-cache").map(String::as_str), Some("miss"));
        assert_eq!(body, b"{\"ok\": true}");
    }

    #[test]
    fn a_mebibyte_without_a_newline_is_rejected_after_the_head_budget() {
        let mut source = io::repeat(b'a').take(1 << 20);
        let err = read_request(&mut source).unwrap_err();
        assert_eq!(err.to_string(), "request head too large");
        // Only the head budget plus one buffer fill was pulled off the
        // stream, not the whole line.
        let consumed = (1 << 20) - source.limit() as usize;
        assert!(consumed <= 2 * MAX_HEAD, "read {consumed} bytes");
    }

    #[test]
    fn a_head_exactly_at_the_bound_is_accepted_and_one_byte_more_is_not() {
        let head = |filler: usize| {
            let mut raw = b"GET / HTTP/1.1\r\nx: ".to_vec();
            raw.resize(raw.len() + filler, b'a');
            raw.extend_from_slice(b"\r\n\r\n");
            raw
        };
        let fits = MAX_HEAD - head(0).len();
        assert_eq!(head(fits).len(), MAX_HEAD);
        assert!(read_request(&head(fits)[..]).is_ok());
        let err = read_request(&head(fits + 1)[..]).unwrap_err();
        assert_eq!(err.to_string(), "request head too large");
    }

    /// Raw request bytes: well-formed pieces, over-long lines, oversized
    /// bodies and noise, in any order.
    fn arb_raw_request() -> impl Strategy<Value = Vec<u8>> {
        let piece = prop_oneof![
            Just(b"POST /submit?wait=1&a HTTP/1.1\r\n".to_vec()),
            Just(b"GET /healthz HTTP/1.1\n".to_vec()),
            Just(b"host: 127.0.0.1\r\n".to_vec()),
            Just(b"Content-Length: 4\r\n".to_vec()),
            Just(b"content-length: 99999999\r\n".to_vec()),
            Just(b"\r\n".to_vec()),
            Just(b"\r\n".to_vec()),
            (0usize..20_000).prop_map(|n| vec![b'x'; n]),
            proptest::collection::vec(any::<u8>(), 0..32),
        ];
        proptest::collection::vec(piece, 0..12).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn raw_bytes_never_panic_and_ok_requests_stay_in_bounds(raw in arb_raw_request()) {
            if let Ok(req) = read_request(&raw[..]) {
                let head: usize = req.method.len()
                    + req.path.len()
                    + req.query.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>()
                    + req.headers.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>();
                prop_assert!(head <= MAX_HEAD, "head of {head} bytes accepted");
                prop_assert!(req.body.len() <= MAX_BODY);
            }
        }
    }
}
