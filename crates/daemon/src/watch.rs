//! Server-sent events over chunked HTTP/1.1: the `/watch/<id>` wire
//! format, plus the blocking client `trace_query --follow` and the
//! integration tests use to tail it.
//!
//! The daemon's HTTP layer is one-shot by design (`Connection: close`,
//! `Content-Length` bodies); a live stream can't know its length up
//! front, so `/watch` is the one route framed with
//! `Transfer-Encoding: chunked` instead. Each SSE block —
//!
//! ```text
//! id: 17
//! event: trial_finished
//! data: {"seq":17,"kind":"trial_finished","done":3,"total":8}
//! <blank line>
//! ```
//!
//! — is written as exactly one chunk, so a subscriber never sees a
//! torn event. The `id:` line carries the journal sequence number,
//! which makes standard `Last-Event-ID` resume exact arithmetic: a
//! reconnecting client asks for `last + 1` and the server replays from
//! the journal (or reports the shed gap as an SSE comment).
//!
//! Writes can fail at any moment — a subscriber hanging up surfaces as
//! `EPIPE` (Rust ignores `SIGPIPE`), which the caller counts in
//! `daemon.watch.disconnected` and must treat as *that subscriber's*
//! problem: the job and every other subscriber proceed.

use polite_wifi_obs::events::ProgressEvent;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Writes the response head that switches the connection into an SSE
/// stream: 200, `text/event-stream`, chunked framing, close-on-end.
pub fn write_sse_head(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\n\
          content-type: text/event-stream\r\n\
          cache-control: no-store\r\n\
          transfer-encoding: chunked\r\n\
          connection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Writes one payload as one chunk.
fn write_chunk(stream: &mut TcpStream, payload: &str) -> io::Result<()> {
    write!(stream, "{:x}\r\n{payload}\r\n", payload.len())?;
    stream.flush()
}

/// Writes one event as one SSE block in one chunk.
pub fn write_sse_event(stream: &mut TcpStream, event: &ProgressEvent) -> io::Result<()> {
    let block = format!(
        "id: {}\nevent: {}\ndata: {}\n\n",
        event.seq,
        event.kind,
        event.to_json()
    );
    write_chunk(stream, &block)
}

/// Writes an SSE comment block (used to report shed gaps in-band
/// without disturbing the `id:` sequence).
pub fn write_sse_comment(stream: &mut TcpStream, text: &str) -> io::Result<()> {
    write_chunk(stream, &format!(": {text}\n\n"))
}

/// Writes the terminal zero-length chunk that ends the stream.
pub fn finish_sse(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// One event as decoded by [`SseClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SseEvent {
    /// The `id:` line — the journal sequence number.
    pub id: Option<u64>,
    /// The `event:` line — the [`ProgressEvent`] kind.
    pub event: String,
    /// The `data:` line — the event's JSON document.
    pub data: String,
}

/// A minimal blocking SSE subscriber: de-chunks the HTTP framing,
/// splits SSE blocks, skips comments. One connection, read until the
/// server ends the stream.
pub struct SseClient {
    reader: BufReader<TcpStream>,
    /// Decoded-but-unparsed stream text carried between chunks.
    buffer: String,
    /// Terminal chunk seen; no more reads.
    done: bool,
}

impl SseClient {
    /// Connects and subscribes to `target` (e.g. `/watch/3`). With
    /// `last_event_id`, sends the standard `Last-Event-ID` header so
    /// the server resumes after that sequence number. Returns the HTTP
    /// status and, when 200, a client positioned at the first event.
    pub fn connect(
        addr: SocketAddr,
        target: &str,
        last_event_id: Option<u64>,
    ) -> io::Result<(u16, SseClient)> {
        let mut stream = TcpStream::connect(addr)?;
        let resume = match last_event_id {
            Some(id) => format!("last-event-id: {id}\r\n"),
            None => String::new(),
        };
        stream.write_all(
            format!(
                "GET {target} HTTP/1.1\r\nhost: {addr}\r\naccept: text/event-stream\r\n\
                 {resume}connection: close\r\n\r\n"
            )
            .as_bytes(),
        )?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut chunked = false;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("transfer-encoding")
                    && value.trim().eq_ignore_ascii_case("chunked")
                {
                    chunked = true;
                }
            }
        }
        Ok((
            status,
            SseClient {
                reader,
                buffer: String::new(),
                // Non-200 (or non-chunked error body): nothing to read.
                done: status != 200 || !chunked,
            },
        ))
    }

    /// Reads one chunk into the text buffer. Returns false at the
    /// terminal chunk (or EOF).
    fn read_chunk(&mut self) -> io::Result<bool> {
        let mut size_line = String::new();
        if self.reader.read_line(&mut size_line)? == 0 {
            return Ok(false);
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            return Ok(false);
        }
        let mut payload = vec![0u8; size + 2]; // chunk + trailing CRLF
        self.reader.read_exact(&mut payload)?;
        payload.truncate(size);
        self.buffer.push_str(&String::from_utf8_lossy(&payload));
        Ok(true)
    }

    /// The next event, or `None` once the server has ended the stream.
    /// Blocks while the stream is live but idle. Comments are skipped.
    pub fn next_event(&mut self) -> io::Result<Option<SseEvent>> {
        loop {
            // A complete SSE block is terminated by a blank line.
            if let Some(end) = self.buffer.find("\n\n") {
                let block: String = self.buffer.drain(..end + 2).collect();
                let mut event = SseEvent {
                    id: None,
                    event: String::new(),
                    data: String::new(),
                };
                for line in block.lines() {
                    if let Some(rest) = line.strip_prefix("id: ") {
                        event.id = rest.trim().parse().ok();
                    } else if let Some(rest) = line.strip_prefix("event: ") {
                        event.event = rest.trim().to_string();
                    } else if let Some(rest) = line.strip_prefix("data: ") {
                        event.data = rest.to_string();
                    }
                }
                if event.event.is_empty() && event.data.is_empty() {
                    continue; // comment block
                }
                return Ok(Some(event));
            }
            if self.done {
                return Ok(None);
            }
            if !self.read_chunk()? {
                self.done = true;
            }
        }
    }

    /// Drains the stream to its end, returning every remaining event.
    pub fn collect_events(&mut self) -> io::Result<Vec<SseEvent>> {
        let mut events = Vec::new();
        while let Some(event) = self.next_event()? {
            events.push(event);
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trip: server writes head + events + comment + terminal
    /// chunk; the client decodes exactly the events, in order.
    #[test]
    fn sse_events_round_trip_over_a_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Consume the request head.
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut saw_resume = false;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if line.to_ascii_lowercase().starts_with("last-event-id:") {
                    saw_resume = line.contains('5');
                }
                if line.trim_end().is_empty() {
                    break;
                }
            }
            assert!(saw_resume, "client must send Last-Event-ID");
            write_sse_head(&mut stream).unwrap();
            let mut e = ProgressEvent::new("trial_finished")
                .with("done", 1)
                .with("total", 2);
            e.seq = 6;
            write_sse_event(&mut stream, &e).unwrap();
            write_sse_comment(&mut stream, "shed 0 events").unwrap();
            let mut e = ProgressEvent::new("job_finished").with_detail("done");
            e.seq = 7;
            write_sse_event(&mut stream, &e).unwrap();
            finish_sse(&mut stream).unwrap();
        });

        let (status, mut client) = SseClient::connect(addr, "/watch/1", Some(5)).unwrap();
        assert_eq!(status, 200);
        let events = client.collect_events().unwrap();
        server.join().unwrap();

        assert_eq!(events.len(), 2, "comment must be skipped: {events:?}");
        assert_eq!(events[0].id, Some(6));
        assert_eq!(events[0].event, "trial_finished");
        assert!(events[0].data.contains("\"done\":1"));
        assert_eq!(events[1].id, Some(7));
        assert_eq!(events[1].event, "job_finished");
        assert!(events[1].data.contains("\"detail\":\"done\""));
        // The stream is over; further polls keep returning None.
        assert!(client.next_event().unwrap().is_none());
    }
}
