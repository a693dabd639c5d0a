//! Blocking protocol client for the CLI, tools and tests:
//! line-delimited by default, `SKYWIRE01` binary frames after
//! [`Client::hello`], pipelined on demand.
//!
//! One request out, one response back — or, with
//! [`Client::pipeline`], N requests written back-to-back and N replies
//! read in order, paying one round trip for the whole burst. The typed
//! helpers ([`Client::load`], [`Client::append`], [`Client::query`],
//! [`Client::batch`], [`Client::stats`], [`Client::shutdown`]) strip
//! the `OK `/`ERR ` status prefix and hand back the payload.
//!
//! Both transports carry the same bytes: a binary frame's payload is
//! exactly the text request/response (line, plus `\n` + raw body when
//! the line announces `bytes=<n>`), so switching modes never changes a
//! reply's content. Replies are bounded either way: a text reply is cut
//! out by the same response scanner the cluster's exchange engine uses,
//! which refuses a status line past 1 MiB, and a frame or body past the
//! frame cap is refused before it is read — so a larger reply, such as
//! a `BATCH` of thousands of selections, needs the binary framing.
//! Servers never use this client to talk to each other; their exchanges
//! run on the cluster's deadline-bounded engine.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use skydiver_cluster::frame;

use crate::protocol::{complete_response, parse_response, BatchSpec, QuerySpec, WIRE_PROTO};

/// A connected client. Not thread-safe — open one client per thread.
pub struct Client {
    stream: TcpStream,
    /// Bytes read past the last reply: the start of a pipelined burst's
    /// next replies.
    rbuf: Vec<u8>,
    framed: bool,
}

impl Client {
    /// Connects to a running server. Request/response turnarounds are
    /// latency sensitive, so `TCP_NODELAY` is set.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            rbuf: Vec::new(),
            framed: false,
        })
    }

    /// Connects, retrying `attempts` times with `delay` between tries —
    /// for scripts that race server startup.
    pub fn connect_retry<A: ToSocketAddrs + Copy>(
        addr: A,
        attempts: usize,
        delay: Duration,
    ) -> std::io::Result<Client> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(delay);
                }
            }
        }
        // lint: allow(R1) -- the `0..attempts.max(1)` range runs at least
        // once, so `last` is always populated on the error path
        Err(last.expect("at least one attempt"))
    }

    /// Whether the connection has been switched to binary framing.
    pub fn is_framed(&self) -> bool {
        self.framed
    }

    /// Negotiates the `SKYWIRE01` binary framing: sends `HELLO` in
    /// plain text, checks the acknowledgement, and frames everything
    /// after it (both directions).
    pub fn hello(&mut self) -> Result<(), String> {
        let payload = self.exchange(&format!("HELLO proto={WIRE_PROTO}"))?;
        if payload.trim() != format!("proto={WIRE_PROTO}") {
            return Err(format!("unexpected HELLO acknowledgement {payload:?}"));
        }
        self.framed = true;
        Ok(())
    }

    /// Writes one request (line + optional raw body) in the current
    /// transport mode, without flushing — pipelining batches many of
    /// these before one flush.
    fn send_request(&mut self, line: &str, body: Option<&[u8]>) -> std::io::Result<()> {
        if self.framed {
            let mut payload = Vec::with_capacity(line.len() + 1 + body.map_or(0, |b| b.len()));
            payload.extend_from_slice(line.as_bytes());
            if let Some(b) = body {
                payload.push(b'\n');
                payload.extend_from_slice(b);
            }
            self.stream.write_all(&frame::encode(&payload))
        } else {
            writeln!(self.stream, "{line}")?;
            if let Some(b) = body {
                self.stream.write_all(b)?;
            }
            Ok(())
        }
    }

    /// Reads more bytes from the server into `rbuf` (none after an
    /// interrupted read; every caller loops). End of stream is an error:
    /// a reply is always pending when this is called.
    fn read_more(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = match self.stream.read(&mut chunk) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return Ok(()),
            read => read?,
        };
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.rbuf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Reads one reply in the current transport mode: the status line
    /// plus its raw body, present whenever the line announces
    /// `bytes=<n>` (text) or the frame payload carries trailing bytes
    /// (binary). A text reply is cut out by the response scanner every
    /// reader shares, so a status line that never ends is an error once
    /// it passes the scanner's cap, not an ever-growing buffer.
    fn recv_reply(&mut self) -> std::io::Result<(String, Option<Vec<u8>>)> {
        if !self.framed {
            // lint: allow(R2) -- every pass reads more bytes or returns;
            // the scanner errors once a line passes its cap
            loop {
                if let Some((parts, used)) =
                    complete_response(&self.rbuf).map_err(std::io::Error::other)?
                {
                    self.rbuf.drain(..used);
                    return Ok(parts);
                }
                self.read_more()?;
            }
        }
        while self.rbuf.len() < 8 {
            self.read_more()?;
        }
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&self.rbuf[..8]);
        let plen = u64::from_le_bytes(len8);
        if plen > frame::MAX_FRAME_BYTES as u64 {
            return Err(std::io::Error::other(format!(
                "response frame of {plen} bytes exceeds the cap"
            )));
        }
        let total = 8 + plen as usize + 8;
        while self.rbuf.len() < total {
            self.read_more()?;
        }
        let whole: Vec<u8> = self.rbuf.drain(..total).collect();
        let payload = frame::decode(&whole)?;
        match payload.iter().position(|&b| b == b'\n') {
            Some(i) => Ok((
                String::from_utf8_lossy(&payload[..i]).into_owned(),
                Some(payload[i + 1..].to_vec()),
            )),
            None => Ok((String::from_utf8_lossy(payload).into_owned(), None)),
        }
    }

    /// Sends one raw request line, returns the raw response line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send_request(line, None)?;
        self.stream.flush()?;
        Ok(self.recv_reply()?.0)
    }

    /// Sends one request line and splits the response into
    /// `Ok(payload)` / `Err(message)`.
    pub fn exchange(&mut self, line: &str) -> Result<String, String> {
        let response = self.request(line).map_err(|e| format!("transport: {e}"))?;
        parse_response(&response)
    }

    /// Writes every request back-to-back, flushes once, then reads the
    /// replies in order — the whole burst costs one round trip instead
    /// of one per request. Replies are returned as raw response lines,
    /// index-aligned with `lines`.
    pub fn pipeline(&mut self, lines: &[String]) -> std::io::Result<Vec<String>> {
        for line in lines {
            self.send_request(line, None)?;
        }
        self.stream.flush()?;
        let mut replies = Vec::with_capacity(lines.len());
        for _ in 0..lines.len() {
            replies.push(self.recv_reply()?.0);
        }
        Ok(replies)
    }

    /// `LOAD name=<name> path=<path>` — returns the summary payload.
    pub fn load(&mut self, name: &str, path: &str) -> Result<String, String> {
        self.exchange(&format!("LOAD name={name} path={path}"))
    }

    /// `APPEND name=<name> path=<path>` — grows a loaded dataset by one
    /// shard; returns the summary payload.
    pub fn append(&mut self, name: &str, path: &str) -> Result<String, String> {
        self.exchange(&format!("APPEND name={name} path={path}"))
    }

    /// Runs a query; returns the one-line JSON result payload.
    pub fn query(&mut self, spec: &QuerySpec) -> Result<String, String> {
        self.exchange(&spec.to_line())
    }

    /// Runs a batch (one fingerprint, many selections); returns the
    /// one-line JSON result payload with its `results` array.
    pub fn batch(&mut self, spec: &BatchSpec) -> Result<String, String> {
        self.exchange(&spec.to_line())
    }

    /// `STATS` — returns the one-line JSON metrics snapshot.
    pub fn stats(&mut self) -> Result<String, String> {
        self.exchange("STATS")
    }

    /// `SNAPSHOT` — flushes the server's write-behind signature store;
    /// returns `persisted=<n>`.
    pub fn snapshot(&mut self) -> Result<String, String> {
        self.exchange("SNAPSHOT")
    }

    /// `RESTORE` — re-runs the store's recovery sweep; returns
    /// `artifacts=<n> quarantined=<q> removed_temps=<r>`.
    pub fn restore(&mut self) -> Result<String, String> {
        self.exchange("RESTORE")
    }

    /// `SHUTDOWN` — asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<String, String> {
        self.exchange("SHUTDOWN")
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    use super::*;
    use crate::protocol::MAX_RESPONSE_LINE;

    /// A server that never ends its status line cannot grow the client's
    /// buffer without bound: once the line passes the scanner's cap, the
    /// request fails.
    #[test]
    fn a_reply_line_past_the_cap_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut request = String::new();
            reader.read_line(&mut request).unwrap();
            let mut writer = stream;
            let _ = writer.write_all(&vec![b'O'; MAX_RESPONSE_LINE + 1]);
            // Hold the connection until the client hangs up.
            let _ = reader.read_line(&mut request);
        });
        let mut client = Client::connect(addr).unwrap();
        let err = client.request("STATS").unwrap_err();
        assert!(err.to_string().contains("without a newline"), "{err}");
        drop(client);
        server.join().unwrap();
    }
}
