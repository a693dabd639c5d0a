//! The client side of the wire: one connection speaking the text
//! protocol or, after `HELLO`, `SKYWIRE01` frames; and the `STATS`
//! counters the benchmark reads before and after the measured phase.
//!
//! The benchmark keeps its own connection type instead of the serve
//! crate's `Client` because a pipelined burst needs the arrival time of
//! each reply, not of the whole burst.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use skydiver_cluster::frame;
use skydiver_serve::protocol::{json_u64, parse_response, WIRE_PROTO};

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    framed: bool,
    /// Bytes of the last reply read, framing included.
    pub last_reply_bytes: u64,
}

impl Conn {
    /// Connects with `TCP_NODELAY`, in text mode.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            framed: false,
            last_reply_bytes: 0,
        })
    }

    /// Switches the connection to `SKYWIRE01` binary frames.
    pub fn hello(&mut self) -> Result<(), String> {
        let reply = self
            .request(&format!("HELLO proto={WIRE_PROTO}"))
            .map_err(|e| e.to_string())?;
        if parse_response(&reply)?.trim() != format!("proto={WIRE_PROTO}") {
            return Err(format!("unexpected HELLO reply {reply:?}"));
        }
        self.framed = true;
        Ok(())
    }

    /// Writes every request with one flush, in the current mode.
    pub fn send(&mut self, lines: &[&str]) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(lines.iter().map(|l| l.len() + 17).sum());
        for line in lines {
            if self.framed {
                buf.extend_from_slice(&frame::encode(line.as_bytes()));
            } else {
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
            }
        }
        self.writer.write_all(&buf)?;
        self.writer.flush()
    }

    /// Reads one reply line (`OK …` / `ERR …`), checking the frame
    /// checksum in binary mode.
    pub fn recv(&mut self) -> std::io::Result<String> {
        if self.framed {
            let mut len8 = [0u8; 8];
            self.reader.read_exact(&mut len8)?;
            let len = u64::from_le_bytes(len8);
            if len > frame::MAX_FRAME_BYTES as u64 {
                return Err(std::io::Error::other(format!("reply frame of {len} bytes")));
            }
            let mut whole = vec![0u8; 16 + len as usize];
            whole[..8].copy_from_slice(&len8);
            self.reader.read_exact(&mut whole[8..])?;
            self.last_reply_bytes = whole.len() as u64;
            let payload = frame::decode(&whole)?;
            Ok(String::from_utf8_lossy(payload).into_owned())
        } else {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.last_reply_bytes = line.len() as u64;
            Ok(line.trim_end().to_string())
        }
    }

    /// One request, one reply.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send(&[line])?;
        self.recv()
    }

    /// A request whose reply must be `OK`; returns the payload.
    pub fn ok(&mut self, line: &str) -> Result<String, String> {
        let reply = self.request(line).map_err(|e| format!("{line}: {e}"))?;
        parse_response(&reply).map_err(|e| format!("{line}: {e}"))
    }
}

/// The `STATS` counters whose deltas a run checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub queries: u64,
    pub appends: u64,
    pub errors: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub selection_hits: u64,
    pub shards_reused: u64,
    pub dominance_tests: u64,
    pub fanout_legs: u64,
    pub fanout_retries: u64,
    pub fanout_failures: u64,
    pub bytes_out: u64,
    pub bytes_resident: u64,
    pub pipeline_count: u64,
}

impl Counters {
    /// Reads the counters from a `STATS` payload. A coordinator's
    /// payload starts with its own snapshot and nests the workers'
    /// after it, so the first match of each key is the coordinator's.
    pub fn parse(stats: &str) -> Result<Counters, String> {
        let get = |key: &str| json_u64(stats, key).ok_or_else(|| format!("STATS lacks {key}"));
        Ok(Counters {
            queries: get("queries")?,
            appends: get("appends")?,
            errors: get("errors")?,
            cache_hits: get("cache_hits")?,
            cache_misses: get("cache_misses")?,
            cache_evictions: get("cache_evictions")?,
            selection_hits: get("selection_hits")?,
            shards_reused: get("shards_reused")?,
            dominance_tests: get("dominance_tests")?,
            fanout_legs: get("fanout_legs")?,
            fanout_retries: get("fanout_retries")?,
            fanout_failures: get("fanout_failures")?,
            bytes_out: get("bytes_out")?,
            bytes_resident: get("bytes_resident")?,
            pipeline_count: get("pipeline_count")?,
        })
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            queries: self.queries.saturating_sub(before.queries),
            appends: self.appends.saturating_sub(before.appends),
            errors: self.errors.saturating_sub(before.errors),
            cache_hits: self.cache_hits.saturating_sub(before.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(before.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(before.cache_evictions),
            selection_hits: self.selection_hits.saturating_sub(before.selection_hits),
            shards_reused: self.shards_reused.saturating_sub(before.shards_reused),
            dominance_tests: self.dominance_tests.saturating_sub(before.dominance_tests),
            fanout_legs: self.fanout_legs.saturating_sub(before.fanout_legs),
            fanout_retries: self.fanout_retries.saturating_sub(before.fanout_retries),
            fanout_failures: self.fanout_failures.saturating_sub(before.fanout_failures),
            bytes_out: self.bytes_out.saturating_sub(before.bytes_out),
            bytes_resident: self.bytes_resident,
            pipeline_count: self.pipeline_count.saturating_sub(before.pipeline_count),
        }
    }
}

/// Resets this process's peak resident set to its current one, so a
/// later [`rss_peak_mb`] covers only what runs after the reset.
pub fn reset_rss_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset the peak RSS: {e}"))
}

/// Peak resident set of this process in MiB (`VmHWM`) since the last
/// [`reset_rss_peak`]: the servers run in-process, so this is their peak
/// plus the client's and what the benchmark still holds.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
