//! The exchange engine: every request this process sends another
//! server — a coordinator's `FOLD`, `SHARDPUT`, `REPLICATE` and `STATS`
//! legs, and a worker's `FETCH` pull — runs on [`exchange`], under one
//! shared deadline per call. A reply that fails the caller's check is
//! retried on the leg's next address, exactly like a dead peer.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use skydiver_cluster::DeadlineBudget;

use crate::metrics::Metrics;
use crate::poll::{Event, Interest, Poller};
use crate::protocol::{complete_response, parse_response};

/// One in-flight multiplexed connection: the request going out (its
/// line, then the borrowed body) and the buffered response coming back.
struct LegConn<'a> {
    stream: TcpStream,
    owner: String,
    head: Vec<u8>,
    body: &'a [u8],
    wpos: usize,
    rbuf: Vec<u8>,
    started: Instant,
}

/// One leg of the exchange engine: the addresses it is tried on, in
/// order, the framed body its request carries, and its progress.
struct LegState<'a, T> {
    owners: Vec<String>,
    body: &'a [u8],
    attempt: usize,
    conn: Option<LegConn<'a>>,
    last_err: String,
    done: Option<Result<T, String>>,
}

/// Outcome of driving one connection through a readiness event.
enum Drive {
    /// More bytes to move; keep the connection registered.
    Pending,
    /// One full response buffered: the raw status line and its body.
    Complete(String, Option<Vec<u8>>),
    /// The attempt failed; the caller retries on the next replica.
    Failed(String),
}

/// The exchange engine, the one way this process talks to another
/// server. Each leg is a list of addresses tried in order and an
/// optional framed body. Every leg is in flight at once, a connect →
/// write → read state machine multiplexed on the calling thread by the
/// readiness shim, all under one shared `deadline` — a stalled peer can
/// never hold the caller past it. `line(i, ms)` builds leg `i`'s
/// request line for one attempt, with `ms` left of the deadline to
/// forward; `check(i, payload, body)` turns an `OK` reply into the
/// leg's result. An `ERR` reply, a failed check or a transport failure
/// retries the leg on its next address. With `fanout`, attempts,
/// retries, failures and latencies are recorded as fan-out legs.
pub(crate) fn exchange<'a, T>(
    legs: Vec<(Vec<String>, Option<&'a [u8]>)>,
    deadline: &DeadlineBudget,
    fanout: Option<&Metrics>,
    line: impl Fn(usize, u64) -> String,
    check: impl Fn(usize, &str, Option<Vec<u8>>) -> Result<T, String>,
) -> Vec<Result<T, String>> {
    let mut poller = Poller::new();
    let mut legs: Vec<LegState<'a, T>> = legs
        .into_iter()
        .map(|(owners, body)| LegState {
            owners,
            body: body.unwrap_or_default(),
            attempt: 0,
            conn: None,
            last_err: "no address to try".to_string(),
            done: None,
        })
        .collect();
    let mut events = Vec::new();
    // lint: allow(R2) -- every pass checks the shared deadline and
    // fails all pending legs once it expires
    loop {
        for (token, leg) in legs.iter_mut().enumerate() {
            // lint: allow(R2) -- bounded by the leg's address count, with
            // the shared deadline checked on entry to every attempt
            while leg.done.is_none() && leg.conn.is_none() {
                let Some(owner) = leg.owners.get(leg.attempt).cloned() else {
                    leg.done = Some(Err(std::mem::take(&mut leg.last_err)));
                    break;
                };
                let Some(ms) = deadline.remaining_ms() else {
                    leg.done = Some(Err("deadline exhausted".to_string()));
                    break;
                };
                leg.attempt += 1;
                if let Some(m) = fanout {
                    m.bump(&m.fanout_legs);
                    if leg.attempt > 1 {
                        m.bump(&m.fanout_retries);
                    }
                }
                let started = Instant::now();
                match connect_leg(&owner, deadline, &mut poller, token) {
                    Ok(stream) => {
                        let mut head = line(token, ms).into_bytes();
                        head.push(b'\n');
                        leg.conn = Some(LegConn {
                            stream,
                            owner,
                            head,
                            body: leg.body,
                            wpos: 0,
                            rbuf: Vec::new(),
                            started,
                        });
                    }
                    Err(e) => leg.last_err = format!("{owner}: {e}"),
                }
            }
        }
        if legs.iter().all(|l| l.done.is_some()) {
            break;
        }
        let waited = match deadline.remaining_ms() {
            None => Err("deadline exhausted".to_string()),
            Some(ms) => poller
                .wait(&mut events, Some(Duration::from_millis(ms.min(50))))
                .map_err(|e| format!("poll wait failed: {e}")),
        };
        if let Err(e) = waited {
            for leg in legs.iter_mut().filter(|l| l.done.is_none()) {
                leg.done = Some(Err(e.clone()));
            }
            break;
        }
        for ev in &events {
            let token = ev.token as usize;
            let Some(leg) = legs.get_mut(token) else {
                continue;
            };
            let Some(conn) = leg.conn.as_mut() else {
                continue;
            };
            let reply = match drive_conn(&mut poller, conn, ev) {
                Drive::Pending => continue,
                Drive::Complete(line, body) => {
                    parse_response(&line).and_then(|payload| check(token, &payload, body))
                }
                Drive::Failed(e) => Err(e),
            };
            let Some(conn) = leg.conn.take() else {
                continue;
            };
            let _ = poller.deregister(conn.stream.as_raw_fd());
            match reply {
                Ok(v) => {
                    if let Some(m) = fanout {
                        m.fanout
                            .record_micros(conn.started.elapsed().as_micros() as u64);
                    }
                    leg.done = Some(Ok(v));
                }
                Err(e) => leg.last_err = format!("{}: {e}", conn.owner),
            }
        }
    }
    let results: Vec<Result<T, String>> = legs
        .into_iter()
        .map(|l| {
            l.done
                .unwrap_or_else(|| Err("exchange incomplete".to_string()))
        })
        .collect();
    if let Some(m) = fanout {
        let failures = results.iter().filter(|r| r.is_err()).count();
        m.add(&m.fanout_failures, failures as u64);
    }
    results
}

/// Connects `addr` within what is left of `deadline` (a blocking
/// connect), switches the stream nonblocking and registers it with
/// `poller` under `token`.
fn connect_leg(
    addr: &str,
    deadline: &DeadlineBudget,
    poller: &mut Poller,
    token: usize,
) -> std::io::Result<TcpStream> {
    let remaining = deadline
        .remaining()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::TimedOut, "deadline exhausted"))?;
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, remaining)?;
    stream.set_nodelay(true).ok();
    stream.set_nonblocking(true)?;
    poller.register(stream.as_raw_fd(), token as u64, Interest::BOTH)?;
    Ok(stream)
}

/// Moves bytes for one connection after a readiness event: drains the
/// request while writable (downgrading to read-only interest once it is
/// out), then reads until the response completes or the socket would
/// block.
fn drive_conn(poller: &mut Poller, conn: &mut LegConn<'_>, ev: &Event) -> Drive {
    let total = conn.head.len() + conn.body.len();
    if ev.writable && conn.wpos < total {
        // lint: allow(R2) -- drains a bounded request buffer and exits
        // on WouldBlock; the outer engine loop holds the deadline
        loop {
            let out = match conn.wpos.checked_sub(conn.head.len()) {
                None => &conn.head[conn.wpos..],
                Some(at) => &conn.body[at..],
            };
            match conn.stream.write(out) {
                Ok(0) => return Drive::Failed("transport: connection closed mid-request".into()),
                Ok(n) => {
                    conn.wpos += n;
                    if conn.wpos == total {
                        let _ = poller.modify(conn.stream.as_raw_fd(), ev.token, Interest::READ);
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Drive::Failed(format!("transport: {e}")),
            }
        }
    }
    if ev.readable {
        let mut chunk = [0u8; 16 * 1024];
        // lint: allow(R2) -- reads until WouldBlock/EOF or a complete
        // response; response size is capped by `complete_response`
        loop {
            let closed = match conn.stream.read(&mut chunk) {
                Ok(0) => true,
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    false
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Drive::Failed(format!("transport: {e}")),
            };
            match complete_response(&conn.rbuf) {
                Ok(Some(((line, body), _))) => return Drive::Complete(line, body),
                Ok(None) if closed => {
                    return Drive::Failed("transport: server closed the connection".into())
                }
                Ok(None) => {}
                Err(e) => return Drive::Failed(e),
            }
        }
    }
    if ev.closed && !ev.readable {
        return Drive::Failed("transport: connection closed".into());
    }
    Drive::Pending
}

/// Extracts `key=<u64>` from a space-separated `key=value` response
/// header.
pub(crate) fn header_u64(header: &str, key: &str) -> Option<u64> {
    header
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_kv_parser_reads_u64s() {
        assert_eq!(header_u64("reused=1 tests=42 bytes=7", "tests"), Some(42));
        assert_eq!(header_u64("reused=1", "tests"), None);
    }
}
