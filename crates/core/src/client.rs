//! The metadata server's HTTP client: `GET` and `POST` under a
//! [`DiscoveryPolicy`], over a process-wide cache of idle keep-alive
//! connections.
//!
//! Every GET asks for `Connection: keep-alive`, and a response that keeps
//! its connection returns it to a cache of up to [`IDLE_CONNECTIONS`]
//! idle connections for the whole process, so a fresh session's
//! discovery reuses the last one's connection instead of paying for a
//! TCP handshake and teardown. The functions are re-exported from
//! [`crate::server`], where callers name them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::discovery::{DiscoveryPolicy, DiscoveryStats, Extent};
use crate::error::X2wError;
use crate::server::{head_end, lists_token, CLOSURE_HEADER, MAX_HEADER_BYTES};
use crate::unpoisoned;
use crate::url::Locator;

/// Cap on one HTTP response body accepted by the client side
/// ([`http_get_with`]); a hostile or broken server cannot balloon a
/// discovery fetch into an unbounded buffer.
pub(crate) const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// Idle keep-alive connections the client keeps across every server it
/// talks to.
const IDLE_CONNECTIONS: usize = 8;

/// What the client acts on in a response head.
#[derive(Debug, PartialEq, Eq)]
struct ResponseHead {
    status: u16,
    content_length: Option<usize>,
    /// `Connection` lists `keep-alive`.
    keep_alive: bool,
    /// Where the body starts: the length of the head, blank line included.
    body_start: usize,
}

/// Parses the head at the front of a response: `Ok(None)` while it has
/// not all arrived. Refuses a head that is not UTF-8, one longer than
/// [`MAX_HEADER_BYTES`], a status line without a numeric status, and a
/// `Content-Length` that is not a number or contradicts an earlier one.
fn parse_response_head(bytes: &[u8]) -> Result<Option<ResponseHead>, &'static str> {
    let budget = &bytes[..bytes.len().min(MAX_HEADER_BYTES)];
    let Some(body_start) = head_end(budget, &mut 0) else {
        return match bytes.len() >= MAX_HEADER_BYTES {
            true => Err("response head too long"),
            false => Ok(None),
        };
    };
    let head = std::str::from_utf8(&bytes[..body_start]).map_err(|_| "response is not UTF-8")?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|status| status.parse().ok())
        .ok_or("malformed status line")?;
    let mut parsed = ResponseHead {
        status,
        content_length: None,
        keep_alive: false,
        body_start,
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let length = value.parse().map_err(|_| "malformed Content-Length")?;
            if parsed.content_length.is_some_and(|known| known != length) {
                return Err("conflicting Content-Length");
            }
            parsed.content_length = Some(length);
        } else if name.eq_ignore_ascii_case("connection") {
            parsed.keep_alive = lists_token(value.as_bytes(), b"keep-alive");
        }
    }
    Ok(Some(parsed))
}

/// Registers a metadata document at `url` with a minimal HTTP/1.0 POST
/// — the remote half of the paper's future-work "format registration
/// mechanism … that incorporates the HTTP protocol".
///
/// # Errors
///
/// Connection failures, malformed responses, or a non-2xx status (the
/// server rejects documents that are not well-formed schemas).
pub fn http_post(url: &str, document: &str) -> Result<(), X2wError> {
    http_post_with(url, document, &DiscoveryPolicy::default())
}

/// [`http_post`] under an explicit [`DiscoveryPolicy`]: connect, write
/// and read deadlines, bounded retries, and a total wall-clock cap.
///
/// # Errors
///
/// As [`http_post`]; transport failures are retried per the policy, a
/// definitive HTTP status (even 5xx) is returned immediately.
pub fn http_post_with(url: &str, document: &str, policy: &DiscoveryPolicy) -> Result<(), X2wError> {
    let locator = Locator::parse(url)?;
    let Locator::Http { host, path, .. } = &locator else {
        return Err(X2wError::BadLocator {
            locator: url.to_owned(),
            reason: "http_post requires an http:// URL".to_owned(),
        });
    };
    let head = format!(
        "POST {path} HTTP/1.0\r\nHost: {host}\r\nContent-Type: text/xml\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        document.len()
    );
    let response = http_exchange(&locator, url, &head, document.as_bytes(), policy, None)?;
    let Ok(Some(parsed)) = parse_response_head(&response) else {
        return Err(X2wError::BadLocator {
            locator: url.to_owned(),
            reason: "malformed HTTP response".to_owned(),
        });
    };
    if (200..300).contains(&parsed.status) {
        Ok(())
    } else {
        let detail = String::from_utf8_lossy(&response[parsed.body_start..]);
        Err(X2wError::Discovery {
            locator: url.to_owned(),
            attempts: vec![format!(
                "server answered HTTP {}: {}",
                parsed.status,
                detail.trim()
            )],
        })
    }
}

/// Fetches `url` with a minimal HTTP/1.0 GET and returns the body.
///
/// # Errors
///
/// Reports connection failures, malformed responses and non-200
/// statuses.
pub fn http_get(url: &str) -> Result<String, X2wError> {
    http_get_with(url, &DiscoveryPolicy::default())
}

/// [`http_get`] under an explicit [`DiscoveryPolicy`]: connect, write
/// and read deadlines, bounded retries with jittered exponential
/// backoff, and a total wall-clock cap across all of them.
///
/// # Errors
///
/// As [`http_get`]; transport failures are retried per the policy, a
/// definitive HTTP status (even 5xx) is returned immediately.
pub fn http_get_with(url: &str, policy: &DiscoveryPolicy) -> Result<String, X2wError> {
    http_get_observed(url, policy, None, Extent::Whole)
}

/// [`http_get_with`] that additionally records retries into `stats` and,
/// for [`Extent::Closure`], asks the server for the closure of the
/// document's first complex type.
pub(crate) fn http_get_observed(
    url: &str,
    policy: &DiscoveryPolicy,
    stats: Option<&DiscoveryStats>,
    extent: Extent,
) -> Result<String, X2wError> {
    let locator = Locator::parse(url)?;
    let Locator::Http { host, path, .. } = &locator else {
        return Err(X2wError::BadLocator {
            locator: url.to_owned(),
            reason: "http_get requires an http:// URL".to_owned(),
        });
    };
    // HTTP/1.0 with an explicit keep-alive: an HTTP/1.1 request would
    // invite a chunked response from servers other than this one.
    let head = match extent {
        Extent::Whole => {
            format!("GET {path} HTTP/1.0\r\nHost: {host}\r\nConnection: keep-alive\r\n\r\n")
        }
        Extent::Closure => format!(
            "GET {path} HTTP/1.0\r\nHost: {host}\r\n{CLOSURE_HEADER}: first\r\nConnection: keep-alive\r\n\r\n"
        ),
    };
    let response = http_exchange(&locator, url, &head, b"", policy, stats)?;
    parse_http_response(response, url)
}

/// Runs one request/response exchange under `policy`: up to
/// `policy.attempts` tries, exponential backoff with jitter between
/// them, everything clamped to one total deadline. Transport failures
/// accumulate into the final [`X2wError::Discovery`] so a caller sees
/// *why* every attempt failed, not just that the last one did.
fn http_exchange(
    locator: &Locator,
    url: &str,
    head: &str,
    body: &[u8],
    policy: &DiscoveryPolicy,
    stats: Option<&DiscoveryStats>,
) -> Result<Vec<u8>, X2wError> {
    let deadline = Instant::now() + policy.total_deadline;
    let mut failures = Vec::new();
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                failures.push("total deadline exhausted before retry".to_owned());
                break;
            }
            if let Some(stats) = stats {
                stats.note_retry();
            }
            std::thread::sleep(policy.backoff_before(attempt, jitter_unit()).min(remaining));
        }
        match attempt_exchange(locator, head, body, policy, deadline) {
            Ok(response) => return Ok(response),
            Err(e) => failures.push(format!("attempt {}: {e}", attempt + 1)),
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    Err(X2wError::Discovery {
        locator: url.to_owned(),
        attempts: failures,
    })
}

fn timed_out(message: &str) -> X2wError {
    X2wError::Io(std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        message.to_owned(),
    ))
}

/// Idle keep-alive connections, least recently used first, shared by
/// the whole process: every join builds its own session and source, so a
/// cache per source would never be hit (the JDK's `HttpURLConnection`
/// and Go's `DefaultTransport` keep theirs per process too). Only
/// connections reach it; every discovery still sends a request and
/// parses the body it gets.
static IDLE: Mutex<Vec<(SocketAddr, TcpStream)>> = Mutex::new(Vec::new());

/// The most recently kept idle connection to one of `addrs`.
fn take_idle(addrs: &[SocketAddr]) -> Option<(SocketAddr, TcpStream)> {
    let mut idle = unpoisoned(IDLE.lock());
    let at = idle.iter().rposition(|(addr, _)| addrs.contains(addr))?;
    Some(idle.remove(at))
}

/// Keeps a connection whose response ended where its head said, closing
/// the least recently used one when [`IDLE_CONNECTIONS`] are kept. A
/// cache that refused new entries when full would fill with connections
/// to servers long gone.
fn keep_idle(addr: SocketAddr, stream: TcpStream) {
    let mut idle = unpoisoned(IDLE.lock());
    if idle.len() >= IDLE_CONNECTIONS {
        idle.remove(0);
    }
    idle.push((addr, stream));
}

/// One connect/write/read round trip, every socket operation clamped to
/// the time left before `deadline`. A request goes first over a kept
/// idle connection; if that fails before the first byte of a response,
/// for any reason but a timeout, the server closed it while it sat idle,
/// and the request is sent once more at once on a fresh connection. That
/// re-send is part of this attempt: no backoff, and no retry counted (a
/// POST sent twice republishes the same document). Only a response that
/// says `Connection: keep-alive` returns its connection to [`IDLE`],
/// which a POST's `Connection: close` never gets.
fn attempt_exchange(
    locator: &Locator,
    head: &str,
    body: &[u8],
    policy: &DiscoveryPolicy,
    deadline: Instant,
) -> Result<Vec<u8>, X2wError> {
    let addrs = locator.socket_addrs()?;
    if let Some((addr, stream)) = take_idle(&addrs) {
        match exchange(stream, head, body, policy, deadline, true) {
            Ok((response, stream)) => {
                if let Some(stream) = stream {
                    keep_idle(addr, stream);
                }
                return Ok(response);
            }
            Err(Failed { stale: true, .. }) => {}
            Err(failed) => return Err(failed.error),
        }
    }
    let (addr, stream) = connect(&addrs, policy, deadline)?;
    let (response, stream) =
        exchange(stream, head, body, policy, deadline, false).map_err(|failed| failed.error)?;
    if let Some(stream) = stream {
        keep_idle(addr, stream);
    }
    Ok(response)
}

// `set_*_timeout(ZERO)` is an invalid argument, so deadline clamps floor
// at one millisecond; the explicit deadline checks around them keep that
// floor from compounding into real overrun.
const MIN_TIMEOUT: Duration = Duration::from_millis(1);

/// A fresh connection to the first of `addrs` that accepts one.
fn connect(
    addrs: &[SocketAddr],
    policy: &DiscoveryPolicy,
    deadline: Instant,
) -> Result<(SocketAddr, TcpStream), X2wError> {
    let mut last_err = None;
    for addr in addrs {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out(
                "total discovery deadline exhausted before connect",
            ));
        }
        match TcpStream::connect_timeout(addr, policy.connect_timeout.min(left).max(MIN_TIMEOUT)) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                return Ok((*addr, stream));
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(X2wError::Io(last_err.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::NotConnected, "no address to connect to")
    })))
}

/// Why an exchange failed. `stale`: nothing of a response arrived and
/// the cause was not a timeout, which on a reused connection means the
/// server had closed it.
struct Failed {
    error: X2wError,
    stale: bool,
}

impl Failed {
    fn before_response(error: std::io::Error) -> Failed {
        let timeout = matches!(
            error.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        );
        Failed {
            error: X2wError::Io(error),
            stale: !timeout,
        }
    }
}

impl From<X2wError> for Failed {
    fn from(error: X2wError) -> Failed {
        Failed {
            error,
            stale: false,
        }
    }
}

/// Sends the request over `stream` and reads the response. Returns the
/// stream too when it can carry another request: the head said
/// `Connection: keep-alive` and gave a `Content-Length`, and exactly that
/// many body bytes were read. Any other response is read to EOF.
fn exchange(
    mut stream: TcpStream,
    head: &str,
    body: &[u8],
    policy: &DiscoveryPolicy,
    deadline: Instant,
    reused: bool,
) -> Result<(Vec<u8>, Option<TcpStream>), Failed> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(timed_out("total discovery deadline exhausted before write").into());
    }
    stream
        .set_write_timeout(Some(policy.write_timeout.min(left).max(MIN_TIMEOUT)))
        .and_then(|()| stream.write_all(head.as_bytes()))
        .and_then(|()| stream.write_all(body))
        .map_err(Failed::before_response)?;
    // Bounded read loop: the timeout is re-armed against the remaining
    // total deadline between reads, so a server drip-feeding one byte
    // per read cannot stretch the fetch past `policy.total_deadline`.
    // The socket is told only when the clamped value changes — until the
    // deadline is closer than `read_timeout`, that is once.
    //
    // The response is read straight into one buffer: `response[..filled]`
    // has been received, and the zeroed rest, grown by doubling or to the
    // length the head gives, is where the next read lands. At most one
    // byte past the cap is ever asked for, which is enough to refuse the
    // response.
    let mut armed = None;
    let mut response = vec![0u8; 8 * 1024];
    let mut filled = 0;
    // Once the head is in: where the response ends, if the connection
    // outlives it.
    let mut head_seen = false;
    let mut end = None;
    loop {
        if end.is_some_and(|end| filled >= end) {
            break;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out("total discovery deadline exhausted mid-read").into());
        }
        let timeout = Some(policy.read_timeout.min(left).max(MIN_TIMEOUT));
        if timeout != armed {
            stream.set_read_timeout(timeout).map_err(X2wError::Io)?;
            armed = timeout;
        }
        if filled == response.len() {
            response.resize((2 * filled).min(MAX_RESPONSE_BYTES + 1), 0);
        }
        let limit = end.unwrap_or(response.len());
        let n = match stream.read(&mut response[filled..limit]) {
            Ok(0) if filled == 0 && reused => {
                return Err(Failed::before_response(
                    std::io::ErrorKind::UnexpectedEof.into(),
                ))
            }
            Ok(0) if end.is_some() => {
                return Err(X2wError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before the response's Content-Length",
                ))
                .into())
            }
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if filled == 0 => return Err(Failed::before_response(e)),
            Err(e) => return Err(X2wError::Io(e).into()),
        };
        filled += n;
        if filled > MAX_RESPONSE_BYTES {
            return Err(over_the_cap().into());
        }
        // The head can only have ended if a line did.
        if head_seen || !response[filled - n..filled].contains(&b'\n') {
            continue;
        }
        match parse_response_head(&response[..filled]) {
            Ok(None) => {}
            Ok(Some(parsed)) => {
                head_seen = true;
                let Some(length) = parsed.content_length else {
                    continue;
                };
                let total = parsed.body_start.saturating_add(length);
                if total > MAX_RESPONSE_BYTES {
                    return Err(over_the_cap().into());
                }
                if parsed.keep_alive {
                    response.resize(total.max(filled), 0);
                    end = Some(total);
                }
            }
            // Read no further; the caller's parse says what is wrong.
            Err(_) => break,
        }
    }
    let reusable = end == Some(filled);
    response.truncate(end.unwrap_or(filled).min(filled));
    Ok((response, reusable.then_some(stream)))
}

fn over_the_cap() -> X2wError {
    X2wError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "response exceeds the discovery response cap",
    ))
}

/// A jitter sample in `[0, 1)` xorshifted from the clock's subsecond
/// nanoseconds — enough to de-correlate retry stampedes across
/// processes without pulling in an RNG dependency.
fn jitter_unit() -> f64 {
    let nanos = u64::from(
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0),
    ) | 1;
    let mut x = nanos.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

/// The body of a `200` response, which becomes the returned `String`
/// in place: the head is drained off the front and each byte is checked
/// as UTF-8 once.
fn parse_http_response(mut response: Vec<u8>, url: &str) -> Result<String, X2wError> {
    let malformed = |reason: &str| X2wError::BadLocator {
        locator: url.to_owned(),
        reason: reason.to_owned(),
    };
    let head = match parse_response_head(&response) {
        Ok(Some(head)) => head,
        Ok(None) => return Err(malformed("malformed HTTP response (no header terminator)")),
        Err(why) => return Err(malformed(why)),
    };
    if head.status != 200 {
        return Err(X2wError::Discovery {
            locator: url.to_owned(),
            attempts: vec![format!("server answered HTTP {}", head.status)],
        });
    }
    response.drain(..head.body_start);
    String::from_utf8(response).map_err(|_| malformed("response is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64, for repeatable mutants.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn response_heads_parse_into_status_length_keep_alive_and_body_start() {
        let head = "HTTP/1.0 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 4\r\nConnection: Keep-Alive\r\n\r\n";
        let parsed = |content_length, keep_alive, body_start| {
            Ok(Some(ResponseHead {
                status: 200,
                content_length,
                keep_alive,
                body_start,
            }))
        };
        let whole = format!("{head}<a/>");
        assert_eq!(
            parse_response_head(whole.as_bytes()),
            parsed(Some(4), true, head.len())
        );
        let bare = "HTTP/1.0 200 OK\n\nbody\r\n\r\n";
        assert_eq!(
            parse_response_head(bare.as_bytes()),
            parsed(None, false, 17)
        );
        let closing = head.replace("Keep-Alive", "close");
        assert_eq!(
            parse_response_head(closing.as_bytes()),
            parsed(Some(4), false, closing.len())
        );
        // Not all there yet: the status line alone cannot end the head.
        for cut in [
            &b""[..],
            b"HTTP/1.0 200 OK\r\n",
            b"HTTP/1.0 200 OK\r\nContent-Le",
        ] {
            assert_eq!(parse_response_head(cut), Ok(None));
        }
        for (refused, why) in [
            (&b"HTTP/1.0 OK\r\n\r\n"[..], "malformed status line"),
            (b"HTTP/1.0 200 O\xffK\r\n\r\n", "response is not UTF-8"),
            (
                b"HTTP/1.0 200 OK\r\nContent-Length: -1\r\n\r\n",
                "malformed Content-Length",
            ),
            (
                b"HTTP/1.0 200 OK\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n",
                "conflicting Content-Length",
            ),
        ] {
            assert_eq!(parse_response_head(refused), Err(why));
        }
        let long = format!("HTTP/1.0 200 OK\r\nX: {}", "y".repeat(MAX_HEADER_BYTES));
        assert_eq!(
            parse_response_head(long.as_bytes()),
            Err("response head too long")
        );
    }

    /// Seeded mutants of real response heads. A byte flip gives a parse
    /// or a refusal, never a panic. A cut short of the blank line is
    /// `None` and any longer one the head as it was. A forged
    /// `Content-Length` is read as its number, refused when it is not one
    /// or contradicts the real one, and a duplicate of the real one
    /// changes nothing; lengths past the cap parse (the client refuses
    /// them). A byte that is not UTF-8 anywhere in the head is refused, as
    /// is a head padded past its budget.
    #[test]
    fn response_head_mutants_parse_or_refuse() {
        const RESPONSES: [&str; 4] = [
            "HTTP/1.0 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 4\r\nConnection: keep-alive\r\n\r\n<a/>",
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 9\r\nConnection: close\r\n\r\nnot found",
            "HTTP/1.0 500 Whatever\r\n\r\nno document here",
            "HTTP/1.1 200 OK\nContent-Length: 4\nConnection: keep-alive\n\nbody",
        ];
        let mut mix = Mix(0x5eed_4ead);
        let (mut parsed, mut refused) = (0, 0);
        for _ in 0..30_000 {
            let response = RESPONSES[mix.below(RESPONSES.len())].as_bytes();
            let base = parse_response_head(response).unwrap().unwrap();
            // Where a header line may go: after the status line.
            let line_at = response.iter().position(|b| *b == b'\n').unwrap() + 1;
            let mut mutant = response.to_vec();
            match mix.below(6) {
                0 => {
                    let at = mix.below(mutant.len());
                    mutant[at] ^= 1 + mix.below(255) as u8;
                }
                1 => {
                    let cut = mix.below(mutant.len() + 1);
                    mutant.truncate(cut);
                    let expected = (cut >= base.body_start).then_some(base);
                    assert_eq!(parse_response_head(&mutant), Ok(expected), "{cut}");
                }
                2 => {
                    let digits = 1 + mix.below(24);
                    let forged: String = (0..digits)
                        .map(|_| char::from(b"0123456789-+ x"[mix.below(14)]))
                        .collect();
                    let line = format!("Content-Length: {forged}\r\n");
                    mutant.splice(line_at..line_at, line.bytes());
                    let got = parse_response_head(&mutant);
                    match forged.trim().parse::<usize>() {
                        Ok(length) if base.content_length.is_none_or(|l| l == length) => {
                            let head = got.unwrap().unwrap();
                            assert_eq!(head.content_length, Some(length), "{forged:?}");
                            assert_eq!(head.body_start, base.body_start + line.len());
                        }
                        _ => assert!(got.is_err(), "{forged:?} gave {got:?}"),
                    }
                }
                3 => {
                    let length = base.content_length.unwrap_or(0);
                    let past_cap = MAX_RESPONSE_BYTES + mix.below(usize::MAX / 2);
                    let claim = [length, past_cap][mix.below(2)];
                    let line = format!("content-length:{claim}\r\n");
                    mutant.splice(line_at..line_at, line.bytes());
                    let head = parse_response_head(&mutant);
                    if base.content_length.is_some_and(|l| l != claim) {
                        assert_eq!(head, Err("conflicting Content-Length"));
                    } else {
                        assert_eq!(head.unwrap().unwrap().content_length, Some(claim));
                    }
                }
                4 => {
                    // Anywhere before the blank line. The heads are
                    // ASCII, so a lead byte has no continuation and a
                    // continuation byte no lead.
                    let blank = response[..base.body_start - 1]
                        .iter()
                        .rposition(|b| *b == b'\n')
                        .unwrap();
                    let at = mix.below(blank + 1);
                    mutant.insert(at, [0xff, 0xc3, 0x80][mix.below(3)]);
                    assert_eq!(parse_response_head(&mutant), Err("response is not UTF-8"));
                }
                _ => {
                    let pad = MAX_HEADER_BYTES - base.body_start + 1 + mix.below(64);
                    let line = format!("X-Pad: {}\r\n", "p".repeat(pad));
                    mutant.splice(line_at..line_at, line.bytes());
                    assert_eq!(parse_response_head(&mutant), Err("response head too long"));
                }
            }
            match parse_response_head(&mutant) {
                Ok(_) => parsed += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(
            parsed > 8_000 && refused > 8_000,
            "{parsed} parsed, {refused} refused"
        );
    }
}
