//! Nonblocking I/O reactors: the event-loop half of the daemon.
//!
//! The server runs one acceptor plus N reactor threads. Each reactor
//! owns an epoll instance and a set of nonblocking connections with
//! per-connection NDJSON read/write buffers, so a thousand idle or slow
//! clients cost zero threads — the
//! only per-connection state is a buffer pair and an epoll
//! registration. Protocol handling stays outside this module: a reactor
//! calls back into its [`Service`] for every complete request line and
//! for connection lifecycle events, and the service (the server's
//! shared state) posts [`ReactorMsg`]s back — new sockets from the
//! acceptor, finished-job notifications from the worker pool — through
//! each reactor's inbox + wake pipe.
//!
//! Two safety valves keep hostile clients from hurting their neighbors:
//!
//! * a **request-line cap**: a line that exceeds `max_line_bytes`
//!   without a newline gets a structured error and the connection is
//!   closed;
//! * a **write-buffer cap**: a stalled reader whose pending replies
//!   exceed `write_buf_cap` is disconnected (and counted) rather than
//!   buffering without bound.
//!
//! Replies to deferred requests (`result` with `"wait":true`) are
//! delivered when the job finishes, so a client that pipelines other
//! commands behind a wait may see replies out of request order — match
//! on the `id` field. The bundled [`crate::client::Client`] never
//! pipelines.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::epoll::{
    Epoll, EpollEvent, WakePipe, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Token reserved for the wake pipe; connection ids stay below it.
const WAKE_TOKEN: u64 = u64::MAX;

/// Work posted to a reactor from outside its thread.
pub enum ReactorMsg {
    /// A freshly accepted socket to adopt (already nonblocking).
    Accept {
        /// Global connection id (doubles as the epoll token).
        conn: u64,
        /// The socket.
        stream: TcpStream,
    },
    /// Job `id` finished; deliver its `result` reply to `conn`.
    JobDone {
        /// The waiting connection.
        conn: u64,
        /// The finished job.
        id: u64,
    },
}

/// What the service wants done with one request line.
pub enum LineReply {
    /// Send this rendered JSON reply now.
    Now(String),
    /// A waiter was registered; the reply arrives via
    /// [`ReactorMsg::JobDone`].
    Deferred,
    /// Send this reply, then close the connection.
    Fatal(String),
}

/// The protocol layer a reactor drives. Implemented by the server's
/// shared state; every method may be called from any reactor thread.
pub trait Service: Send + Sync + 'static {
    /// Handles one complete request line (no trailing newline).
    fn handle_line(&self, reactor: usize, conn: u64, line: &str) -> LineReply;

    /// Renders the `result` reply for a finished job (deferred-wait
    /// delivery path).
    fn render_done(&self, id: u64) -> String;

    /// A connection was adopted.
    fn on_connect(&self);

    /// A connection went away (EOF, error, overflow, or force-close at
    /// shutdown); the service drops any waiters it registered.
    fn on_disconnect(&self, reactor: usize, conn: u64);

    /// A stalled reader blew the write-buffer cap and was disconnected.
    fn on_write_overflow(&self);
}

/// Per-connection limits, shared by every reactor of a server.
#[derive(Debug, Clone, Copy)]
pub struct ConnLimits {
    /// Longest accepted request line in bytes.
    pub max_line_bytes: usize,
    /// Most pending un-drained reply bytes before disconnect.
    pub write_buf_cap: usize,
}

impl Default for ConnLimits {
    fn default() -> ConnLimits {
        ConnLimits {
            max_line_bytes: 16 << 20,
            write_buf_cap: 8 << 20,
        }
    }
}

/// The handle other threads use to post work to a reactor.
pub struct ReactorPost {
    inbox: Arc<Mutex<VecDeque<ReactorMsg>>>,
    waker: Waker,
    stop: Arc<AtomicBool>,
}

impl ReactorPost {
    /// Enqueues a message and wakes the reactor.
    pub fn inject(&self, msg: ReactorMsg) {
        self.inbox.lock().expect("reactor inbox").push_back(msg);
        self.waker.wake();
    }

    /// Asks the reactor to finish up (flush + exit) and wakes it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// The thread-side half of a reactor, created before its thread spawns
/// (so the [`ReactorPost`] can live in state the thread also sees).
pub struct ReactorCore {
    idx: usize,
    pipe: WakePipe,
    inbox: Arc<Mutex<VecDeque<ReactorMsg>>>,
    stop: Arc<AtomicBool>,
}

/// Creates a post/core pair for reactor `idx`.
///
/// # Errors
/// Propagates wake-pipe creation failure.
pub fn reactor_pair(idx: usize) -> io::Result<(ReactorPost, ReactorCore)> {
    let pipe = WakePipe::new()?;
    let inbox = Arc::new(Mutex::new(VecDeque::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let post = ReactorPost {
        inbox: Arc::clone(&inbox),
        waker: pipe.waker(),
        stop: Arc::clone(&stop),
    };
    let core = ReactorCore {
        idx,
        pipe,
        inbox,
        stop,
    };
    Ok((post, core))
}

struct Conn {
    stream: TcpStream,
    read_buf: LineBuf,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Currently registered with `EPOLLOUT` interest.
    want_write: bool,
    /// Close once the write buffer drains.
    closing: bool,
}

impl ReactorCore {
    /// Runs the event loop until [`ReactorPost::stop`] (then drains
    /// pending replies, bounded by a 2 s deadline, and force-closes
    /// whatever is left). Meant to own its thread.
    pub fn run<S: Service>(self, service: &Arc<S>, limits: ConnLimits) {
        let epoll = Epoll::new().expect("epoll_create1");
        epoll
            .add(self.pipe.reader_fd(), EPOLLIN, WAKE_TOKEN)
            .expect("register wake pipe");
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut events = vec![EpollEvent::default(); 256];
        let mut stop_deadline: Option<Instant> = None;

        loop {
            let timeout = if stop_deadline.is_some() { 25 } else { -1 };
            let n = epoll.wait(&mut events, timeout).unwrap_or_default();
            for event in events.iter().take(n) {
                let (token, mask) = (event.token(), event.events());
                if token == WAKE_TOKEN {
                    self.pipe.drain();
                    continue;
                }
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                let mut dead = false;
                if mask & (EPOLLERR | EPOLLHUP) != 0 {
                    dead = true;
                } else {
                    if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                        dead = handle_readable(service, self.idx, token, conn, limits);
                    }
                    if !dead && mask & EPOLLOUT != 0 {
                        dead = flush(conn).is_err() || (conn.closing && pending(conn) == 0);
                    }
                }
                if dead {
                    let conn = conns.remove(&token).expect("conn exists");
                    drop(conn); // closes the fd, auto-deregistering it
                    service.on_disconnect(self.idx, token);
                } else {
                    update_interest(&epoll, token, conns.get_mut(&token).expect("conn"));
                }
            }

            // Drain the inbox: adopt new sockets, deliver finished jobs.
            loop {
                let msg = self.inbox.lock().expect("reactor inbox").pop_front();
                match msg {
                    None => break,
                    Some(ReactorMsg::Accept { conn: id, stream }) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        stream.set_nodelay(true).ok();
                        if epoll
                            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, id)
                            .is_err()
                        {
                            continue;
                        }
                        service.on_connect();
                        conns.insert(
                            id,
                            Conn {
                                stream,
                                read_buf: LineBuf::default(),
                                write_buf: Vec::new(),
                                write_pos: 0,
                                want_write: false,
                                closing: false,
                            },
                        );
                    }
                    Some(ReactorMsg::JobDone { conn: id, id: job }) => {
                        let Some(conn) = conns.get_mut(&id) else {
                            continue; // client went away while waiting
                        };
                        let mut reply = service.render_done(job);
                        reply.push('\n');
                        if push_reply(service, conn, reply.as_bytes(), limits) {
                            let conn = conns.remove(&id).expect("conn exists");
                            drop(conn);
                            service.on_disconnect(self.idx, id);
                        } else {
                            update_interest(&epoll, id, conns.get_mut(&id).expect("conn"));
                        }
                    }
                }
            }

            if self.stop.load(Ordering::SeqCst) {
                let deadline =
                    *stop_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(2));
                let all_flushed = conns.values().all(|c| pending(c) == 0);
                let inbox_empty = self.inbox.lock().expect("reactor inbox").is_empty();
                if (all_flushed && inbox_empty) || Instant::now() >= deadline {
                    for (id, conn) in conns.drain() {
                        drop(conn);
                        service.on_disconnect(self.idx, id);
                    }
                    return;
                }
            }
        }
    }
}

fn pending(conn: &Conn) -> usize {
    conn.write_buf.len() - conn.write_pos
}

/// Appends a reply and tries to flush; `true` means the connection must
/// be dropped (overflow or write error).
fn push_reply<S: Service>(
    service: &Arc<S>,
    conn: &mut Conn,
    bytes: &[u8],
    limits: ConnLimits,
) -> bool {
    if pending(conn) + bytes.len() > limits.write_buf_cap {
        service.on_write_overflow();
        return true;
    }
    conn.write_buf.extend_from_slice(bytes);
    if flush(conn).is_err() {
        return true;
    }
    conn.closing && pending(conn) == 0
}

/// A connection's unread request bytes, and how far they are known to
/// hold no newline, so each byte is searched once however slowly its
/// line arrives.
#[derive(Default)]
struct LineBuf {
    bytes: Vec<u8>,
    /// `bytes[..scanned]` holds no newline after the last line taken.
    scanned: usize,
    /// Bytes searched for a newline so far.
    #[cfg(test)]
    searched: usize,
}

impl LineBuf {
    /// The index of the newline ending the line that starts at `start`,
    /// once that line is complete.
    fn newline_from(&mut self, start: usize) -> Option<usize> {
        let from = self.scanned.max(start);
        let found = self.bytes[from..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|rel| from + rel);
        let scanned = found.map_or(self.bytes.len(), |nl| nl + 1);
        #[cfg(test)]
        {
            self.searched += scanned - from;
        }
        self.scanned = scanned;
        found
    }

    /// Drops the first `n` bytes: the lines taken.
    fn consume(&mut self, n: usize) {
        self.bytes.drain(..n);
        self.scanned -= n;
    }
}

/// Reads everything available, dispatches complete lines, and queues
/// replies; `true` means the connection must be dropped.
fn handle_readable<S: Service>(
    service: &Arc<S>,
    reactor: usize,
    token: u64,
    conn: &mut Conn,
    limits: ConnLimits,
) -> bool {
    let mut eof = false;
    let mut chunk = [0u8; 16384];
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => conn.read_buf.bytes.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }

    // Process every complete line with a cursor, then compact once.
    let mut start = 0;
    while !conn.closing {
        let Some(end) = conn.read_buf.newline_from(start) else {
            break;
        };
        let outcome = match std::str::from_utf8(&conn.read_buf.bytes[start..end]) {
            Ok(line) if line.trim().is_empty() => None,
            Ok(line) => Some(service.handle_line(reactor, token, line)),
            Err(_) => Some(LineReply::Fatal(
                "{\"ok\":false,\"error\":\"request is not valid UTF-8\"}".to_string(),
            )),
        };
        start = end + 1;
        match outcome {
            None | Some(LineReply::Deferred) => {}
            Some(LineReply::Now(mut reply)) => {
                reply.push('\n');
                if push_reply(service, conn, reply.as_bytes(), limits) {
                    return true;
                }
            }
            Some(LineReply::Fatal(mut reply)) => {
                reply.push('\n');
                conn.closing = true;
                if push_reply(service, conn, reply.as_bytes(), limits) {
                    return true;
                }
            }
        }
    }
    conn.read_buf.consume(start);

    if !conn.closing && conn.read_buf.bytes.len() > limits.max_line_bytes {
        conn.closing = true;
        let reply = "{\"ok\":false,\"error\":\"request line too long\"}\n";
        if push_reply(service, conn, reply.as_bytes(), limits) {
            return true;
        }
    }
    if conn.closing && pending(conn) == 0 {
        return true;
    }
    eof
}

/// Writes as much pending data as the socket accepts.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while pending(conn) > 0 {
        match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if pending(conn) == 0 {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    Ok(())
}

/// Arms or disarms `EPOLLOUT` to match the pending-write state.
fn update_interest(epoll: &Epoll, token: u64, conn: &mut Conn) {
    let needs_write = pending(conn) > 0;
    if needs_write != conn.want_write {
        let mask = if needs_write {
            EPOLLIN | EPOLLOUT | EPOLLRDHUP
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        if epoll.modify(conn.stream.as_raw_fd(), mask, token).is_ok() {
            conn.want_write = needs_write;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Takes every complete line, as `handle_readable` does.
    fn take_lines(buf: &mut LineBuf) -> Vec<Vec<u8>> {
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(end) = buf.newline_from(start) {
            lines.push(buf.bytes[start..end].to_vec());
            start = end + 1;
        }
        buf.consume(start);
        lines
    }

    /// A line trickled in 16 KiB pieces is searched once in all, not
    /// once per piece from its start.
    #[test]
    fn a_trickled_line_is_searched_once() {
        const PIECE: usize = 16 << 10;
        const LINE: usize = 4 << 20;
        let mut buf = LineBuf::default();
        let piece = vec![b'x'; PIECE];
        for _ in 0..LINE / PIECE {
            buf.bytes.extend_from_slice(&piece);
            assert!(take_lines(&mut buf).is_empty());
        }
        assert_eq!(buf.searched, LINE);
        buf.bytes.extend_from_slice(b"\nnext");
        let lines = take_lines(&mut buf);
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].len(), LINE);
        assert_eq!(buf.bytes, b"next");
        assert!(buf.searched <= LINE + 5, "searched {}", buf.searched);
    }

    #[test]
    fn lines_split_across_reads_come_out_whole() {
        let mut buf = LineBuf::default();
        let mut got = Vec::new();
        for chunk in [&b"ab"[..], b"c\nde", b"", b"f\n\ng", b"h\n"] {
            buf.bytes.extend_from_slice(chunk);
            got.extend(take_lines(&mut buf));
        }
        assert_eq!(got, [&b"abc"[..], b"def", b"", b"gh"]);
        assert!(buf.bytes.is_empty());
        assert_eq!(buf.searched, "abc\ndef\n\ngh\n".len());
    }
}
