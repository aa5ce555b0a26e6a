//! The load generator's side of the wire: one closed-loop client that
//! sends an operation, waits for the whole reply, and only then takes
//! the next one from its stream.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use newslink_serve::client as http;
use serde::Value;

use crate::fixture::Texts;
use crate::gen::{insert_body, search_body, ClientStream, Op, K};
use crate::trace::Tracer;

/// Span names of a client-observed round trip, by kind of operation.
pub const SPAN_ROUNDTRIP: &str = "serve.roundtrip";
pub const SPAN_ROUNDTRIP_INSERT: &str = "serve.roundtrip.insert";
pub const SPAN_ROUNDTRIP_DELETE: &str = "serve.roundtrip.delete";

/// A connection policy towards one address.
pub enum Conn {
    /// Connect for every request and let the server close (its default).
    PerRequest(SocketAddr),
    /// One connection, kept open with `Connection: keep-alive`; opened
    /// by the first call and again after a failed exchange.
    KeepAlive(SocketAddr, Option<TcpStream>),
}

impl Conn {
    pub fn keep_alive(addr: SocketAddr) -> Self {
        Conn::KeepAlive(addr, None)
    }

    /// Send one request and read the whole reply: `(status, body)`.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let (addr, slot) = match self {
            Conn::PerRequest(addr) => return http::request(*addr, method, path, body),
            Conn::KeepAlive(addr, slot) => (*addr, slot),
        };
        let mut stream = match slot.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(30)))?;
                stream
            }
        };
        http::send_keep_alive(&mut stream, method, path, body)?;
        let (status, _headers, body) = http::read_response_framed(&mut stream)?;
        *slot = Some(stream);
        Ok((status, body))
    }
}

/// What one client measured over one phase. Latencies are in ms, each
/// with the moment its reply was complete.
#[derive(Default)]
pub struct Tally {
    pub search_ms: Vec<(Instant, f64)>,
    pub insert_ms: Vec<(Instant, f64)>,
    pub delete_done: Vec<Instant>,
    pub ops: usize,
    pub failed: usize,
    /// Time spent inside round trips (the rest is the generator's own).
    pub busy: Duration,
    pub first_send: Option<Instant>,
    pub last_reply: Option<Instant>,
    /// Reply sizes and the work counters the replies carry, kept only
    /// when asked for (the traced pass).
    pub search_replies: Vec<String>,
}

impl Tally {
    /// Add what `other` measured (the send and reply marks aside).
    pub fn absorb(&mut self, other: Tally) {
        self.search_ms.extend(other.search_ms);
        self.insert_ms.extend(other.insert_ms);
        self.delete_done.extend(other.delete_done);
        self.search_replies.extend(other.search_replies);
        self.ops += other.ops;
        self.failed += other.failed;
        self.busy += other.busy;
    }
}

pub struct Client<'a> {
    conn: Conn,
    stream: ClientStream<'a>,
    texts: &'a Texts,
    /// Ids the server returned for this client's inserts, by ordinal.
    acked: Vec<Option<u32>>,
    /// `(id, held-out document)` of every acknowledged insert, and the
    /// ids of every acknowledged delete — for the checks after the run.
    pub inserted: Vec<(u32, usize)>,
    pub deleted: Vec<u32>,
    op_id: u64,
    pub keep_replies: bool,
    pub tally: Tally,
}

/// The id in an insert acknowledgement, `{"id":N,...}`.
pub fn acked_id(body: &str) -> Option<u32> {
    let v: Value = serde_json::from_str(body).ok()?;
    u32::try_from(v.get("id")?.as_i64()?).ok()
}

impl<'a> Client<'a> {
    pub fn new(conn: Conn, stream: ClientStream<'a>, texts: &'a Texts, client: usize) -> Self {
        Self {
            conn,
            stream,
            texts,
            acked: Vec::new(),
            inserted: Vec::new(),
            deleted: Vec::new(),
            // Operation ids are unique across clients.
            op_id: (client as u64) << 48,
            keep_replies: false,
            tally: Tally::default(),
        }
    }

    /// Send the stream's next operation and account for its reply.
    pub fn step(&mut self, tracer: Option<&Tracer>) {
        let op = self.stream.next().expect("streams are endless");
        let (method, path, body) = match op {
            Op::Search { sentence, explain } => (
                "POST",
                "/v1/search".to_string(),
                search_body(&self.texts.sentences[sentence], K, explain),
            ),
            Op::Insert { doc } => (
                "POST",
                "/v1/docs".to_string(),
                insert_body(&self.texts.held_out[doc]),
            ),
            Op::Delete { nth } => match self.acked[nth] {
                Some(id) => ("DELETE", format!("/v1/docs/{id}"), String::new()),
                None => {
                    // Its insert was never acknowledged; nothing to send.
                    self.tally.ops += 1;
                    self.tally.failed += 1;
                    return;
                }
            },
        };
        self.op_id += 1;
        let op_id = self.op_id;
        let sent = Instant::now();
        let reply = match tracer {
            Some(t) => {
                let name = match op {
                    Op::Search { .. } => SPAN_ROUNDTRIP,
                    Op::Insert { .. } => SPAN_ROUNDTRIP_INSERT,
                    Op::Delete { .. } => SPAN_ROUNDTRIP_DELETE,
                };
                t.span(name, Some(op_id), || self.conn.call(method, &path, &body))
            }
            None => self.conn.call(method, &path, &body),
        };
        let done = Instant::now();
        let tally = &mut self.tally;
        tally.first_send.get_or_insert(sent);
        tally.last_reply = Some(done);
        tally.busy += done - sent;
        tally.ops += 1;
        let ms = (done - sent).as_secs_f64() * 1e3;
        let ok = match (&reply, op) {
            (Ok((200, body)), Op::Search { .. }) => {
                tally.search_ms.push((done, ms));
                let ok = body.starts_with("{\"results\":[");
                if self.keep_replies {
                    tally.search_replies.push(body.clone());
                }
                ok
            }
            (Ok((200, body)), Op::Insert { doc }) => {
                tally.insert_ms.push((done, ms));
                let id = acked_id(body);
                self.acked.push(id);
                if let Some(id) = id {
                    self.inserted.push((id, doc));
                }
                id.is_some()
            }
            (Ok((200, _)), Op::Delete { nth }) => {
                tally.delete_done.push(done);
                self.deleted.extend(self.acked[nth]);
                true
            }
            (_, Op::Insert { .. }) => {
                self.acked.push(None);
                false
            }
            _ => false,
        };
        if !ok {
            tally.failed += 1;
        }
    }
}
