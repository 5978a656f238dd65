//! `serve` load generator: the same scripts as protocol frames over loopback TCP
//! to a `prague_server::Server`. Each client connection multiplexes
//! [`SESSIONS_PER_CONN`] sessions round-robin with one frame in flight;
//! every frame goes out as a single write on a `TCP_NODELAY` socket, so
//! any stall between request and reply is the server's.

use crate::record::{Class, Record};
use crate::workload::{Answer, Op, Script, SIGMA};
use prague_server::protocol::parse_request;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client connections (one closed-loop thread each).
pub const CONNECTIONS: usize = 2;
/// Sessions each connection keeps open and serves round-robin.
pub const SESSIONS_PER_CONN: usize = 8;

/// Run every connection for `length` and merge their records.
pub fn drive(
    addr: SocketAddr,
    scripts: &[Script],
    length: Duration,
    trace: bool,
) -> Result<Record, String> {
    let records = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| scope.spawn(move || client(addr, scripts, c, length, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect::<Result<Vec<Record>, String>>()
    })?;
    let mut merged = Record::default();
    for r in &records {
        merged.merge(r);
    }
    Ok(merged)
}

/// One session slot on a connection: which script it replays and where.
struct Slot {
    script: usize,
    pos: usize,
    session: Option<u64>,
    last_edge: u32,
    similar: bool,
    similar_pending: bool,
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// Send one frame (a single write, newline included) and wait for
    /// its reply line.
    fn call(&mut self, frame: &str) -> Result<(Duration, &str), String> {
        let t = Instant::now();
        self.stream
            .write_all(frame.as_bytes())
            .map_err(|e| e.to_string())?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| e.to_string())?;
        let d = t.elapsed();
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        Ok((d, self.line.trim_end()))
    }
}

fn client(
    addr: SocketAddr,
    scripts: &[Script],
    conn_index: usize,
    length: Duration,
    trace: bool,
) -> Result<Record, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let mut next_script = conn_index;
    let mut slots: Vec<Slot> = (0..SESSIONS_PER_CONN)
        .map(|_| {
            let s = Slot::new(next_script % scripts.len());
            next_script += CONNECTIONS;
            s
        })
        .collect();
    let mut rec = Record::default();
    let t0 = Instant::now();
    'outer: loop {
        for slot in &mut slots {
            if t0.elapsed() >= length {
                break 'outer;
            }
            let script = &scripts[slot.script];
            let (mut frame, class) = slot.next_frame(script);
            if trace {
                let t = Instant::now();
                let parsed = parse_request(&frame);
                rec.parse.push(t.elapsed());
                if parsed.is_err() {
                    return Err(format!("benchmark sent an unparsable frame: {frame}"));
                }
            }
            frame.push('\n');
            let (latency, reply) = conn.call(&frame)?;
            rec.action(class, latency);
            let ok = reply.contains("\"ok\":true");
            if !ok {
                rec.errors += 1;
                eprintln!("[perfbench] frame failed: {} -> {reply}", frame.trim_end());
            }
            // A failed frame abandons its session; the server reaps it
            // when the connection closes.
            if !ok || slot.on_reply(script, reply, latency, &mut rec) {
                *slot = Slot::new(next_script % scripts.len());
                next_script += CONNECTIONS;
            }
        }
    }
    rec.wall = t0.elapsed();
    Ok(rec)
}

impl Slot {
    fn new(script: usize) -> Self {
        Slot {
            script,
            pos: 0,
            session: None,
            last_edge: 0,
            similar: false,
            similar_pending: false,
        }
    }

    fn next_frame(&self, script: &Script) -> (String, Class) {
        let Some(sid) = self.session else {
            return (
                format!("{{\"op\":\"open\",\"sigma\":{SIGMA}}}"),
                Class::Other,
            );
        };
        if self.similar_pending {
            return (
                format!("{{\"op\":\"similar\",\"session\":{sid}}}"),
                Class::Other,
            );
        }
        match script.ops.get(self.pos) {
            None => (
                format!("{{\"op\":\"close\",\"session\":{sid}}}"),
                Class::Other,
            ),
            Some(Op::Node(l)) => (
                format!("{{\"op\":\"node\",\"session\":{sid},\"label\":{}}}", l.0),
                Class::Other,
            ),
            Some(Op::Edge(u, v)) => (
                format!("{{\"op\":\"edge\",\"session\":{sid},\"u\":{u},\"v\":{v}}}"),
                Class::Step,
            ),
            Some(Op::DeleteLast) => (
                format!(
                    "{{\"op\":\"delete\",\"session\":{sid},\"edges\":[{}]}}",
                    self.last_edge
                ),
                Class::Modify,
            ),
            Some(Op::Relabel(n, l)) => (
                format!(
                    "{{\"op\":\"relabel\",\"session\":{sid},\"node\":{n},\"label\":{}}}",
                    l.0
                ),
                Class::Modify,
            ),
            Some(Op::Run) => (format!("{{\"op\":\"run\",\"session\":{sid}}}"), Class::Run),
        }
    }

    /// Advance past an ok reply; returns whether the script (closed
    /// session) is finished.
    fn on_reply(
        &mut self,
        script: &Script,
        reply: &str,
        latency: Duration,
        rec: &mut Record,
    ) -> bool {
        let Some(_) = self.session else {
            self.session = field(reply, "session");
            return false;
        };
        if self.similar_pending {
            self.similar_pending = false;
            self.similar = true;
            return false;
        }
        let Some(&op) = script.ops.get(self.pos) else {
            return true; // close acknowledged
        };
        self.pos += 1;
        let server_ns = field(reply, "elapsed_ns").or_else(|| field(reply, "srt_ns"));
        if let Some(ns) = server_ns {
            rec.transport
                .push(latency.saturating_sub(Duration::from_nanos(ns)));
        }
        match op {
            Op::Edge(..) => {
                self.last_edge = field(reply, "edge").unwrap_or(0) as u32;
                if let Some(ns) = server_ns {
                    rec.reported_step.push(Duration::from_nanos(ns));
                }
                if !self.similar && field(reply, "candidates") == Some(0) {
                    self.similar_pending = true;
                }
            }
            Op::DeleteLast => {
                if let Some(ns) = server_ns {
                    rec.modify_time.push(Duration::from_nanos(ns));
                }
            }
            Op::Run => {
                if let Some(ns) = server_ns {
                    rec.reported_run.push(Duration::from_nanos(ns));
                }
                rec.check(&run_answer(reply), &script.answer);
            }
            Op::Node(_) | Op::Relabel(..) => {}
        }
        false
    }
}

/// The unsigned integer after `"key":` in a reply frame.
fn field(reply: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &reply[reply.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Decode a run reply's result list.
fn run_answer(reply: &str) -> Answer {
    let list = reply
        .split_once("\"results\":[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(list, _)| list);
    if reply.contains("\"kind\":\"exact\"") {
        Answer::Exact(
            list.split(',')
                .filter_map(|x| x.trim().parse().ok())
                .collect(),
        )
    } else {
        let mut ids: Vec<u32> = list
            .split("\"graph\":")
            .skip(1)
            .filter_map(|x| {
                let end = x.find(|c: char| !c.is_ascii_digit()).unwrap_or(x.len());
                x[..end].parse().ok()
            })
            .collect();
        ids.sort_unstable();
        Answer::Similar(ids)
    }
}
