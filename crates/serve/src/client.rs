//! Minimal blocking client for the `ir-serve` wire protocol.
//!
//! One request line out, one response line in; [`Client`] pairs a write
//! half with a buffered reader over a clone of the same socket so
//! pipelining (many sends, then many receives) also works — the chaos
//! soak uses exactly that to fill the admission queue deterministically.

use crate::protocol::delta_to_value;
use ir_bgp::Delta;
use ir_types::{Asn, Prefix};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // Request/response lines are small and latency-bound: never let
        // Nagle hold one back waiting for the peer's delayed ACK.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one raw request line (newline appended) as a single write —
    /// a separate write for the terminator would be a second segment.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    /// Receives one response line; `None` on server EOF.
    pub fn recv_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Sends one line and waits for one response.
    pub fn request(&mut self, line: &str) -> std::io::Result<Option<String>> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// Half-closes the write side so the server sees EOF (used to model a
    /// client disconnecting with responses still owed).
    pub fn close_write(&mut self) -> std::io::Result<()> {
        self.writer.shutdown(std::net::Shutdown::Write)
    }
}

fn with_id(mut obj: Vec<(String, Value)>, id: Option<u64>) -> Vec<(String, Value)> {
    if let Some(id) = id {
        obj.insert(0, ("id".to_string(), Value::UInt(id)));
    }
    obj
}

fn render(obj: Vec<(String, Value)>) -> String {
    serde_json::to_string(&Value::Object(obj)).unwrap_or_else(|_| "{}".to_string())
}

/// Builds a `whatif` request line.
pub fn whatif_line(
    id: Option<u64>,
    prefix: Prefix,
    deltas: &[Delta],
    budget: Option<u64>,
) -> String {
    let mut obj = vec![
        ("op".to_string(), Value::String("whatif".into())),
        ("prefix".to_string(), Value::String(prefix.to_string())),
        (
            "deltas".to_string(),
            Value::Array(deltas.iter().map(delta_to_value).collect()),
        ),
    ];
    if let Some(b) = budget {
        obj.push(("budget".to_string(), Value::UInt(b)));
    }
    render(with_id(obj, id))
}

/// Builds a `hijack` request line — the scenario-query sugar op.
pub fn hijack_line(
    id: Option<u64>,
    prefix: Prefix,
    attacker: Asn,
    forged_origin: Option<Asn>,
    stealth: bool,
    budget: Option<u64>,
) -> String {
    let mut obj = vec![
        ("op".to_string(), Value::String("hijack".into())),
        ("prefix".to_string(), Value::String(prefix.to_string())),
        (
            "attacker".to_string(),
            Value::UInt(u64::from(attacker.value())),
        ),
        (
            "forged_origin".to_string(),
            match forged_origin {
                Some(o) => Value::UInt(u64::from(o.value())),
                None => Value::Null,
            },
        ),
        ("stealth".to_string(), Value::Bool(stealth)),
    ];
    if let Some(b) = budget {
        obj.push(("budget".to_string(), Value::UInt(b)));
    }
    render(with_id(obj, id))
}

/// Builds a `route` request line.
pub fn route_line(id: Option<u64>, prefix: Prefix, asn: Asn) -> String {
    let obj = vec![
        ("op".to_string(), Value::String("route".into())),
        ("prefix".to_string(), Value::String(prefix.to_string())),
        ("asn".to_string(), Value::UInt(u64::from(asn.value()))),
    ];
    render(with_id(obj, id))
}

/// Builds a bare control request (`health`, `stats`, `save`, `shutdown`).
pub fn control_line(id: Option<u64>, op: &str) -> String {
    let obj = vec![("op".to_string(), Value::String(op.to_string()))];
    render(with_id(obj, id))
}
