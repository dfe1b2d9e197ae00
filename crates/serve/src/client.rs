//! Minimal blocking client for the `ir-serve` wire protocol.
//!
//! One request line out, one response line in; [`Client`] pairs a write
//! half with a buffered reader over a clone of the same socket so
//! pipelining (many sends, then many receives) also works — the chaos
//! soak uses exactly that to fill the admission queue deterministically.

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
}
