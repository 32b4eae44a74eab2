//! A blocking client for the server's line protocol: one thread, at most
//! two connections, one request in flight (`sync`) or a fixed pipelined
//! window (`saturate`).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Pipelined requests kept in flight on the `saturate` connection: the
/// engine's two workers × `--batch 8`, below the server's per-connection
/// cap of 32.
pub const SATURATE_WINDOW: usize = 16;

/// One connection to the server.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with Nagle off, so a one-line request leaves at once.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Writes one request line (the newline is added here).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Reads one reply: every line up to the empty terminator line, joined
    /// with `\n`.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut reply = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            let trimmed = line.trim_end_matches('\n');
            if trimmed.is_empty() {
                return Ok(reply);
            }
            if !reply.is_empty() {
                reply.push('\n');
            }
            reply.push_str(trimmed);
        }
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Sends one request, waits for its reply, and returns it with the
    /// client-observed latency.
    pub fn timed_call(&mut self, line: &str) -> std::io::Result<(String, Duration)> {
        let start = Instant::now();
        let reply = self.call(line)?;
        Ok((reply, start.elapsed()))
    }

    /// Sends every line with at most `window` in flight and hands each
    /// reply, in arrival order, to `on_reply` with its request's index.
    pub fn pipeline(
        &mut self,
        lines: &[String],
        window: usize,
        mut on_reply: impl FnMut(usize, String),
    ) -> std::io::Result<()> {
        let mut sent = 0;
        let mut received = 0;
        while received < lines.len() {
            while sent < lines.len() && sent - received < window {
                self.send(&lines[sent])?;
                sent += 1;
            }
            let reply = self.recv()?;
            on_reply(received, reply);
            received += 1;
        }
        Ok(())
    }

    /// The server's `stats` dump.
    pub fn stats(&mut self) -> std::io::Result<String> {
        self.call("stats")
    }
}

/// A `key=value` counter from a `stats` line, e.g. `count` on the
/// `batches:` line.
pub fn stats_field(stats: &str, line_prefix: &str, key: &str) -> Option<f64> {
    let line = stats.lines().find(|l| l.starts_with(line_prefix))?;
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}
