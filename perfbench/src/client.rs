//! A minimal HTTP/1.1 client for the benchmark's closed loops, and the
//! `ecochip serve` child process it drives.
//!
//! The client is the benchmark's own so that a change to the service's
//! client module never moves the numbers: it writes pre-rendered request
//! bytes and hands response bodies (whole, or chunk by chunk for streamed
//! responses) to the caller without copying them.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cpu;

/// The server's per-cache memo bound (`--memo-max-entries`): two design
/// spaces' worth of `dse_optimize` floorplans, and every other workload's
/// whole working set.
pub const MEMO_MAX_ENTRIES: usize = 1024;

/// Render a request with a JSON body (or none, for `GET`).
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection with its read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(256 * 1024),
            pos: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Read more bytes from the socket onto the end of the buffer,
    /// discarding the consumed prefix first.
    fn fill(&mut self) -> io::Result<()> {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + 128 * 1024, 0);
        let read = self.stream.read(&mut self.buf[old..]);
        let read = match read {
            Ok(read) => read,
            Err(error) => {
                self.buf.truncate(old);
                return Err(error);
            }
        };
        self.buf.truncate(old + read);
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    /// The next CRLF-terminated line, without its terminator.
    fn line(&mut self) -> io::Result<String> {
        loop {
            if let Some(at) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let raw = &self.buf[self.pos..self.pos + at];
                let line =
                    String::from_utf8_lossy(raw.strip_suffix(b"\r").unwrap_or(raw)).into_owned();
                self.pos += at + 1;
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        while self.buf.len() - self.pos < n {
            self.fill()?;
        }
        let start = self.pos;
        self.pos += n;
        Ok(&self.buf[start..start + n])
    }

    /// Read one response, passing its body to `on_body` — whole for a
    /// `Content-Length` body, one transfer chunk at a time for a chunked
    /// one. Returns the status code.
    pub fn read_response(&mut self, on_body: &mut dyn FnMut(&[u8])) -> io::Result<u16> {
        let status_line = self.line()?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad(format!("malformed status line {status_line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        loop {
            let line = self.line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
        if chunked {
            loop {
                let size_line = self.line()?;
                let size =
                    usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                        .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
                if size == 0 {
                    // Trailers (none expected) end with an empty line.
                    while !self.line()?.is_empty() {}
                    break;
                }
                on_body(self.take(size)?);
                if !self.line()?.is_empty() {
                    return Err(bad("chunk not followed by CRLF"));
                }
            }
        } else {
            on_body(self.take(length.unwrap_or(0))?);
        }
        Ok(status)
    }
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// One request on a fresh connection, returning the status and whole body
/// (used outside the timed windows: health checks, counters, shutdown).
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut conn = Conn::open(addr)?;
    conn.send(&request_bytes(method, path, body))?;
    let mut out = Vec::new();
    let status = conn.read_response(&mut |bytes| out.extend_from_slice(bytes))?;
    Ok((status, out))
}

/// A running `ecochip serve` child on an ephemeral loopback port.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the server and wait for its listening banner.
    pub fn spawn(binary: &Path, jobs: usize, threads: usize) -> io::Result<Self> {
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args([
                "--jobs",
                &jobs.to_string(),
                "--threads",
                &threads.to_string(),
            ])
            // The closed loops keep their connections for the whole run.
            .args([
                "--max-requests-per-conn",
                "1000000000",
                "--idle-timeout-ms",
                "120000",
            ])
            // A bounded memo keeps the server's footprint independent of
            // how many requests a run completes.
            .args(["--memo-max-entries", &MEMO_MAX_ENTRIES.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(bad("server exited before printing its listening banner"));
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("");
                match addr.parse() {
                    Ok(addr) => break addr,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(bad(format!("unparsable banner {line:?}")));
                    }
                }
            }
        };
        // Keep draining the server's log so it never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut reader, &mut io::sink());
        });
        let server = Self {
            child,
            addr,
            drain: Some(drain),
        };
        server.wait_healthy()?;
        Ok(server)
    }

    fn wait_healthy(&self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match call(self.addr, "GET", "/v1/healthz", b"") {
                Ok((200, _)) => return Ok(()),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                Ok((status, _)) => return Err(bad(format!("healthz answered {status}"))),
                Err(error) => return Err(error),
            }
        }
    }

    /// CPU time the server has used so far (see [`cpu::process_time`]).
    pub fn cpu_time(&self) -> io::Result<Duration> {
        cpu::process_time(self.child.id())
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| bad("no VmHWM line in /proc status"))
    }

    /// Ask the server to exit and wait until it has; kill it if it lingers.
    pub fn shutdown(mut self) -> io::Result<()> {
        let _ = call(self.addr, "POST", "/v1/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                self.child.kill()?;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.reap();
        Ok(())
    }

    fn reap(&mut self) {
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.child.kill();
            self.reap();
        }
    }
}
