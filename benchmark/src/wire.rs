//! The program's public surface as a client sees it: a `vpd serve`
//! child process spoken to over NDJSON/TCP. Every process started here
//! is waited for before the benchmark exits.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::oracle::parse_record;
use crate::stats::OpenLoopSample;

/// How long any single read may block before the request counts as
/// missing.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// The largest peak resident set, KiB, of any server this process
/// started, read from each one's `VmHWM` before it stops.
static SERVERS_PEAK_KIB: AtomicU64 = AtomicU64::new(0);

/// Peak resident memory, MiB, of the largest server started so far.
/// Each server's own `VmHWM` is read, not `getrusage(RUSAGE_CHILDREN)`:
/// a child spawned from the harness inherits the harness's resident
/// high-water mark until it execs, so the rusage figure would count the
/// harness's memory (its oracle results and inputs) as the server's.
pub fn servers_peak_rss_mib() -> f64 {
    SERVERS_PEAK_KIB.load(Ordering::Relaxed) as f64 / 1024.0
}

fn record_peak(child: &Child) {
    let kib = fs::read_to_string(format!("/proc/{}/status", child.id()))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        });
    if let Some(kib) = kib {
        SERVERS_PEAK_KIB.fetch_max(kib, Ordering::Relaxed);
    }
}

/// A running `vpd serve` process on an ephemeral loopback port.
pub struct ServerProc {
    child: Option<Child>,
    pub addr: String,
}

impl ServerProc {
    /// Starts `vpd serve` with its shipped defaults plus `extra` flags,
    /// and waits until it reports its listening address.
    pub fn spawn(vpd: &Path, extra: &[&str], log: &Path) -> Result<Self, String> {
        let stderr = fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(vpd)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", vpd.display()))?;
        let mut server = Self {
            child: Some(child),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = fs::read_to_string(log).unwrap_or_default();
            // Only a complete line: the server may be mid-write.
            if let Some((addr, _)) = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'))
            {
                server.addr = addr.trim().to_string();
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err(format!("vpd serve did not start: {text}"));
            }
            if let Some(child) = server.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("vpd serve exited early ({status}): {text}"));
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Some(child) = &self.child {
            record_peak(child);
        }
        let mut conn = self.connect()?;
        conn.call("{\"id\":-1,\"kind\":\"shutdown\"}")
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut child = self.child.take().expect("server still owned");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("vpd serve did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            record_peak(&child);
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One NDJSON connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// A second handle on the same socket for a sender thread.
    pub fn writer(&self) -> std::io::Result<TcpStream> {
        self.writer.try_clone()
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        send_line(&mut self.writer, line)
    }

    /// The next response line, `None` at EOF.
    pub fn read_line(&mut self) -> std::io::Result<Option<String>> {
        let mut buf = String::new();
        if self.reader.read_line(&mut buf)? == 0 {
            return Ok(None);
        }
        while buf.ends_with('\n') || buf.ends_with('\r') {
            buf.pop();
        }
        Ok(Some(buf))
    }

    /// Sends one request and reads its records up to the terminal one.
    pub fn call(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.send(line)?;
        let mut records = Vec::new();
        loop {
            let Some(rec) = self.read_line()? else {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            };
            let chunk = is_chunk(&rec);
            records.push(rec);
            if !chunk {
                return Ok(records);
            }
        }
    }
}

fn send_line(w: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)
}

/// A stream chunk (`"done":false`) leaves its request open.
fn is_chunk(line: &str) -> bool {
    parse_record(line).is_some_and(|r| r.done == Some(false))
}

/// Result of an open-loop phase: per-request timings and the records
/// each request received, indexed by request number (= wire id).
pub struct OpenLoopRun {
    pub samples: Vec<OpenLoopSample>,
    pub records: Vec<Vec<String>>,
}

/// Sends `lines[i]` (whose id must be `i`) at `start + i / rate` on one
/// connection from a sender thread, while this thread reads responses.
pub fn open_loop(mut conn: Conn, lines: &[String], rate: f64) -> Result<OpenLoopRun, String> {
    let n = lines.len();
    let mut writer = conn.writer().map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(5);
    let dues: Vec<Instant> = (0..n)
        .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let mut records: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut done: Vec<Option<Instant>> = vec![None; n];
    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(n);
            for (line, &due) in lines.iter().zip(&dues) {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                sent.push(Instant::now());
                if send_line(&mut writer, line).is_err() {
                    break;
                }
            }
            sent
        });
        let mut terminal = 0;
        while terminal < n {
            match conn.read_line() {
                Ok(Some(line)) => {
                    let now = Instant::now();
                    let Some(rec) = parse_record(&line) else {
                        continue;
                    };
                    let Some(id) = rec
                        .id
                        .and_then(|id| usize::try_from(id).ok())
                        .filter(|&id| id < n)
                    else {
                        continue;
                    };
                    let chunk = rec.done == Some(false);
                    records[id].push(line);
                    if !chunk && done[id].is_none() {
                        done[id] = Some(now);
                        terminal += 1;
                    }
                }
                _ => break,
            }
        }
        sender.join().expect("open-loop sender panicked")
    });
    let samples = (0..n)
        .map(|i| OpenLoopSample {
            due: dues[i],
            sent: sent.get(i).copied().unwrap_or(dues[i]),
            done: done[i],
        })
        .collect();
    Ok(OpenLoopRun { samples, records })
}

/// One closed-loop request: which connection and sequence number sent
/// it, its round trip, and its records (empty when it failed).
pub struct ClosedSample {
    pub conn: usize,
    pub k: u64,
    pub start: Instant,
    pub end: Instant,
    pub records: Vec<String>,
}

/// Each connection runs on its own thread, sending request `k` of its
/// sequence (`line(conn, k)`) only after request `k - 1` completed,
/// until `length` has elapsed.
pub fn closed_loop(
    conns: Vec<Conn>,
    line: &(dyn Fn(usize, u64) -> String + Sync),
    length: Duration,
) -> (Instant, Vec<ClosedSample>) {
    let start = Instant::now();
    let stop = start + length;
    let mut all: Vec<ClosedSample> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut k = 0u64;
                    while Instant::now() < stop {
                        let text = line(c, k);
                        let t0 = Instant::now();
                        let records = conn.call(&text);
                        let ok = records.is_ok();
                        out.push(ClosedSample {
                            conn: c,
                            k,
                            start: t0,
                            end: Instant::now(),
                            records: records.unwrap_or_default(),
                        });
                        if !ok {
                            break;
                        }
                        k += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    all.sort_by_key(|s| s.start);
    (start, all)
}

/// Where per-run artifacts go (logs, documents, spans, run records).
pub fn out_dir() -> PathBuf {
    PathBuf::from("bench-out")
}
