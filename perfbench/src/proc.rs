//! Child processes of the release `twocs` binary: spawning, peak RSS,
//! and clean teardown on every path.

use std::io::{BufRead, Read};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running child that is killed and reaped when dropped, so an early
/// return never leaves a process behind.
#[derive(Debug)]
pub struct Proc {
    child: Child,
    pub spawned: Instant,
}

impl Proc {
    /// Spawn `bin args` with stdout and stderr piped.
    pub fn spawn(bin: &Path, args: &[String], env: &[(&str, &str)]) -> Result<Self, String> {
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let spawned = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        Ok(Self { child, spawned })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn stdout(&mut self) -> impl Read {
        self.child.stdout.take().expect("stdout is piped once")
    }

    pub fn stderr(&mut self) -> ChildStderr {
        self.child.stderr.take().expect("stderr is piped once")
    }

    /// Drain stderr on a thread (a full pipe would block the child) and
    /// hand back its text when joined.
    pub fn collect_stderr(&mut self) -> JoinHandle<String> {
        let mut err = self.stderr();
        std::thread::spawn(move || {
            let mut s = String::new();
            let _ = err.read_to_string(&mut s);
            s
        })
    }

    /// Wait for a clean exit within `timeout`, killing the child past it.
    pub fn wait(mut self, timeout: Duration) -> Result<(ExitStatus, Instant), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok((status, Instant::now())),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(None) => return Err(format!("child {} timed out", self.pid())),
                Err(e) => return Err(format!("cannot wait for child {}: {e}", self.pid())),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Read lines from `r` until one contains `needle`; returns that line.
/// The reader keeps its buffered remainder.
pub fn read_line_with(r: &mut impl BufRead, needle: &str) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match r.read_line(&mut line) {
            Ok(0) => return Err(format!("child output ended before `{needle}`")),
            Ok(_) if line.contains(needle) => return Ok(line.trim_end().to_owned()),
            Ok(_) => {}
            Err(e) => return Err(format!("cannot read child output: {e}")),
        }
    }
}

/// The `host:port` after `marker` in `line`.
pub fn addr_after(line: &str, marker: &str) -> Result<String, String> {
    line.split(marker)
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .map(ToOwned::to_owned)
        .ok_or_else(|| format!("no address after `{marker}` in `{line}`"))
}

/// Peak resident set size of `pid` so far (`VmHWM`), in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Polls a child's `VmHWM` until stopped: the high-water mark survives
/// until the process exits, so the last reading is its peak.
#[derive(Debug)]
pub struct RssWatch {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<f64>,
}

impl RssWatch {
    pub fn start(pid: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak: f64 = 0.0;
            while !flag.load(Ordering::Relaxed) {
                match peak_rss_mb(pid) {
                    Some(mb) => peak = peak.max(mb),
                    None => break,
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        Self { stop, handle }
    }

    /// The peak seen, or an error when the child's RSS was never read.
    pub fn finish(self) -> Result<f64, String> {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.join() {
            Ok(peak) if peak > 0.0 => Ok(peak),
            _ => Err("cannot read the child's peak RSS".to_owned()),
        }
    }
}

/// FNV-1a over a byte stream, for comparing large outputs cheaply.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}
