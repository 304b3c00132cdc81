//! Driving the real `pebblyn serve` daemon over its unix socket.

use pebblyn::service::wire;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a single response may take before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the daemon may take to start listening.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// A running daemon and the benchmark's one connection to it.
pub struct Daemon {
    child: Child,
    stream: UnixStream,
    socket: PathBuf,
}

impl Daemon {
    /// Spawn `bin serve --socket <socket> --workers 2` and connect.
    /// Returns once a connection is established, with the time from
    /// spawn to that moment.
    pub fn start(bin: &Path, socket: &Path) -> io::Result<(Daemon, Duration)> {
        let _ = std::fs::remove_file(socket);
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(["--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) => {
                    if let Some(status) = child.try_wait()? {
                        return Err(io::Error::other(format!("daemon exited early: {status}")));
                    }
                    if t0.elapsed() > START_TIMEOUT {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(io::Error::other(format!("daemon never listened: {e}")));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        };
        let ready = t0.elapsed();
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok((
            Daemon {
                child,
                stream,
                socket: socket.to_path_buf(),
            },
            ready,
        ))
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send one length-prefixed request frame and read its response.
    /// Returns the response payload and the time from writing the first
    /// request byte to reading the last response byte.
    pub fn round_trip(&mut self, frame: &[u8]) -> io::Result<(Vec<u8>, Duration)> {
        let t0 = Instant::now();
        self.stream.write_all(frame)?;
        let payload = wire::read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::other("daemon closed the connection"))?;
        Ok((payload, t0.elapsed()))
    }

    /// Peak resident set of the daemon (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Ask the daemon to stop, await its acknowledgement and its exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        wire::write_frame(&mut self.stream, &wire::encode_shutdown())?;
        let mut rest = Vec::new();
        self.stream.read_to_end(&mut rest)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("daemon exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(status_path)?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))?;
    Ok(kb / 1024.0)
}
