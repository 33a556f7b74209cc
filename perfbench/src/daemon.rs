//! The `pilfill serve` daemon as a child process, and a client with a
//! reply timeout.

use pilfill_serve::protocol::{
    decode_reply, encode_request, read_frame, write_frame, Reply, Request,
};
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Process ids of running daemons, for the run's watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Process ids of the daemons still running.
pub fn live_pids() -> Vec<u32> {
    LIVE.lock().map(|v| v.clone()).unwrap_or_default()
}

fn forget(pid: u32) {
    if let Ok(mut v) = LIVE.lock() {
        v.retain(|&p| p != pid);
    }
}

/// How long a client waits for one reply before the request counts as
/// timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A running daemon with default options on a unix socket. Dropping it
/// kills the process and waits for it.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `pilfill serve --listen unix:SOCKET` and waits until it
    /// accepts connections.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that does not accept within 10 s.
    pub fn start(pilfill: &Path, socket: &Path) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(pilfill)
            .arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        if let Ok(mut v) = LIVE.lock() {
            v.push(child.id());
        }
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let start = Instant::now();
        loop {
            match UnixStream::connect(socket) {
                Ok(_) => return Ok(daemon),
                Err(e) if start.elapsed() > Duration::from_secs(10) => return Err(e),
                Err(_) => {
                    if let Some(status) = daemon
                        .child
                        .as_mut()
                        .and_then(|c| c.try_wait().ok().flatten())
                    {
                        return Err(io::Error::other(format!("daemon exited early: {status}")));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// Opens a client connection.
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(&self.socket)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set size (`VmHWM`) in kB, read from `/proc`.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        self.status_kb("VmHWM:")
    }

    /// Current resident set size (`VmRSS`) in kB, read from `/proc`.
    pub fn rss_kb(&self) -> Option<u64> {
        self.status_kb("VmRSS:")
    }

    fn status_kb(&self, field: &str) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with(field))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Asks the daemon to shut down and waits for it to exit (killing
    /// it after 5 s).
    ///
    /// # Errors
    ///
    /// A refused shutdown or a daemon that had to be killed.
    pub fn shutdown(mut self) -> io::Result<()> {
        let acked = self
            .connect()
            .and_then(|mut c| c.request(&Request::Shutdown))
            .map(|r| matches!(r, Reply::ShutdownOk));
        let mut child = self.child.take().expect("daemon not yet reaped");
        let pid = child.id();
        let start = Instant::now();
        while child.try_wait()?.is_none() {
            if start.elapsed() > Duration::from_secs(5) {
                let _ = child.kill();
                child.wait()?;
                forget(pid);
                return Err(io::Error::other("daemon did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        forget(pid);
        let _ = std::fs::remove_file(&self.socket);
        match acked {
            Ok(true) => Ok(()),
            Ok(false) => Err(io::Error::other("shutdown was not acknowledged")),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            forget(child.id());
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One client connection: strictly one request in flight.
pub struct Conn {
    stream: UnixStream,
}

impl Conn {
    /// Connects to a daemon socket with [`REPLY_TIMEOUT`] on reads.
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn connect(socket: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn { stream })
    }

    /// Sends one request and waits for its reply.
    ///
    /// # Errors
    ///
    /// I/O failures (a timeout is `WouldBlock`/`TimedOut`), a closed
    /// connection or a malformed reply.
    pub fn request(&mut self, req: &Request) -> io::Result<Reply> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })?;
        decode_reply(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}
