//! The `imre serve` child process: start, wait for readiness, stop.

use crate::client::Conn;
use std::ffi::CString;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Engine worker threads (`--workers`).
pub const WORKERS: usize = 2;
/// Micro-batch cap (`--batch`).
pub const BATCH_MAX: usize = 8;
/// Compute-pool threads (`--threads`).
pub const POOL_THREADS: usize = 2;
/// Neighbours and interpolation weight of the kNN workload.
pub const KNN_K: usize = 8;
/// See [`KNN_K`].
pub const KNN_LAMBDA: f32 = 0.3;

/// How one server is started.
pub struct ServerSpec<'a> {
    /// The `imre` executable.
    pub imre: &'a Path,
    /// The bundle to serve.
    pub bundle: &'a Path,
    /// Serve the bundle's int8 model with kNN interpolation on.
    pub int8_knn: bool,
    /// FIFO the delta stream arrives on.
    pub stream: &'a Path,
    /// Where each published bundle is persisted.
    pub publish_out: &'a Path,
    /// Where the server's stderr goes.
    pub log: &'a Path,
}

impl ServerSpec<'_> {
    /// The command-line flags after `serve`.
    pub fn args(&self) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "--bundle".into(),
            self.bundle.display().to_string(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            WORKERS.to_string(),
            "--batch".into(),
            BATCH_MAX.to_string(),
            "--deadline-ms".into(),
            "2".into(),
            "--threads".into(),
            POOL_THREADS.to_string(),
            "--stream".into(),
            self.stream.display().to_string(),
            "--publish-every".into(),
            "1".into(),
            "--stream-publish-out".into(),
            self.publish_out.display().to_string(),
        ];
        if self.int8_knn {
            for flag in [
                "--precision",
                "int8",
                "--knn-k",
                &KNN_K.to_string(),
                "--knn-lambda",
                &KNN_LAMBDA.to_string(),
            ] {
                args.push(flag.to_string());
            }
        }
        args
    }
}

/// A running server; killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open (and unread) for the process's lifetime: the server
    /// prints a few more lines after `listening on`, and a closed pipe
    /// would fail those writes.
    _stdout: Option<std::io::Lines<BufReader<ChildStdout>>>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the server and waits until it answers `ping` with `ok`.
    pub fn start(spec: &ServerSpec) -> Result<Server, String> {
        let log = std::fs::File::create(spec.log).map_err(|e| format!("server log: {e}"))?;
        let mut child = Command::new(spec.imre)
            .arg("serve")
            .args(spec.args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", spec.imre.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // The guard owns the child from here, so every early return below
        // kills and reaps it.
        let mut server = Server {
            child,
            _stdout: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut lines = BufReader::new(stdout).lines();
        server.addr = loop {
            let line = match lines.next() {
                Some(Ok(line)) => line,
                _ => {
                    return Err(format!(
                        "server exited before listening; see {}",
                        spec.log.display()
                    ))
                }
            };
            if let Some(rest) = line.strip_prefix("listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
            }
        };
        server._stdout = Some(lines);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut conn) = Conn::connect(server.addr) {
                if conn.call("ping").is_ok_and(|r| r == "ok pong") {
                    return Ok(server);
                }
            }
            if Instant::now() > deadline {
                return Err("server did not answer ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

extern "C" {
    fn mkfifo(path: *const std::ffi::c_char, mode: u32) -> i32;
}

/// Creates a FIFO at `path` (mode 0600).
pub fn make_fifo(path: &Path) -> Result<PathBuf, String> {
    let c = CString::new(path.as_os_str().as_encoded_bytes())
        .map_err(|_| format!("NUL in path {}", path.display()))?;
    // SAFETY: `c` is a valid NUL-terminated string that outlives the call;
    // mkfifo only reads it.
    let rc = unsafe { mkfifo(c.as_ptr(), 0o600) };
    if rc != 0 {
        return Err(format!(
            "mkfifo {}: {}",
            path.display(),
            std::io::Error::last_os_error()
        ));
    }
    Ok(path.to_path_buf())
}
