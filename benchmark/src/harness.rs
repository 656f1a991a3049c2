//! Process plumbing for the runner: child processes with a hard
//! timeout and per-child resource usage, the daemon under test, and the
//! drop guards that tear both down even when the runner panics.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// How one child process ended.
pub struct Exit {
    /// Exit code, or -1 when a signal ended it.
    pub code: i64,
    pub cpu_s: f64,
    pub maxrss_mb: f64,
    pub timed_out: bool,
}

/// Pids with a deadline; a background thread kills the ones that pass
/// it. Dropping the watchdog stops and joins that thread.
pub struct Watchdog {
    // (pid, deadline, killed)
    live: Arc<Mutex<Vec<(i32, Instant, bool)>>>,
    stop: Arc<AtomicBool>,
    killer: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.killer.take() {
            let _ = h.join();
        }
    }
}

impl Watchdog {
    pub fn start() -> Watchdog {
        let live: Arc<Mutex<Vec<(i32, Instant, bool)>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (their_live, their_stop) = (Arc::clone(&live), Arc::clone(&stop));
        let killer = std::thread::spawn(move || {
            while !their_stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
                let now = Instant::now();
                for entry in their_live.lock().expect("watchdog list").iter_mut() {
                    if !entry.2 && now >= entry.1 {
                        // SAFETY: plain syscall on a pid that is still
                        // registered, i.e. its owner has not reaped it yet
                        // (owners deregister under this same lock).
                        unsafe { kill(entry.0, SIGKILL) };
                        entry.2 = true;
                    }
                }
            }
        });
        Watchdog {
            live,
            stop,
            killer: Some(killer),
        }
    }

    /// Run `cmd` to completion or until `timeout`, returning its exit and
    /// its own resource usage (not the sum over all children).
    pub fn run(&self, cmd: &mut Command, timeout: Duration) -> std::io::Result<Exit> {
        let child = cmd.spawn()?;
        let pid = child.id() as i32;
        self.live
            .lock()
            .expect("watchdog list")
            .push((pid, Instant::now() + timeout, false));
        let mut status = 0i32;
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss_kb: 0,
            rest: [0; 13],
        };
        // SAFETY: `pid` is our own un-reaped child; both out-pointers are
        // valid for the call. Reaping here (instead of `Child::wait`) is
        // what yields the per-child rusage; `child` is dropped without
        // waiting, which std permits.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        let mut live = self.live.lock().expect("watchdog list");
        let at = live
            .iter()
            .position(|e| e.0 == pid)
            .expect("registered above");
        let timed_out = live.swap_remove(at).2;
        drop(live);
        drop(child);
        if reaped != pid {
            return Err(std::io::Error::last_os_error());
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Ok(Exit {
            code: if status & 0x7f == 0 {
                ((status >> 8) & 0xff) as i64
            } else {
                -1
            },
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            maxrss_mb: ru.maxrss_kb as f64 / 1024.0,
            timed_out,
        })
    }
}

/// Removes a directory tree when dropped.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `kfuse serve` process. Dropping it kills and reaps the process and
/// removes the socket file; [`Daemon::shutdown`] is the graceful path.
pub struct Daemon {
    child: Option<Child>,
    pub socket: PathBuf,
}

impl Daemon {
    /// Start the daemon and wait until it accepts connections.
    pub fn start(
        kfuse: &Path,
        socket: &Path,
        cache_dir: &Path,
        workers: usize,
        log: &Path,
    ) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let log = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(kfuse)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(["--workers", &workers.to_string()])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", kfuse.display()))?;
        let mut d = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if UnixStream::connect(socket).is_ok() {
                return Ok(d);
            }
            let exited = d
                .child
                .as_mut()
                .expect("just spawned")
                .try_wait()
                .map_err(|e| e.to_string())?;
            if exited.is_some() || Instant::now() > deadline {
                return Err("the daemon did not start listening within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// user+sys CPU seconds so far, from `/proc/<pid>/stat` (clock ticks
    /// are 1/100 s on Linux).
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| e.to_string())?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the whole line.
        let rest = stat
            .rsplit_once(')')
            .ok_or("unexpected /proc stat format")?
            .1;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            f.get(i)
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or("unexpected /proc stat format")
        };
        Ok((ticks(11)? + ticks(12)?) / 100.0)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| e.to_string())?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Graceful drain: send `shutdown`, wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut c = Connection::open(&self.socket, Duration::from_secs(30))?;
        c.request("{\"id\":\"bye\",\"op\":\"shutdown\"}")?;
        let mut child = self.child.take().expect("daemon is running");
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                self.child = Some(child);
                return Err("the daemon did not exit after `shutdown`".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One wire-protocol connection: newline-framed JSON both ways.
pub struct Connection {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Connection {
    /// `timeout` bounds every single read and write.
    pub fn open(socket: &Path, timeout: Duration) -> Result<Connection, String> {
        let s = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        s.set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection { writer: s, reader })
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// The next response line, without its newline. A read that outlives
    /// the connection's timeout fails with `WouldBlock` or `TimedOut`.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line)? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            _ => Ok(line.trim_end().to_string()),
        }
    }

    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.send(line)
            .and_then(|()| self.recv())
            .map_err(|e| format!("wire request: {e}"))
    }
}
