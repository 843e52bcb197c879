//! Test support shared by the integration suites that drive real
//! `serve-worker` hosts.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// A `serve-worker` host subprocess on an ephemeral loopback port; killed
/// (and reaped) on drop so a failing test never leaks a listener.
pub struct WorkerHost {
    child: Child,
    /// The bound address the host printed as its first stdout line.
    pub addr: String,
}

impl WorkerHost {
    /// Spawns a host armed with the fault schedule `faults`, if given.
    /// An `ONIONBOTS_FAULTS` inherited from the test's own environment is
    /// always cleared, so only the schedule passed here applies.
    pub fn spawn(faults: Option<&str>) -> WorkerHost {
        let mut command = Command::new(env!("CARGO_BIN_EXE_run_experiments"));
        command
            .args(["serve-worker", "--listen", "127.0.0.1:0"])
            .env_remove(sim::FAULTS_ENV)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(schedule) = faults {
            command.env(sim::FAULTS_ENV, schedule);
        }
        let mut child = command.spawn().expect("spawn serve-worker");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut addr = String::new();
        BufReader::new(stdout)
            .read_line(&mut addr)
            .expect("read bound address");
        let addr = addr.trim().to_string();
        assert!(!addr.is_empty(), "serve-worker printed no bound address");
        WorkerHost { child, addr }
    }
}

impl Drop for WorkerHost {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
