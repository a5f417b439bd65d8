//! Host honesty: where the scratch files live, what the machine is, and a
//! fixed calibration kernel that tells a disturbed run from a slow program.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// What every output carries so a number can be traced to its host.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub git_sha: String,
    pub scratch_dir: PathBuf,
    pub scratch_fs: String,
}

impl Fingerprint {
    pub fn collect(scratch_dir: &Path) -> Fingerprint {
        Fingerprint {
            nproc: mb2_engine::config::default_parallelism(),
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            git_sha: git_sha(),
            scratch_dir: scratch_dir.to_path_buf(),
            scratch_fs: fs_type(scratch_dir),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"git_sha\": {}, \
             \"scratch_dir\": {}, \"scratch_fs\": {}}}",
            self.nproc,
            crate::json::string(&self.cpu_model),
            crate::json::string(&self.kernel),
            crate::json::string(&self.git_sha),
            crate::json::string(&self.scratch_dir.display().to_string()),
            crate::json::string(&self.scratch_fs),
        )
    }
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit the benchmark was built from, read from `.git` without
/// running git (the driver's checkout is not a repository: "unknown").
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/mounts`).
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: (usize, &str) = (0, "unknown");
    for line in mounts.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_dev), Some(point), Some(fs)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if dir.starts_with(point) && point.len() >= best.0 {
            best = (point.len(), fs);
        }
    }
    best.1.to_string()
}

/// Scratch directory for WAL files and snapshots: `$MB2_BENCH_DIR` when
/// set, else `benchmark/scratch` under the current directory (the
/// benchmark contract allows writes only inside the checkout, so the
/// memory-backed `/dev/shm` is opt-in through the variable).
pub fn scratch_dir() -> std::io::Result<PathBuf> {
    let dir = match std::env::var_os("MB2_BENCH_DIR") {
        Some(d) => PathBuf::from(d),
        None => PathBuf::from("benchmark/scratch"),
    };
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A Linux `cpu_set_t` (1,024 CPUs) as words.
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
mod sched {
    use super::CpuMask;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuMask> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the byte size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &CpuMask) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the byte size
        // passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
    }
}

/// Elsewhere thread placement is left to the scheduler.
#[cfg(not(target_os = "linux"))]
mod sched {
    use super::CpuMask;

    pub fn get() -> Option<CpuMask> {
        None
    }

    pub fn set(_mask: &CpuMask) -> bool {
        false
    }
}

/// The calling thread's CPU affinity, so it can be narrowed to one CPU
/// and widened again. Threads inherit the mask of the thread that spawns
/// them, which is how the harness places the server's connection thread
/// (see `setup::set_up`) without touching the server.
pub struct Affinity {
    original: CpuMask,
}

impl Affinity {
    /// The calling thread's current mask; `None` where it cannot be read.
    pub fn current() -> Option<Affinity> {
        sched::get()
            .filter(|mask| mask.iter().any(|w| *w != 0))
            .map(|original| Affinity { original })
    }

    /// Narrow the calling thread to the highest-numbered CPU it may use
    /// (CPU 0 tends to take the interrupts). Returns that CPU.
    pub fn pin_to_one(&self) -> Option<usize> {
        let (word, bits) = self
            .original
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut mask: CpuMask = [0; 16];
        mask[word] = 1u64 << bit;
        sched::set(&mask).then_some(word * 64 + bit)
    }

    /// Give the calling thread its original mask back.
    pub fn restore(&self) {
        sched::set(&self.original);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|n| n.parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Current resident set size in bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    proc_field("/proc/self/status", "VmRSS")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|n| n.parse::<f64>().ok())
        })
        .map(|kib| kib * 1024.0)
        .unwrap_or(0.0)
}

/// A fixed integer + memory kernel (xorshift walk over a 256 KiB table,
/// small enough to stay out of the cache levels other tenants share):
/// the same work on every call, so its time measures the host, not the
/// program. The median of five passes after one that faults the table in,
/// in milliseconds.
pub fn calibrate_ms() -> f64 {
    const WORDS: usize = 1 << 15;
    const STEPS: usize = 4_000_000;
    let mut table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut passes = Vec::with_capacity(6);
    for _ in 0..6 {
        let started = Instant::now();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (WORDS - 1);
            table[i] = table[i].wrapping_add(x);
        }
        std::hint::black_box(&table);
        passes.push(started.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&passes[1..])
}
