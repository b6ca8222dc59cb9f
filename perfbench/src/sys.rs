//! Process-level readings from `/proc` and the provenance stamped on
//! every result.

use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// OS threads of this process.
pub fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Open file descriptors of this process.
pub fn open_fds() -> usize {
    // The directory handle used for listing is itself one open fd.
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count().saturating_sub(1))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Returns the heap's free memory to the OS, so each iteration starts from
/// the same heap state instead of whatever the previous ones left behind.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restarts the peak-RSS high-water mark, so [`peak_rss_mb`] reports the
/// peak since this call.
pub fn reset_peak_rss() {
    // "5" resets VmHWM (proc(5)); without it the peak covers the process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Thread and fd counts left above `(threads, fds)` after a network or
/// node was dropped. Threads retire asynchronously, so this waits up to
/// 200 ms for the counts to come back down before reporting what is left.
pub fn residue(baseline: (usize, usize)) -> (f64, f64) {
    let deadline = Instant::now() + Duration::from_millis(200);
    loop {
        let now = (os_threads(), open_fds());
        if (now.0 <= baseline.0 && now.1 <= baseline.1) || Instant::now() >= deadline {
            return (
                now.0 as f64 - baseline.0 as f64,
                now.1 as f64 - baseline.1 as f64,
            );
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Provenance recorded with every result.
pub struct Provenance {
    pub commit: String,
    pub source_fnv64: String,
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
    pub date_utc: String,
}

impl Provenance {
    /// Collects provenance for a run started from the repository root.
    pub fn collect() -> Self {
        Provenance {
            commit: git_head(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            source_fnv64: format!("{:016x}", source_hash(Path::new("crates"))),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            rustc: rustc_version(),
            date_utc: utc_now(),
        }
    }
}

/// The commit `HEAD` names, read from the `.git` directory directly (the
/// benchmark may run in a plain export that has none).
fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over every `.rs` and `.toml` file under `dir`, in path order:
/// identifies the measured source even where no commit id is available.
fn source_hash(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The current time as an ISO-8601 UTC timestamp.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (H. Hinnant), valid for dates after 1970.
    let z = days as i64 + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}
