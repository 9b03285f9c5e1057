//! Named fault-injection points for chaos testing.
//!
//! Debug builds carry a process-global mask of armed injection points,
//! settable programmatically ([`enable`]/[`disable`]/[`clear`]) or via the
//! `FAIRANK_FAULT` environment variable (comma-separated point names,
//! read once). Release builds compile the whole mechanism down to
//! constants: [`armed`] is `false`, [`active`] always returns `false`,
//! and the branches guarding each injection site are dead code the
//! optimizer removes. A release-gated test pins that contract.
//!
//! The points:
//!
//! | name            | site                              | effect                       |
//! |-----------------|-----------------------------------|------------------------------|
//! | `emd-panic`     | `SplitEngine` distance evaluation | panics mid-search            |
//! | `slow-cell`     | core plan `SearchStrategy::run`   | sleeps before each cell      |
//! | `drop-conn`     | service reply path                | drops the socket, no reply   |
//! | `torn-write`    | service reply path                | writes half a reply, drops   |
//! | `commit-panic`  | `Session::commit_panel` reduce    | panics mid-commit            |

use std::time::Duration;

/// Panic inside the EMD distance evaluation (exercises lock poisoning and
/// worker panic containment).
pub const EMD_PANIC: &str = "emd-panic";
/// Sleep inside every plan cell (exercises deadlines and backpressure).
pub const SLOW_CELL: &str = "slow-cell";
/// Drop the connection instead of replying (exercises client retry).
pub const DROP_CONN: &str = "drop-conn";
/// Write a truncated reply then drop the connection (exercises client
/// parse robustness and server health after torn writes).
pub const TORN_WRITE: &str = "torn-write";
/// Panic inside the scenario reduce's panel commit, while the session
/// lock is held (exercises poison quarantine on the scenario path).
pub const COMMIT_PANIC: &str = "commit-panic";

/// Every known injection point, in mask-bit order (append-only: the bit
/// index is each point's position here).
pub const ALL_POINTS: &[&str] = &[
    EMD_PANIC,
    SLOW_CELL,
    DROP_CONN,
    TORN_WRITE,
    COMMIT_PANIC,
];

/// How long [`sleep_point`] stalls when its point is armed.
pub const SLOW_POINT_DELAY: Duration = Duration::from_millis(40);

/// Whether this build carries live fault-injection machinery.
/// `false` in release builds: every injection site is a dead branch.
pub const fn armed() -> bool {
    cfg!(debug_assertions)
}

#[cfg(debug_assertions)]
mod imp {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::OnceLock;

    static MASK: AtomicU32 = AtomicU32::new(0);
    static ENV_MASK: OnceLock<u32> = OnceLock::new();

    fn bit(point: &str) -> u32 {
        let index = super::ALL_POINTS
            .iter()
            .position(|&name| name == point)
            .unwrap_or_else(|| panic!("unknown fault point {point:?}"));
        1 << index
    }

    fn env_mask() -> u32 {
        let Ok(spec) = std::env::var("FAIRANK_FAULT") else {
            return 0;
        };
        spec.split(',')
            .map(str::trim)
            .filter(|name| !name.is_empty())
            .map(bit)
            .fold(0, |mask, bit| mask | bit)
    }

    pub fn active(point: &str) -> bool {
        let armed = MASK.load(Ordering::Acquire) | *ENV_MASK.get_or_init(env_mask);
        armed & bit(point) != 0
    }

    pub fn enable(point: &str) {
        MASK.fetch_or(bit(point), Ordering::AcqRel);
    }

    pub fn disable(point: &str) {
        MASK.fetch_and(!bit(point), Ordering::AcqRel);
    }

    pub fn clear() {
        MASK.store(0, Ordering::Release);
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    pub fn active(_point: &str) -> bool {
        false
    }
    pub fn enable(_point: &str) {}
    pub fn disable(_point: &str) {}
    pub fn clear() {}
}

/// Is the named point currently armed? Always `false` in release builds.
#[inline]
pub fn active(point: &str) -> bool {
    armed() && imp::active(point)
}

/// Arm a point (no-op in release builds).
pub fn enable(point: &str) {
    imp::enable(point);
}

/// Disarm a point (no-op in release builds).
pub fn disable(point: &str) {
    imp::disable(point);
}

/// Disarm every programmatically armed point (env-armed points persist).
pub fn clear() {
    imp::clear();
}

/// Panic if the named point is armed. Call this at the injection site.
#[inline]
pub fn panic_point(point: &str) {
    if active(point) {
        panic!("fault injected: {point}");
    }
}

/// Stall for [`SLOW_POINT_DELAY`] if the named point is armed.
#[inline]
pub fn sleep_point(point: &str) {
    if active(point) {
        std::thread::sleep(SLOW_POINT_DELAY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fault state is process-global; unit tests here run under one lock so
    // parallel test threads don't observe each other's arming. They arm
    // only points whose sites live outside this crate, so the crate's
    // other tests, running concurrently, can never trip them.
    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    #[cfg(debug_assertions)]
    fn enable_disable_roundtrip_in_debug_builds() {
        let _guard = serialized();
        assert!(armed());
        assert!(!active(COMMIT_PANIC));
        enable(COMMIT_PANIC);
        assert!(active(COMMIT_PANIC));
        assert!(!active(DROP_CONN), "points arm independently");
        disable(COMMIT_PANIC);
        assert!(!active(COMMIT_PANIC));
        enable(DROP_CONN);
        enable(TORN_WRITE);
        clear();
        assert!(ALL_POINTS.iter().all(|p| !active(p)));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn panic_point_fires_when_armed() {
        let _guard = serialized();
        enable(COMMIT_PANIC);
        let result = std::panic::catch_unwind(|| panic_point(COMMIT_PANIC));
        clear();
        assert!(result.is_err(), "armed panic point must panic");
        panic_point(COMMIT_PANIC); // disarmed: must not panic
    }

    /// The release contract: fault injection compiles to a no-op. CI runs
    /// this test under `--release` as the build check.
    #[test]
    #[cfg(not(debug_assertions))]
    fn fault_injection_is_inert_in_release_builds() {
        let _guard = serialized();
        assert!(!armed());
        enable(EMD_PANIC);
        enable(SLOW_CELL);
        assert!(ALL_POINTS.iter().all(|p| !active(p)), "release builds never arm");
        panic_point(EMD_PANIC); // must not panic even after enable()
        clear();
    }
}
