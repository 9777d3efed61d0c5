//! The strict `ONN_*` count readers and the auto thread count.
//!
//! Serve workers and robustness-sweep cells run on [`std::thread::scope`];
//! no kernel in this crate starts a thread. What is left here is
//! configuration: the auto thread count behind
//! [`crate::gemm_thread_count`] sizes both, and the `env_serve_*` readers
//! hold the serving runtime's knobs. The module keeps the name `pool`
//! because the benchmark imports the serving readers from it.
//!
//! # Thread-count configuration
//!
//! The auto thread count honours the `ONN_THREADS` environment variable
//! (read once), falling back to [`std::thread::available_parallelism`]
//! capped at 8. It is the serving runtime's default worker count and the
//! number of sweep cells that run at once. `0`, empty and unset mean
//! "auto"; any other non-integer value, or a value that is not UTF-8,
//! panics at first use, so a typo'd override can never silently run at
//! auto count. CI runs the suite under `ONN_THREADS=1`, `8` and default;
//! any output divergence is a determinism regression.

use std::env::VarError;
use std::sync::OnceLock;

/// Parses one numeric environment override. `0` and empty mean "not
/// configured" (auto); anything unparsable panics with the variable name,
/// so a typo'd `ONN_THREADS=two` (or a negative count) fails the run
/// loudly instead of silently falling back to the auto thread count — the
/// CI determinism job depends on the configured value actually applying.
pub(crate) fn parse_env_count(name: &str, raw: &str) -> Option<usize> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<usize>() {
        Ok(0) => None,
        Ok(n) => Some(n),
        Err(_) => panic!(
            "invalid {name}={raw:?}: expected a non-negative integer (0, empty or unset = auto)"
        ),
    }
}

/// One `ONN_*` count read, as [`std::env::var`] returned it. Unset means
/// auto and a value goes through [`parse_env_count`]. A value that is not
/// UTF-8 panics naming the variable: passing it off as unset would run a
/// mistyped override at the auto count.
fn env_count(name: &str, read: Result<String, VarError>) -> Option<usize> {
    match read {
        Ok(raw) => parse_env_count(name, &raw),
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(raw)) => {
            panic!("invalid {name}={raw:?}: expected a non-negative integer, not non-UTF-8 bytes")
        }
    }
}

/// Reads `ONN_THREADS` once. `0`, empty or unset mean "not configured";
/// any other non-integer value panics (see [`parse_env_count`]).
pub(crate) fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| env_count("ONN_THREADS", std::env::var("ONN_THREADS")))
}

/// Reads `ONN_SERVE_BATCH` once — the serving runtime's coalescing batch
/// size (`adept-infer`) — through the same validated parse as
/// `ONN_THREADS`: `0`, empty or unset mean "auto", typos panic.
pub fn env_serve_batch() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| env_count("ONN_SERVE_BATCH", std::env::var("ONN_SERVE_BATCH")))
}

/// Reads `ONN_SERVE_THREADS` once — the serving runtime's worker count
/// (`adept-infer`) — through the same validated parse as `ONN_THREADS`:
/// `0`, empty or unset mean "auto", typos panic.
pub fn env_serve_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| env_count("ONN_SERVE_THREADS", std::env::var("ONN_SERVE_THREADS")))
}

/// Reads `ONN_SERVE_QUEUE` once — the serving runtime's bounded pending
/// queue capacity (`adept-infer` sheds arrivals past it) — through the
/// same validated parse as `ONN_THREADS`: `0`, empty or unset mean
/// "auto", typos panic.
pub fn env_serve_queue() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| env_count("ONN_SERVE_QUEUE", std::env::var("ONN_SERVE_QUEUE")))
}

/// Reads `ONN_SERVE_DEADLINE_MS` once — the serving runtime's per-request
/// deadline in milliseconds (`adept-infer` times out requests still queued
/// past it) — through the same validated parse as `ONN_THREADS`: `0`,
/// empty or unset mean "no deadline", typos panic.
pub fn env_serve_deadline_ms() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        env_count(
            "ONN_SERVE_DEADLINE_MS",
            std::env::var("ONN_SERVE_DEADLINE_MS"),
        )
    })
}

/// The auto thread count: `ONN_THREADS` if set, else the machine's
/// parallelism capped at 8. The serving runtime's default worker count and
/// the sweep's cell-thread count both derive from it. Resolved once, so
/// every caller in a process sees the same count.
pub(crate) fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get().min(8))
                .unwrap_or(1)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_threads_parse_contract() {
        // Can't set the env var (OnceLock cache + other tests), but the
        // cached value must be a positive count or None.
        if let Some(n) = env_threads() {
            assert!(n > 0);
        }
    }

    #[test]
    fn env_count_parser_accepts_auto_and_positive_values() {
        assert_eq!(parse_env_count("ONN_THREADS", "0"), None, "0 = auto");
        assert_eq!(parse_env_count("ONN_THREADS", ""), None, "empty = auto");
        assert_eq!(parse_env_count("ONN_THREADS", "  "), None);
        assert_eq!(parse_env_count("ONN_THREADS", "1"), Some(1));
        assert_eq!(parse_env_count("ONN_THREADS", " 8 "), Some(8));
    }

    #[test]
    #[should_panic(expected = "invalid ONN_THREADS=\"two\"")]
    fn env_count_parser_rejects_words() {
        // Regression: an unparsable override used to silently mean "auto",
        // so a typo'd CI determinism job ran at machine thread count.
        let _ = parse_env_count("ONN_THREADS", "two");
    }

    #[test]
    #[should_panic(expected = "invalid ONN_THREADS=\"-1\"")]
    fn env_count_parser_rejects_negative_counts() {
        let _ = parse_env_count("ONN_THREADS", "-1");
    }

    #[test]
    fn serving_knobs_share_the_validated_parse() {
        // The serving runtime's knobs go through the exact same contract
        // as ONN_THREADS: 0/empty/unset = auto, positive counts apply.
        assert_eq!(parse_env_count("ONN_SERVE_BATCH", "0"), None);
        assert_eq!(parse_env_count("ONN_SERVE_BATCH", ""), None);
        assert_eq!(parse_env_count("ONN_SERVE_BATCH", "16"), Some(16));
        assert_eq!(parse_env_count("ONN_SERVE_THREADS", " 4 "), Some(4));
        assert_eq!(parse_env_count("ONN_SERVE_QUEUE", "0"), None);
        assert_eq!(parse_env_count("ONN_SERVE_QUEUE", "2048"), Some(2048));
        assert_eq!(parse_env_count("ONN_SERVE_DEADLINE_MS", ""), None);
        assert_eq!(parse_env_count("ONN_SERVE_DEADLINE_MS", " 250 "), Some(250));
        if let Some(n) = env_serve_batch() {
            assert!(n > 0);
        }
        if let Some(n) = env_serve_threads() {
            assert!(n > 0);
        }
        if let Some(n) = env_serve_queue() {
            assert!(n > 0);
        }
        if let Some(n) = env_serve_deadline_ms() {
            assert!(n > 0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid ONN_SERVE_BATCH=\"fast\"")]
    fn serve_batch_typo_panics_instead_of_meaning_auto() {
        let _ = parse_env_count("ONN_SERVE_BATCH", "fast");
    }

    #[test]
    #[should_panic(expected = "invalid ONN_SERVE_THREADS=\"-2\"")]
    fn serve_threads_negative_count_panics() {
        let _ = parse_env_count("ONN_SERVE_THREADS", "-2");
    }

    #[test]
    #[should_panic(expected = "invalid ONN_SERVE_QUEUE=\"big\"")]
    fn serve_queue_typo_panics_instead_of_meaning_auto() {
        let _ = parse_env_count("ONN_SERVE_QUEUE", "big");
    }

    #[test]
    #[should_panic(expected = "invalid ONN_SERVE_DEADLINE_MS=\"1.5\"")]
    fn serve_deadline_fractional_count_panics() {
        let _ = parse_env_count("ONN_SERVE_DEADLINE_MS", "1.5");
    }

    /// A value that is not UTF-8 panics naming its variable, in every
    /// reader, instead of reading as unset (auto).
    #[cfg(unix)]
    #[test]
    fn non_utf8_values_panic_naming_the_variable() {
        use std::ffi::OsString;
        use std::os::unix::ffi::OsStringExt;
        for name in [
            "ONN_THREADS",
            "ONN_SERVE_BATCH",
            "ONN_SERVE_THREADS",
            "ONN_SERVE_QUEUE",
            "ONN_SERVE_DEADLINE_MS",
        ] {
            let read = Err(VarError::NotUnicode(OsString::from_vec(vec![0xff])));
            let panic = std::panic::catch_unwind(|| env_count(name, read))
                .expect_err("a non-UTF-8 value must panic");
            let msg = panic
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains(&format!("invalid {name}=")), "{msg}");
        }
        assert_eq!(env_count("ONN_THREADS", Err(VarError::NotPresent)), None);
        assert_eq!(env_count("ONN_THREADS", Ok("3".into())), Some(3));
    }
}
