//! Fault-injection support: named **failpoints** that production code can
//! consult at crash-prone spots (file writes, worker closures, loss
//! computation) and that tests — or an operator via the `RMPI_FAILPOINTS`
//! environment variable — arm with a failure action.
//!
//! The facility is deliberately tiny and dependency-free so every workspace
//! crate can afford the hook: when no failpoint is armed, a call to any of
//! the [`failpoint`] helpers is a single relaxed atomic load.
//!
//! # Arming failpoints
//!
//! Programmatically (tests):
//!
//! ```
//! use rmpi_testutil::failpoint::{self, Action};
//! let _lock = failpoint::exclusive(); // serialise fault tests in one process
//! failpoint::arm("demo::write", Action::IoError("disk full".into()));
//! assert!(failpoint::io("demo::write").is_err());
//! failpoint::disarm("demo::write");
//! assert!(failpoint::io("demo::write").is_ok());
//! ```
//!
//! Or from the environment, read once at first use:
//!
//! ```text
//! RMPI_FAILPOINTS="ckpt::save=io_error;pool::shard=panic(boom)@3"
//! ```
//!
//! The optional `@n` suffix delays the action until the n-th hit (1-based);
//! earlier hits pass through untouched. Supported actions: `off`,
//! `io_error[(msg)]`, `truncate(bytes)`, `panic[(msg)]`, `delay(ms)`, `nan`,
//! `abort`.
//!
//! The crate's second facility is the [`chaos`] module: a seeded in-process
//! TCP proxy that injects *network* faults (refused connections, latency,
//! truncated or cut responses) between a client and a server — failpoints
//! break the process from the inside, the chaos proxy breaks the wire from
//! the outside. The third is [`chaosfile`]: a seeded wrapper over positioned
//! file reads that injects *disk* faults (EIO, short reads, silent bit
//! flips, delays, truncation) underneath streaming readers.

#![warn(missing_docs)]

pub(crate) mod alloc;
pub mod chaos;
pub mod chaosfile;

pub use alloc::CountingAllocator;

/// Named failpoints: arm, check and disarm (see the crate docs).
pub mod failpoint {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Duration;

    /// What an armed failpoint does when hit.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Action {
        /// Fail the call site with `std::io::ErrorKind::Other` and this message.
        IoError(String),
        /// For writers: persist only the first `n` bytes, then fail — models a
        /// crash mid-write.
        Truncate(usize),
        /// Panic with this message (exercises unwind isolation).
        Panic(String),
        /// Sleep this long, then continue (exercises deadlines/slow workers).
        Delay(Duration),
        /// Replace the call site's value with `f32::NAN` (divergence guards).
        Nan,
        /// Abort the process — the portable stand-in for `kill -9` mid-step.
        Abort,
    }

    struct Entry {
        action: Action,
        /// Hits remaining before the action fires (0 = fire now and on every
        /// later hit).
        after: u64,
        hits: u64,
    }

    /// Count of armed failpoints: the fast path is one relaxed load of this.
    static ARMED: AtomicUsize = AtomicUsize::new(0);

    fn registry() -> &'static Mutex<HashMap<String, Entry>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut map = HashMap::new();
            if let Ok(spec) = std::env::var("RMPI_FAILPOINTS") {
                for (name, entry) in parse_spec(&spec) {
                    map.insert(name, entry);
                }
                ARMED.store(map.len(), Ordering::Relaxed);
            }
            Mutex::new(map)
        })
    }

    fn lock() -> MutexGuard<'static, HashMap<String, Entry>> {
        registry().lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A process-wide lock for tests that arm failpoints: hold the guard for
    /// the whole test so concurrently running tests never see each other's
    /// injected faults.
    pub fn exclusive() -> MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Arm `name` with `action`, firing from the first hit.
    pub fn arm(name: &str, action: Action) {
        arm_after(name, action, 0);
    }

    /// Arm `name`, with the action firing on hit `after + 1` and afterwards.
    pub fn arm_after(name: &str, action: Action, after: u64) {
        let mut map = lock();
        map.insert(name.to_owned(), Entry { action, after, hits: 0 });
        ARMED.store(map.len(), Ordering::Relaxed);
    }

    /// Disarm one failpoint.
    pub fn disarm(name: &str) {
        let mut map = lock();
        map.remove(name);
        ARMED.store(map.len(), Ordering::Relaxed);
    }

    /// Disarm everything (test teardown).
    pub fn disarm_all() {
        let mut map = lock();
        map.clear();
        ARMED.store(0, Ordering::Relaxed);
    }

    /// Record a hit on `name` and return the action to apply, if it fires.
    /// This is the primitive the typed helpers below are built on.
    pub fn check(name: &str) -> Option<Action> {
        // Parse RMPI_FAILPOINTS on the first check ever made: the ARMED fast
        // path below would otherwise short-circuit before anything touches
        // the registry, silently ignoring env-armed failpoints in processes
        // that never call arm() (e.g. crash-test children).
        static ENV_PARSED: OnceLock<()> = OnceLock::new();
        ENV_PARSED.get_or_init(|| {
            if std::env::var_os("RMPI_FAILPOINTS").is_some() {
                let _ = registry();
            }
        });
        if ARMED.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut map = lock();
        let entry = map.get_mut(name)?;
        entry.hits += 1;
        if entry.hits <= entry.after {
            return None;
        }
        Some(entry.action.clone())
    }

    /// Failpoint for fallible I/O call sites: returns the injected error (or
    /// panics/aborts/delays per the armed action). `Nan` is ignored here.
    pub fn io(name: &str) -> std::io::Result<()> {
        match check(name) {
            Some(Action::IoError(msg)) => {
                Err(std::io::Error::other(format!("failpoint {name}: {msg}")))
            }
            Some(Action::Truncate(n)) => Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                format!("failpoint {name}: write truncated at {n} bytes"),
            )),
            Some(other) => {
                side_effect(name, other);
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Failpoint for infallible call sites (worker loops): applies `Panic`,
    /// `Delay` and `Abort`; value-less actions are ignored.
    pub fn point(name: &str) {
        if let Some(action) = check(name) {
            side_effect(name, action);
        }
    }

    /// Failpoint for float-producing call sites: swaps the value for NaN when
    /// armed with [`Action::Nan`]; other actions behave like [`point`].
    pub fn nan32(name: &str, value: f32) -> f32 {
        match check(name) {
            Some(Action::Nan) => f32::NAN,
            Some(action) => {
                side_effect(name, action);
                value
            }
            None => value,
        }
    }

    /// Failpoint for writers that can simulate partial writes, registering a
    /// single hit: `Ok(None)` = proceed normally, `Ok(Some(n))` = persist
    /// only `n` bytes then fail, `Err` = injected I/O error. Panic, delay and
    /// abort actions are applied as side effects.
    pub fn fs_write(name: &str) -> std::io::Result<Option<usize>> {
        match check(name) {
            None => Ok(None),
            Some(Action::Truncate(n)) => Ok(Some(n)),
            Some(Action::IoError(msg)) => {
                Err(std::io::Error::other(format!("failpoint {name}: {msg}")))
            }
            Some(action) => {
                side_effect(name, action);
                Ok(None)
            }
        }
    }

    fn side_effect(name: &str, action: Action) {
        match action {
            Action::Panic(msg) => panic!("failpoint {name}: {msg}"),
            Action::Delay(d) => std::thread::sleep(d),
            Action::Abort => std::process::abort(),
            Action::IoError(_) | Action::Truncate(_) | Action::Nan => {}
        }
    }

    /// Parse an `RMPI_FAILPOINTS`-style spec: `name=action[;name=action...]`.
    fn parse_spec(spec: &str) -> Vec<(String, Entry)> {
        let mut out = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((name, rhs)) = part.split_once('=') else { continue };
            let (rhs, after) = match rhs.rsplit_once('@') {
                Some((a, n)) => match n.trim().parse::<u64>() {
                    Ok(n) => (a, n.saturating_sub(1)),
                    Err(_) => (rhs, 0),
                },
                None => (rhs, 0),
            };
            if let Some(action) = parse_action(rhs.trim()) {
                out.push((name.trim().to_owned(), Entry { action, after, hits: 0 }));
            }
        }
        out
    }

    fn parse_action(s: &str) -> Option<Action> {
        let (head, arg) = match s.split_once('(') {
            Some((h, rest)) => (h, Some(rest.strip_suffix(')').unwrap_or(rest))),
            None => (s, None),
        };
        match head {
            "off" => None,
            "io_error" => Some(Action::IoError(arg.unwrap_or("injected").to_owned())),
            "truncate" => Some(Action::Truncate(arg.and_then(|a| a.parse().ok())?)),
            "panic" => Some(Action::Panic(arg.unwrap_or("injected").to_owned())),
            "delay" => {
                Some(Action::Delay(Duration::from_millis(arg.and_then(|a| a.parse().ok())?)))
            }
            "nan" => Some(Action::Nan),
            "abort" => Some(Action::Abort),
            _ => None,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unarmed_failpoints_are_noops() {
            let _lock = exclusive();
            disarm_all();
            assert!(io("nothing").is_ok());
            assert_eq!(nan32("nothing", 2.5), 2.5);
            point("nothing");
            assert_eq!(check("nothing"), None);
        }

        #[test]
        fn io_error_and_truncate_fire_and_disarm() {
            let _lock = exclusive();
            disarm_all();
            arm("t::io", Action::IoError("disk full".into()));
            let err = io("t::io").unwrap_err();
            assert!(err.to_string().contains("disk full"), "{err}");
            disarm("t::io");
            assert!(io("t::io").is_ok());

            arm("t::trunc", Action::Truncate(7));
            assert!(matches!(fs_write("t::trunc"), Ok(Some(7))));
            assert!(io("t::trunc").is_err());
            assert!(fs_write("t::io-again").is_ok());
            arm("t::io-again", Action::IoError("gone".into()));
            assert!(fs_write("t::io-again").is_err());
            disarm_all();
        }

        #[test]
        fn nan_injection_swaps_value() {
            let _lock = exclusive();
            disarm_all();
            arm("t::nan", Action::Nan);
            assert!(nan32("t::nan", 1.0).is_nan());
            assert_eq!(nan32("other", 1.0), 1.0);
            disarm_all();
        }

        #[test]
        fn after_threshold_delays_firing() {
            let _lock = exclusive();
            disarm_all();
            // fire on the 3rd hit and afterwards
            arm_after("t::late", Action::IoError("late".into()), 2);
            assert!(io("t::late").is_ok());
            assert!(io("t::late").is_ok());
            assert!(io("t::late").is_err());
            assert!(io("t::late").is_err());
            disarm_all();
        }

        #[test]
        #[should_panic(expected = "failpoint t::panic: boom")]
        fn panic_action_panics_with_message() {
            let _lock = exclusive();
            disarm_all();
            arm("t::panic", Action::Panic("boom".into()));
            let out = std::panic::catch_unwind(|| point("t::panic"));
            disarm_all();
            drop(_lock);
            std::panic::resume_unwind(out.unwrap_err());
        }

        #[test]
        fn spec_parsing_covers_every_action() {
            let parsed = parse_spec(
                "a=io_error;b=io_error(full);c=truncate(9);d=panic(x)@3;e=delay(5);f=nan;g=abort;h=off;i=bogus",
            );
            let by_name: HashMap<_, _> =
                parsed.into_iter().map(|(n, e)| (n, (e.action, e.after))).collect();
            assert_eq!(by_name["a"], (Action::IoError("injected".into()), 0));
            assert_eq!(by_name["b"], (Action::IoError("full".into()), 0));
            assert_eq!(by_name["c"], (Action::Truncate(9), 0));
            assert_eq!(by_name["d"], (Action::Panic("x".into()), 2));
            assert_eq!(by_name["e"], (Action::Delay(Duration::from_millis(5)), 0));
            assert_eq!(by_name["f"], (Action::Nan, 0));
            assert_eq!(by_name["g"], (Action::Abort, 0));
            assert!(!by_name.contains_key("h"));
            assert!(!by_name.contains_key("i"));
        }
    }
}
