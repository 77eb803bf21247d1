//! Fault-injected worker shards, in a process of their own.
//!
//! Failpoints are process-wide: while `pool::shard` is armed, *every* shard of
//! every pool in the process consumes it. Among the pool's unit tests — which
//! drive pools concurrently and do not hold `failpoint::exclusive()` — an
//! armed `Panic` landed in whichever test ran a shard next. Here every test
//! holds the lock, so an armed point is only ever seen by the pool that
//! armed it.

use rmpi_runtime::pool::SHARD_FAILPOINT;
use rmpi_runtime::{PoolError, ThreadPool};
use rmpi_testutil::failpoint::{self, Action};

#[test]
fn delayed_worker_failpoint_only_slows_not_breaks() {
    let _lock = failpoint::exclusive();
    failpoint::arm(SHARD_FAILPOINT, Action::Delay(std::time::Duration::from_millis(5)));
    let out = ThreadPool::new(2).try_map_indexed(4, |i| i).unwrap();
    failpoint::disarm_all();
    assert_eq!(out, vec![0, 1, 2, 3]);
}

#[test]
fn panicking_worker_failpoint_is_isolated() {
    let _lock = failpoint::exclusive();
    // second shard hit panics: with 2 workers that is one whole shard
    failpoint::arm_after(SHARD_FAILPOINT, Action::Panic("injected shard panic".into()), 1);
    let pool = ThreadPool::new(2);
    let err = pool.try_map_indexed(8, |i| i).unwrap_err();
    failpoint::disarm_all();
    let PoolError::WorkerPanicked { message, .. } = &err;
    assert!(message.contains("injected shard panic"), "{err}");
    // the pool carries no state a panic could poison
    assert_eq!(pool.try_map_indexed(3, |i| i).unwrap(), vec![0, 1, 2]);
}
