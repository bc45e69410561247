//! The waiting policy's lateness contract, on the clock: a waiter returns
//! within a few hundred nanoseconds of its grant however long it has been
//! waiting. Under the doubling policy this replaced, the median grew with
//! the wait (a grant landing inside a 64–128-hint burst) and failed from
//! 2 µs on.
//!
//! Timing-sensitive, hence `#[ignore]`; `scripts/ci.sh` runs it alone:
//! `cargo test --release -p clof-locks --test lateness -- --ignored --test-threads=1`.

use std::hint::spin_loop;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use clof_locks::{CachePadded, NoContext, RawLock, TicketLock, WaitWord, SPIN_FOREVER};

const TRIALS: u64 = 300;
const WAITS: [Duration; 3] = [
    Duration::from_nanos(500),
    Duration::from_micros(2),
    Duration::from_micros(3),
];
const MAX_MEDIAN_NS: u64 = 400;

/// Median, over [`TRIALS`] hand-offs, of the time from just before the
/// granter's `grant()` to just after the waiter's `wait()` returns, when
/// the grant comes `delay` after the waiter started waiting. Each trial
/// the granter runs `hold()` first (making `wait()` block) and the waiter
/// runs `done()` last.
fn median_lateness_ns(
    delay: Duration,
    hold: impl Fn(),
    grant: impl Fn(),
    wait: impl Fn() + Sync,
    done: impl Fn() + Sync,
) -> u64 {
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    // Each on a line of its own: the handshake must not slow the hand-off.
    let [ready, waiting, returned_at] = [(); 3].map(|()| CachePadded::new(AtomicU64::new(0)));
    let mut lateness = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            for trial in 1..=TRIALS {
                while ready.load(Ordering::Acquire) != trial {
                    spin_loop();
                }
                waiting.store(trial, Ordering::Release);
                wait();
                returned_at.store(now_ns(), Ordering::Release);
                done();
            }
        });
        for trial in 1..=TRIALS {
            hold();
            ready.store(trial, Ordering::Release);
            while waiting.load(Ordering::Acquire) != trial {
                spin_loop();
            }
            let waited = Instant::now();
            while waited.elapsed() < delay {
                spin_loop();
            }
            let granted_at = now_ns();
            grant();
            let returned = loop {
                match returned_at.load(Ordering::Acquire) {
                    0 => spin_loop(),
                    at => break at,
                }
            };
            returned_at.store(0, Ordering::Relaxed);
            lateness.push(returned.saturating_sub(granted_at));
        }
    });
    lateness.sort_unstable();
    lateness[lateness.len() / 2]
}

fn assert_bounded(what: &str, median_for: impl Fn(Duration) -> u64) {
    let medians: Vec<u64> = WAITS.iter().map(|&d| median_for(d)).collect();
    let report = format!("{what}: median grant-to-return {medians:?} ns after waits of {WAITS:?}");
    println!("{report}");
    assert!(
        medians.iter().all(|&m| m <= MAX_MEDIAN_NS),
        "{report} exceeds {MAX_MEDIAN_NS} ns"
    );
}

#[test]
#[ignore = "timing-sensitive: run alone, see the module docs"]
fn wait_word_returns_promptly_however_long_it_waited() {
    let word = CachePadded::new(WaitWord::new_go());
    assert_bounded("WaitWord", |delay| {
        median_lateness_ns(
            delay,
            || word.prime(),
            // SAFETY: `word` outlives the call.
            || unsafe { WaitWord::release_raw(&*word) },
            || word.wait(SPIN_FOREVER),
            || (),
        )
    });
}

#[test]
#[ignore = "timing-sensitive: run alone, see the module docs"]
fn ticket_lock_returns_promptly_however_long_it_waited() {
    let lock = CachePadded::new(TicketLock::default());
    assert_bounded("TicketLock", |delay| {
        median_lateness_ns(
            delay,
            || lock.acquire(&mut NoContext),
            || lock.release(&mut NoContext),
            || lock.acquire(&mut NoContext),
            || lock.release(&mut NoContext),
        )
    });
}
