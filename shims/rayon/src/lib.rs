//! Offline stand-in for `rayon` built on `std::thread::scope`.
//!
//! Covers the data-parallel slice this workspace uses: `par_iter()` /
//! `into_par_iter()` on slices, `Vec`s, and `Range<usize>`, followed by
//! `map(...)` and an order-preserving `collect()` (into `Vec<T>` or
//! `Result<Vec<T>, E>`), plus `join` and `current_num_threads`.
//!
//! Semantics that callers may rely on:
//!
//! * **Deterministic ordering** — `collect()` returns results in input
//!   order regardless of thread interleaving (same guarantee as rayon's
//!   indexed parallel iterators).
//! * **Eager evaluation** — `map` runs when `collect` is called; a
//!   `Result` collect does not short-circuit remaining items (unlike
//!   rayon), it just returns the first error in input order.
//! * **Panic propagation** — a panicking closure panics the caller with
//!   the closure's own payload.
//!
//! Thread count comes from `RAYON_NUM_THREADS` or
//! `available_parallelism()`; with one thread everything runs inline on
//! the calling thread with identical results. The calling thread maps
//! items too, beside one spawned thread fewer. The items wait in one
//! queue, and each thread claims shrinking runs of them, which balances
//! uneven items the way rayon's work stealing does.
//!
//! Swap the workspace dependency back to crates.io `rayon` when network
//! access is available.

use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};

/// The number of worker threads parallel operations will use.
#[must_use]
pub fn current_num_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon-shim: joined closure panicked"))
    })
}

fn parallel_map<T: Send, U: Send>(items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    map_on(current_num_threads(), items, f)
}

/// Maps `items` on up to `threads` threads, the caller among them. The
/// items wait in one queue; each thread claims runs of them, a quarter of
/// its share of what is left and at least one item, so runs shrink and
/// the threads finish together however uneven the items are. Each run
/// maps into a part of its own; the parts join in input order.
fn map_on<T: Send, U: Send>(threads: usize, items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    let len = items.len();
    let workers = threads.min(len);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter());
    let claim = || {
        // Nothing panics while the lock is held.
        let mut left = queue.lock().unwrap_or_else(PoisonError::into_inner);
        let (start, size) = (len - left.len(), (left.len() / (4 * workers)).max(1));
        (start, left.by_ref().take(size).collect::<Vec<T>>())
    };
    let work = |mut run: (usize, Vec<T>)| {
        let mut parts = Vec::new();
        while !run.1.is_empty() {
            parts.push((run.0, run.1.into_iter().map(&f).collect::<Vec<U>>()));
            run = claim();
        }
        parts
    };
    let mut parts = std::thread::scope(|s| {
        // Each helper is handed its first run: a map always fans out.
        let helpers: Vec<_> = (1..workers)
            .map(|_| claim())
            .map(|first| s.spawn(move || work(first)))
            .collect();
        let mut parts = work(claim());
        for helper in helpers {
            parts.extend(helper.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        parts
    });
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(len);
    for (_, part) in parts {
        out.extend(part);
    }
    out
}

/// An in-flight parallel iterator (materialized item list).
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps every item through `f` (runs in parallel at `collect`).
    pub fn map<U: Send, F: Fn(T) -> U + Sync + Send>(self, f: F) -> MapParIter<T, U, F> {
        MapParIter {
            items: self.items,
            f,
            _out: std::marker::PhantomData,
        }
    }

    /// Accepted for rayon API parity; chunking is automatic here.
    #[must_use]
    pub fn with_min_len(self, _len: usize) -> Self {
        self
    }

    /// Collects the items (no-op map).
    pub fn collect<C: FromParIter<T>>(self) -> C {
        C::from_ordered(self.items)
    }
}

/// A mapped parallel iterator, ready to collect.
pub struct MapParIter<T, U, F> {
    items: Vec<T>,
    f: F,
    _out: std::marker::PhantomData<fn() -> U>,
}

impl<T: Send, U: Send, F: Fn(T) -> U + Sync + Send> MapParIter<T, U, F> {
    /// Accepted for rayon API parity; chunking is automatic here.
    #[must_use]
    pub fn with_min_len(self, _len: usize) -> Self {
        self
    }

    /// Executes the map across worker threads and collects in input
    /// order.
    pub fn collect<C: FromParIter<U>>(self) -> C {
        C::from_ordered(parallel_map(self.items, self.f))
    }
}

/// Conversion from an ordered item list (mirror of
/// `rayon::iter::FromParallelIterator`).
pub trait FromParIter<T> {
    /// Builds the collection from items already in input order.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T> FromParIter<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParIter<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Types convertible into an owning parallel iterator.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Types whose references iterate in parallel (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed element type.
    type Item: Send + 'a;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ordering_is_preserved() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 3).collect();
        let expected: Vec<u64> = (0..1000).map(|x| x * 3).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn ordering_with_forced_threads() {
        // Claimed runs must come back in input order even when the work
        // per item is skewed.
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let out: Vec<usize> = (0..503)
            .into_par_iter()
            .map(|i| {
                if i % 97 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                i * 2
            })
            .collect();
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(out, (0..503).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn result_collect_takes_first_error_in_order() {
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let out: Result<Vec<u32>, String> = (0..100)
            .into_par_iter()
            .map(|i| {
                if i % 30 == 29 {
                    Err(format!("e{i}"))
                } else {
                    Ok(i as u32)
                }
            })
            .collect();
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(out, Err("e29".to_owned()));
    }

    /// The thread counts the run-claiming tests cover.
    const THREADS: [usize; 3] = [2, 3, 4];

    #[test]
    fn skewed_runs_keep_input_order() {
        for threads in THREADS {
            // The first items are slow, so later runs finish first.
            let out = super::map_on(threads, (0..503).collect(), |i: usize| {
                if i < 8 || i.is_multiple_of(97) {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i * 2
            });
            assert_eq!(out, (0..503).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tiny_inputs_and_more_threads_than_items() {
        for threads in THREADS {
            for len in 0..=2 {
                let out = super::map_on(threads, (0..len).collect(), |i: usize| i + 1);
                assert_eq!(out, (1..=len).collect::<Vec<_>>());
            }
        }
        assert_eq!(super::map_on(16, vec![7, 8, 9], |i: i32| -i), [-7, -8, -9]);
    }

    #[test]
    fn helpers_map_even_the_fastest_items() {
        // Each helper is handed its first run, so a parallel map always
        // leaves the calling thread, as the spans of traced sweeps expect.
        let caller = std::thread::current().id();
        for threads in THREADS {
            let ids = super::map_on(threads, (0..threads).collect(), |_: usize| {
                std::thread::current().id()
            });
            let helpers = ids.iter().filter(|&&id| id != caller).count();
            assert!(helpers >= threads - 1, "{ids:?}");
        }
    }

    #[test]
    fn non_copy_items_move_through() {
        for threads in THREADS {
            let items: Vec<String> = (0..100).map(|i| format!("item{i}")).collect();
            let out = super::map_on(threads, items, |s: String| s + "!");
            let expected: Vec<String> = (0..100).map(|i| format!("item{i}!")).collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn first_error_in_input_order_wins() {
        for threads in THREADS {
            // Item 29 is slow, so later errors are made before it.
            let out = super::map_on(threads, (0..100).collect(), |i: u32| {
                if i == 29 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                if i % 30 == 29 {
                    Err(format!("e{i}"))
                } else {
                    Ok(i)
                }
            });
            let collected: Result<Vec<u32>, String> = super::FromParIter::from_ordered(out);
            assert_eq!(collected, Err("e29".to_owned()));
        }
    }

    #[test]
    fn a_panicking_closure_panics_the_caller() {
        for threads in THREADS {
            let caught = std::panic::catch_unwind(|| {
                super::map_on(threads, (0..50).collect(), |i: usize| {
                    assert!(i != 37, "item {i} failed");
                    i
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("item 37 failed"));
        }
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
    }
}
