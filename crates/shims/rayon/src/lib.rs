//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the subset of the rayon API the workspace uses: `par_iter()` over `Vec`s
//! with `map` / `collect` / `reduce`. Parallelism is real
//! — chunks are distributed over `std::thread::scope` threads — but there is
//! no work stealing. A global thread budget keeps *nested* parallel calls
//! (e.g. recursive tree walks) from spawning unbounded threads: once the
//! budget is exhausted, inner calls degrade to sequential execution, which
//! is exactly the grain coarsening a work-stealing pool converges to.
//!
//! Ordering guarantee (matches rayon): `collect` preserves input order, and
//! `reduce` combines per-chunk partials left-to-right, so integer reductions
//! are deterministic regardless of how many threads participate.

use std::sync::atomic::{AtomicIsize, Ordering};

/// Worker threads still available to *additional* parallel calls. The main
/// thread always works, so the budget is `available_parallelism - 1`.
static SPARE_THREADS: AtomicIsize = AtomicIsize::new(-1);

fn acquire_workers(wanted: usize) -> usize {
    if SPARE_THREADS.load(Ordering::Relaxed) == -1 {
        let par = std::thread::available_parallelism()
            .map(|n| n.get() as isize)
            .unwrap_or(4);
        // Two threads whose first parallel calls overlap can both see -1.
        // Only the first initialises: a plain store from the second would
        // overwrite a budget the first has already drawn from, leaving it
        // one thread too high for the rest of the process.
        let _ = SPARE_THREADS.compare_exchange(-1, par - 1, Ordering::Relaxed, Ordering::Relaxed);
    }
    let mut granted = 0;
    while granted < wanted {
        let cur = SPARE_THREADS.load(Ordering::Relaxed);
        if cur <= 0 {
            break;
        }
        if SPARE_THREADS
            .compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            granted += 1;
        }
    }
    granted
}

fn release_workers(n: usize) {
    SPARE_THREADS.fetch_add(n as isize, Ordering::Relaxed);
}

/// Force the spare-thread budget (the analogue of rayon's
/// `ThreadPoolBuilder::num_threads`, for tests and benches): `0` makes every
/// parallel call run sequentially; `n` lets up to `n` helper threads spawn
/// even on machines reporting fewer cores. Deterministic algorithms must
/// produce bit-identical output either way — that is exactly what
/// thread-count differential tests use this hook to prove. Call it only
/// while no parallel work is in flight; in-flight calls release workers back
/// into whatever budget is current.
pub fn set_spare_thread_budget(spare: usize) {
    SPARE_THREADS.store(spare as isize, Ordering::Relaxed);
}

/// Parallel ordered map: `out[i] = f(&items[i])`.
fn parallel_map<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.iter().map(f).collect();
    }
    let extra = acquire_workers((n - 1).min(64));
    if extra == 0 {
        return items.iter().map(f).collect();
    }
    let threads = extra + 1;
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut slots: Vec<&mut [Option<R>]> = out.chunks_mut(chunk).collect();
    let chunks: Vec<&'a [T]> = items.chunks(chunk).collect();
    std::thread::scope(|scope| {
        // The main thread takes the first chunk; helpers take the rest.
        let (first_slot, rest_slots) = slots.split_at_mut(1);
        let mut helpers = Vec::new();
        for (slot, work) in rest_slots.iter_mut().zip(&chunks[1..]) {
            let work: &'a [T] = work;
            let slot: &mut [Option<R>] = slot;
            helpers.push(scope.spawn(move || {
                for (s, item) in slot.iter_mut().zip(work) {
                    *s = Some(f(item));
                }
            }));
        }
        for (s, item) in first_slot[0].iter_mut().zip(chunks[0]) {
            *s = Some(f(item));
        }
        for h in helpers {
            h.join().expect("parallel worker panicked");
        }
    });
    release_workers(extra);
    out.into_iter().map(|r| r.expect("slot filled")).collect()
}

/// Borrowing conversion into a parallel iterator (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Element type yielded by reference.
    type Item: Sync + 'a;
    /// Start a parallel pipeline over `&self`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A parallel iterator over a slice.
#[derive(Debug)]
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Apply `f` to every element in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The result of [`ParIter::map`]: a mapped parallel pipeline.
#[derive(Debug)]
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    fn run(self) -> Vec<R> {
        parallel_map(self.items, &self.f)
    }

    /// Collect mapped values in input order.
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        C::from_par_vec(self.run())
    }

    /// Fold mapped values with `op`, starting from `identity()`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R,
        OP: Fn(R, R) -> R,
    {
        self.run().into_iter().fold(identity(), op)
    }
}

/// Collections constructible from an ordered parallel pipeline.
pub trait FromParallelIterator<T> {
    /// Build from the already-ordered mapped values.
    fn from_par_vec(v: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_par_vec(v: Vec<T>) -> Self {
        v
    }
}

/// The traits user code imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..10_000).collect();
        let ys: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(ys, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_matches_sequential() {
        let xs: Vec<u64> = (1..=1000).collect();
        let total = xs.par_iter().map(|&x| x).reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 500_500);
    }

    #[test]
    fn nested_parallelism_degrades_gracefully() {
        let outer: Vec<u64> = (0..64).collect();
        let sums: Vec<u64> = outer
            .par_iter()
            .map(|&o| {
                let inner: Vec<u64> = (0..64).collect();
                inner.par_iter().map(|&i| o + i).reduce(|| 0, |a, b| a + b)
            })
            .collect();
        let expect: Vec<u64> = (0..64).map(|o| (0..64).map(|i| o + i).sum()).collect();
        assert_eq!(sums, expect);
    }
}
