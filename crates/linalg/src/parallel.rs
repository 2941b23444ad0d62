//! Shared policy for the data-parallel kernels.
//!
//! Every parallel kernel in `qsc-linalg` (and, through re-export, in
//! `qsc-sim`) gates on [`should_parallelize`]: below the work threshold the
//! serial reference path runs, because thread-pool dispatch costs more than
//! the kernel itself on the small matrices the pipeline mostly handles.
//!
//! Two invariants the kernels maintain:
//!
//! * **Thread-count independence** — every output element is written by
//!   exactly one task with a fixed per-element operation order, so the
//!   partitioning (which *may* depend on the worker count, see
//!   [`row_block`]) cannot affect results; floating-point *reductions*
//!   additionally use the fixed [`REDUCE_GRAIN`] chunking with partials
//!   folded in chunk order, so they too are identical whether 1 or 64
//!   threads run. The latter guarantee is a property of the compat rayon
//!   shim's ordered `reduce`; real rayon combines partials in a
//!   nondeterministic tree order, so swapping it in keeps every kernel
//!   correct but relaxes norm reductions to ~1-ulp run-to-run variance.
//! * **Serial equivalence** — the parallel kernels perform the same
//!   floating-point operations in the same per-element order as the serial
//!   reference, so (except where documented, e.g. chunked norm reductions)
//!   they are bit-identical to it. The property tests in
//!   `tests/parallel_kernels.rs` enforce agreement to 1e-12 on random
//!   inputs.
//!
//! The SIMD tiers in [`crate::kernels`] preserve both invariants: every
//! dispatched kernel performs exactly the scalar operations in the scalar
//! operand order (no FMA, no reassociation), so the tier in use — like the
//! thread count — cannot change a single output bit.

use rayon::prelude::*;

/// Number of scalar mul-adds below which a kernel stays serial.
///
/// Chosen so a kernel goes parallel only once it is comfortably past the
/// ~10 µs cost of dispatching work to the pool.
pub const PAR_WORK_THRESHOLD: usize = 1 << 16;

/// Fixed element grain for chunked reductions (norms).
///
/// Kept constant (not derived from the thread count) so chunked
/// floating-point reductions give identical results on every machine —
/// unlike [`row_block`], which may scale with the worker count because the
/// kernels using it write disjoint outputs where partitioning cannot
/// affect values.
pub const REDUCE_GRAIN: usize = 1 << 14;

/// Number of worker threads the parallel kernels will use.
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

/// `true` when a kernel performing `work` scalar operations should take its
/// parallel path.
#[inline]
pub fn should_parallelize(work: usize) -> bool {
    work >= PAR_WORK_THRESHOLD && num_threads() > 1
}

/// Row-block size for parallelizing a kernel over `nrows` rows of `row_work`
/// scalar operations each: the largest block that still yields useful
/// parallelism, with at least [`REDUCE_GRAIN`] work per task.
pub fn row_block(nrows: usize, row_work: usize) -> usize {
    let min_rows = REDUCE_GRAIN.div_ceil(row_work.max(1));
    nrows
        .div_ceil(4 * num_threads().max(1))
        .max(min_rows)
        .max(1)
}

/// `[f(0), …, f(len − 1)]`, evaluated on the pool one index per task.
///
/// Ordered parallel collection via an indexed slot vector: the rayon compat
/// shim only exposes the `par_chunks(_mut)` surface (no `par_iter`), and
/// this shape is also valid under real rayon, keeping the planned
/// shim→rayon swap a pure dependency change.
pub fn map_indexed<T: Send>(len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    slots
        .par_chunks_mut(1)
        .enumerate()
        .for_each(|(i, slot)| slot[0] = Some(f(i)));
    slots
        .into_iter()
        // Every slot was written by the parallel loop above.
        .map(|slot| slot.expect("map_indexed slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_respects_small_work() {
        assert!(!should_parallelize(16));
    }

    #[test]
    fn row_block_is_positive_and_covers() {
        for nrows in [1usize, 7, 64, 4096] {
            for row_work in [1usize, 100, 100_000] {
                let b = row_block(nrows, row_work);
                assert!(b >= 1);
                assert!(b.div_ceil(1) * nrows.div_ceil(b) >= nrows / b);
            }
        }
    }
}
