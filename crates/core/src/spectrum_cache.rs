//! The per-job spectrum cache: each distinct Laplacian is Householder-reduced
//! once, however many stages of a sweep read its spectrum.
//!
//! A sweep runs many pipelines over the same graphs: a precision axis
//! (QPE bits, tomography shots) re-embeds the same instances, and the
//! classical and quantum variants of a table decompose the same Hermitian
//! Laplacian. A [`SpectrumCache`] attached with
//! [`Pipeline::spectrum_cache`](crate::Pipeline::spectrum_cache) keeps the
//! `O(n³)` half of that work, the [`HermitianReduction`], and every
//! [`DenseEig`](crate::DenseEig) or [`QpeTomography`](crate::QpeTomography)
//! stage on a matrix it has seen re-runs only the `O(n²)` QL recurrence.
//! QL is deterministic, so a hit returns exactly the bits of a fresh solve.
//!
//! * **Key:** the CSR Laplacian itself. A 64-bit hash of its words
//!   (dimensions, row pointers, column indices, value bits; see
//!   [`CsrBits`](qsc_linalg::CsrBits)) picks a bucket, and a hit needs the
//!   entry's stored copy to equal the matrix bit for bit, so a hash
//!   collision costs one comparison, never a wrong spectrum. The copy is
//!   `nnz·24 + n·8` bytes, ~1 MB for the sweeps' n = 400 Laplacians, next
//!   to a reduction of `~8·n²` bytes (`~4·n²` for a real Laplacian).
//! * **Value:** the reduction and the seconds it took, which a hit charges
//!   to the stage's wall time (see
//!   [`Embedding::reused_seconds`](crate::Embedding::reused_seconds)).
//! * **Retention:** every call of a [`Pipeline`](crate::Pipeline) runner is
//!   one batch and starts a new generation. A lookup stamps its entry with
//!   the current generation; a miss first drops every entry the batch has
//!   not stamped, then reduces. Entries live on through batches that only
//!   hit them, and a batch that misses keeps only its own matrices.
//! * **Scope:** one cache per sweep job, dropped with it. Two concurrent
//!   misses on the same matrix both reduce, which costs time, never bytes;
//!   the later one's entry replaces the earlier.
//!   Under an active fault plan the pipeline does not consult the cache,
//!   so fault decisions and retries see the uncached code path.

use crate::error::Error;
use qsc_linalg::{CsrMatrix, HermitianReduction, HermitianSpectrum};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Hit and miss counts of a [`SpectrumCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpectrumCacheStats {
    /// Lookups answered by a stored reduction.
    pub hits: u64,
    /// Lookups that reduced the matrix.
    pub misses: u64,
}

/// A per-job cache of Householder reductions keyed by the exact CSR
/// Laplacian; see the [module docs](self).
#[derive(Debug, Default)]
pub struct SpectrumCache {
    generation: AtomicU64,
    /// Entries by the hash of their Laplacian's words.
    entries: Mutex<HashMap<u64, Vec<Entry>>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Sends every matrix to one bucket, so tests can collide keys.
    #[cfg(test)]
    one_bucket: bool,
}

#[derive(Debug)]
struct Entry {
    /// A copy of the Laplacian the reduction is of.
    laplacian: CsrMatrix,
    reduction: Arc<HermitianReduction>,
    /// Wall-clock seconds the densify + reduction took.
    seconds: f64,
    /// The last generation that looked this entry up (or inserted it).
    generation: u64,
}

impl SpectrumCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hits and misses so far.
    pub fn stats(&self) -> SpectrumCacheStats {
        SpectrumCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Starts a new batch: entries the batch does not look up become
    /// evictable.
    pub(crate) fn next_generation(&self) {
        // Relaxed is enough: a runner bumps before it hands the batch to
        // its workers, and that hand-off orders the bump before their
        // loads. The counter publishes no other data.
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    fn entries(&self) -> MutexGuard<'_, HashMap<u64, Vec<Entry>>> {
        // The map is consistent after every statement that holds the lock,
        // so a panic elsewhere in the holder's thread leaves nothing torn.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The bucket `laplacian`'s entry lives in.
    fn bucket(&self, laplacian: &CsrMatrix) -> u64 {
        #[cfg(test)]
        if self.one_bucket {
            return 0;
        }
        self.hasher.hash_one(laplacian.bits())
    }

    /// The recorded reduction seconds of `laplacian`'s entry, if cached.
    #[cfg(test)]
    pub(crate) fn reduction_seconds(&self, laplacian: &CsrMatrix) -> Option<f64> {
        self.entries()
            .get(&self.bucket(laplacian))?
            .iter()
            .find(|entry| entry.laplacian.bits() == laplacian.bits())
            .map(|entry| entry.seconds)
    }

    /// The spectrum of `laplacian`, and the seconds of reduction work a hit
    /// reused (`0.0` on a miss).
    fn spectrum(&self, laplacian: &CsrMatrix) -> Result<(HermitianSpectrum, f64), Error> {
        let bucket = self.bucket(laplacian);
        let generation = self.generation.load(Ordering::Relaxed);
        let hit = self
            .entries()
            .get_mut(&bucket)
            .and_then(|entries| {
                entries
                    .iter_mut()
                    .find(|entry| entry.laplacian.bits() == laplacian.bits())
            })
            .map(|entry| {
                entry.generation = generation;
                (Arc::clone(&entry.reduction), entry.seconds)
            });
        if let Some((reduction, seconds)) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((reduction.spectrum()?, seconds));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.entries().retain(|_, entries| {
            entries.retain(|entry| entry.generation == generation);
            !entries.is_empty()
        });
        let start = Instant::now();
        let reduction = Arc::new(HermitianReduction::new(laplacian.to_dense())?);
        let seconds = start.elapsed().as_secs_f64();
        let spectrum = reduction.spectrum()?;
        self.store(
            bucket,
            Entry {
                laplacian: laplacian.clone(),
                reduction,
                seconds,
                generation,
            },
        );
        Ok((spectrum, 0.0))
    }

    /// Adds `entry` to `bucket`, replacing an entry of the same matrix that
    /// a concurrent miss stored first.
    fn store(&self, bucket: u64, entry: Entry) {
        let mut entries = self.entries();
        let slot = entries.entry(bucket).or_default();
        match slot
            .iter_mut()
            .find(|held| held.laplacian.bits() == entry.laplacian.bits())
        {
            Some(held) => *held = entry,
            None => slot.push(entry),
        }
    }
}

/// The spectrum of `laplacian` for a dense stage: through the context's
/// cache when it carries one, else a plain [`qsc_linalg::eigh_spectrum`].
/// Also returns the seconds of reduction work a cache hit reused.
pub(crate) fn hermitian_spectrum(
    laplacian: &CsrMatrix,
    cache: Option<&SpectrumCache>,
) -> Result<(HermitianSpectrum, f64), Error> {
    match cache {
        Some(cache) => cache.spectrum(laplacian),
        None => Ok((qsc_linalg::eigh_spectrum(laplacian.to_dense())?, 0.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_graph::generators::{dsbm, DsbmParams};
    use qsc_graph::normalized_hermitian_laplacian_csr;

    fn laplacian(n: usize, seed: u64) -> CsrMatrix {
        let inst = dsbm(&DsbmParams {
            n,
            k: 3,
            seed,
            ..DsbmParams::default()
        })
        .unwrap();
        normalized_hermitian_laplacian_csr(&inst.graph, qsc_graph::Q_CLASSICAL)
    }

    #[test]
    fn a_hit_is_bit_identical_to_a_fresh_solve() {
        let cache = SpectrumCache::new();
        let l = laplacian(40, 1);
        let fresh = qsc_linalg::eigh_spectrum(l.to_dense()).unwrap();
        let (miss, reused_miss) = hermitian_spectrum(&l, Some(&cache)).unwrap();
        let (hit, reused_hit) = hermitian_spectrum(&l, Some(&cache)).unwrap();
        let sel = [0, 1, 2, 39];
        for s in [&miss, &hit] {
            assert_eq!(s.eigenvalues, fresh.eigenvalues);
            assert_eq!(s.eigenvectors(&sel), fresh.eigenvectors(&sel));
        }
        assert_eq!(reused_miss, 0.0);
        assert_eq!(Some(reused_hit), cache.reduction_seconds(&l));
        assert_eq!(cache.stats(), SpectrumCacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn equal_matrices_share_a_bucket() {
        let cache = SpectrumCache::new();
        let a = laplacian(30, 2);
        assert_eq!(cache.bucket(&a), cache.bucket(&a.clone()));
        assert_ne!(cache.bucket(&a), cache.bucket(&laplacian(30, 3)));
        assert_ne!(cache.bucket(&a), cache.bucket(&laplacian(31, 2)));
    }

    /// A 2×2 Hermitian matrix whose off-diagonal entries carry `im` and
    /// `-im`.
    fn with_off_diagonal_im(im: f64) -> CsrMatrix {
        use qsc_linalg::{CMatrix, Complex64};
        let dense = CMatrix::from_fn(2, 2, |i, j| match (i, j) {
            (0, 1) => Complex64::new(0.5, im),
            (1, 0) => Complex64::new(0.5, -im),
            _ => Complex64::real(1.0 + i as f64),
        });
        CsrMatrix::from_dense(&dense, 0.0)
    }

    #[test]
    fn signed_zeros_are_distinct_entries() {
        let (plus, minus) = (with_off_diagonal_im(0.0), with_off_diagonal_im(-0.0));
        // Float `==` cannot tell the two apart; the cache must, whether or
        // not their hashes collide.
        assert_eq!(plus, minus);
        for one_bucket in [false, true] {
            let cache = SpectrumCache {
                one_bucket,
                ..SpectrumCache::default()
            };
            hermitian_spectrum(&plus, Some(&cache)).unwrap();
            hermitian_spectrum(&minus, Some(&cache)).unwrap();
            assert_eq!(cache.stats(), SpectrumCacheStats { hits: 0, misses: 2 });
            hermitian_spectrum(&minus, Some(&cache)).unwrap();
            hermitian_spectrum(&plus, Some(&cache)).unwrap();
            assert_eq!(cache.stats(), SpectrumCacheStats { hits: 2, misses: 2 });
            let entries = cache.entries();
            let stored: usize = entries.values().map(Vec::len).sum();
            assert_eq!(stored, 2, "one bucket: {one_bucket}");
        }
    }

    #[test]
    fn matrices_in_one_bucket_each_get_their_own_spectrum() {
        let cache = SpectrumCache {
            one_bucket: true,
            ..SpectrumCache::default()
        };
        let (a, b) = (laplacian(24, 7), laplacian(24, 8));
        for _ in 0..2 {
            for l in [&a, &b] {
                let fresh = qsc_linalg::eigh_spectrum(l.to_dense()).unwrap();
                let (cached, _) = hermitian_spectrum(l, Some(&cache)).unwrap();
                assert_eq!(cached.eigenvalues, fresh.eigenvalues);
                assert_eq!(
                    cached.eigenvectors(&[0, 1, 2]),
                    fresh.eigenvectors(&[0, 1, 2])
                );
            }
        }
        assert_eq!(cache.stats(), SpectrumCacheStats { hits: 2, misses: 2 });
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[&0].len(), 2);
    }

    #[test]
    fn a_second_store_of_one_matrix_replaces_the_first() {
        // Two concurrent misses on one matrix both reduce it and both
        // store: the cache keeps one entry, the later one.
        let cache = SpectrumCache::new();
        let l = laplacian(20, 9);
        let entry = |seconds| Entry {
            laplacian: l.clone(),
            reduction: Arc::new(HermitianReduction::new(l.to_dense()).unwrap()),
            seconds,
            generation: 0,
        };
        cache.store(cache.bucket(&l), entry(1.0));
        cache.store(cache.bucket(&l), entry(2.0));
        assert_eq!(cache.entries()[&cache.bucket(&l)].len(), 1);
        assert_eq!(cache.reduction_seconds(&l), Some(2.0));
    }

    #[test]
    fn a_miss_evicts_what_the_current_batch_did_not_look_up() {
        let cache = SpectrumCache::new();
        let (a, b, c) = (laplacian(20, 4), laplacian(20, 5), laplacian(20, 6));
        hermitian_spectrum(&a, Some(&cache)).unwrap();
        hermitian_spectrum(&b, Some(&cache)).unwrap();
        cache.next_generation();
        // `a` is looked up in this batch, `b` is not: the miss on `c` drops
        // `b` only.
        hermitian_spectrum(&a, Some(&cache)).unwrap();
        hermitian_spectrum(&c, Some(&cache)).unwrap();
        assert!(cache.reduction_seconds(&a).is_some());
        assert!(cache.reduction_seconds(&b).is_none());
        assert!(cache.reduction_seconds(&c).is_some());
        assert_eq!(cache.entries().len(), 2, "no empty bucket is left behind");
        assert_eq!(cache.stats(), SpectrumCacheStats { hits: 1, misses: 3 });
    }
}
