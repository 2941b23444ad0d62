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
//! * **Key:** `n`, `nnz` and the SHA-256 of the CSR Laplacian (dimensions,
//!   row pointers, column indices, value bits), hashed row by row. The
//!   matrix itself is never copied: at the sweep sizes a copy would be as
//!   large as the reduction it indexes.
//! * **Value:** the reduction (`~8·n²` bytes) and the seconds it took,
//!   which a hit charges to the stage's wall time (see
//!   [`Embedding::reused_seconds`](crate::Embedding::reused_seconds)).
//! * **Retention:** every call of a [`Pipeline`](crate::Pipeline) runner is
//!   one batch and starts a new generation. A lookup stamps its entry with
//!   the current generation; a miss first drops every entry the batch has
//!   not stamped, then reduces. Entries live on through batches that only
//!   hit them, and a batch that misses keeps only its own matrices.
//! * **Scope:** one cache per sweep job, dropped with it. Two concurrent
//!   misses on the same matrix both reduce, which costs time, never bytes.
//!   Under an active fault plan the pipeline does not consult the cache,
//!   so fault decisions and retries see the uncached code path.

use crate::error::Error;
use qsc_json::sha256::Sha256;
use qsc_linalg::{CsrMatrix, HermitianReduction, HermitianSpectrum};
use std::collections::HashMap;
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
    entries: Mutex<HashMap<Key, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    n: usize,
    nnz: usize,
    digest: [u8; 32],
}

impl Key {
    /// Hashes `m` one row at a time: the dimensions, then per row its end
    /// offset (the next row pointer), column indices and value bits.
    fn of(m: &CsrMatrix) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(&(m.nrows() as u64).to_le_bytes());
        hasher.update(&(m.ncols() as u64).to_le_bytes());
        let mut row_bytes = Vec::new();
        let mut end = 0u64;
        for i in 0..m.nrows() {
            let (cols, values) = m.row(i);
            end += cols.len() as u64;
            row_bytes.clear();
            row_bytes.extend_from_slice(&end.to_le_bytes());
            for &j in cols {
                row_bytes.extend_from_slice(&(j as u64).to_le_bytes());
            }
            for z in values {
                row_bytes.extend_from_slice(&z.re.to_bits().to_le_bytes());
                row_bytes.extend_from_slice(&z.im.to_bits().to_le_bytes());
            }
            hasher.update(&row_bytes);
        }
        Key {
            n: m.nrows(),
            nnz: m.nnz(),
            digest: hasher.finalize(),
        }
    }
}

#[derive(Debug)]
struct Entry {
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

    fn entries(&self) -> MutexGuard<'_, HashMap<Key, Entry>> {
        // The map is consistent after every statement that holds the lock,
        // so a panic elsewhere in the holder's thread leaves nothing torn.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The recorded reduction seconds of `laplacian`'s entry, if cached.
    #[cfg(test)]
    pub(crate) fn reduction_seconds(&self, laplacian: &CsrMatrix) -> Option<f64> {
        self.entries()
            .get(&Key::of(laplacian))
            .map(|entry| entry.seconds)
    }

    /// The spectrum of `laplacian`, and the seconds of reduction work a hit
    /// reused (`0.0` on a miss).
    fn spectrum(&self, laplacian: &CsrMatrix) -> Result<(HermitianSpectrum, f64), Error> {
        let key = Key::of(laplacian);
        let generation = self.generation.load(Ordering::Relaxed);
        let hit = self.entries().get_mut(&key).map(|entry| {
            entry.generation = generation;
            (Arc::clone(&entry.reduction), entry.seconds)
        });
        if let Some((reduction, seconds)) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((reduction.spectrum()?, seconds));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.entries()
            .retain(|_, entry| entry.generation == generation);
        let start = Instant::now();
        let reduction = Arc::new(HermitianReduction::new(laplacian.to_dense())?);
        let seconds = start.elapsed().as_secs_f64();
        let spectrum = reduction.spectrum()?;
        self.entries().insert(
            key,
            Entry {
                reduction,
                seconds,
                generation,
            },
        );
        Ok((spectrum, 0.0))
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
    fn key_tells_apart_values_structure_and_dimension() {
        let a = laplacian(30, 2);
        assert_eq!(Key::of(&a), Key::of(&a.clone()));
        assert_ne!(Key::of(&a), Key::of(&laplacian(30, 3)));
        assert_ne!(Key::of(&a), Key::of(&laplacian(31, 2)));
        // One value bit flipped, same sparsity pattern.
        let flipped = a.scaled(qsc_linalg::Complex64::real(1.0 + f64::EPSILON));
        assert_ne!(Key::of(&a), Key::of(&flipped));
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
        let entries = cache.entries();
        assert!(entries.contains_key(&Key::of(&a)));
        assert!(!entries.contains_key(&Key::of(&b)));
        assert!(entries.contains_key(&Key::of(&c)));
        drop(entries);
        assert_eq!(cache.stats(), SpectrumCacheStats { hits: 1, misses: 3 });
    }
}
