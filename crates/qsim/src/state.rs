//! Quantum state vectors and the primitive operations on them.

use crate::error::SimError;
use qsc_linalg::kernels;
use qsc_linalg::parallel;
use qsc_linalg::vector::{cdot, norm2};
use qsc_linalg::{CMatrix, Complex64, C_ONE, C_ZERO};
use rand::Rng;
use rayon::prelude::*;

// Every pair-loop below routes through `qsc_linalg::kernels::gate2`, whose
// scalar tier is the reference `gate_pair` arithmetic
// (`x' = g00·x + g01·y`, `y' = g10·x + g11·y`) and whose SIMD tiers
// reproduce it bit-for-bit (see `docs/KERNELS.md`).

/// Number of stride-blocks handed to one parallel task, sized so a task
/// carries at least [`parallel::REDUCE_GRAIN`] amplitudes.
#[inline]
fn blocks_per_task(stride: usize) -> usize {
    (parallel::REDUCE_GRAIN / stride).max(1)
}

// ---------------------------------------------------------------------------
// Flat-buffer kernels shared by the shard and density backends. They apply
// gates by *flat bit position* over a raw amplitude buffer with the exact
// `gate_pair` arithmetic of the state methods below — the bit-identity both
// backends' equivalence claims rest on. (The shard backend passes
// `1 << qubit` within a chunk; the density backend additionally shifts by
// the register width to reach the row side of a vectorized ρ.)
// ---------------------------------------------------------------------------

/// Applies a 2×2 gate over `buf` at flat-bit position `fbit`, pairing
/// indices `(i, i | fbit)`.
pub(crate) fn apply2_flat(buf: &mut [Complex64], g: &[[Complex64; 2]; 2], fbit: usize) {
    let stride = 2 * fbit;
    for chunk in buf.chunks_mut(stride) {
        let (lo, hi) = chunk.split_at_mut(fbit);
        kernels::gate2(g, lo, hi);
    }
}

/// Like [`apply2_flat`], restricted to pairs whose control flat-bit is set.
pub(crate) fn apply_controlled2_flat(
    buf: &mut [Complex64],
    g: &[[Complex64; 2]; 2],
    cfbit: usize,
    tfbit: usize,
) {
    let stride = 2 * tfbit;
    if cfbit < tfbit {
        // The gated offsets form the upper halves of 2·cfbit sub-blocks of
        // each chunk half — same pairs, same ascending order as the
        // per-index branch this replaces.
        for chunk in buf.chunks_mut(stride) {
            let (lo, hi) = chunk.split_at_mut(tfbit);
            for (lc, hc) in lo.chunks_mut(2 * cfbit).zip(hi.chunks_mut(2 * cfbit)) {
                kernels::gate2(g, &mut lc[cfbit..], &mut hc[cfbit..]);
            }
        }
    } else {
        // Control above target: every offset inside a chunk satisfies
        // off < 2·tfbit ≤ cfbit, so the control bit is constant across the
        // chunk and gates it wholesale.
        for (bi, chunk) in buf.chunks_mut(stride).enumerate() {
            if (bi * stride) & cfbit != 0 {
                let (lo, hi) = chunk.split_at_mut(tfbit);
                kernels::gate2(g, lo, hi);
            }
        }
    }
}

/// Swaps two flat bit positions (the same permutation as
/// [`QuantumState::apply_swap`]).
pub(crate) fn swap_bits_flat(buf: &mut [Complex64], abit: usize, bbit: usize) {
    if abit == bbit {
        return;
    }
    for i in 0..buf.len() {
        if i & abit != 0 && i & bbit == 0 {
            buf.swap(i, (i & !abit) | bbit);
        }
    }
}

/// A pure quantum state on `num_qubits` qubits, stored as a dense
/// state vector of `2^num_qubits` complex amplitudes.
///
/// Qubit 0 is the **least significant bit** of the basis-state index.
///
/// # Examples
///
/// ```
/// use qsc_sim::QuantumState;
///
/// # fn main() -> Result<(), qsc_sim::SimError> {
/// let mut state = QuantumState::zero_state(2);
/// state.apply_h(0)?;
/// state.apply_cnot(0, 1)?;          // Bell pair
/// assert!((state.probability(0b00) - 0.5).abs() < 1e-12);
/// assert!((state.probability(0b11) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumState {
    num_qubits: usize,
    amps: Vec<Complex64>,
}

impl QuantumState {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(num_qubits: usize) -> Self {
        let mut amps = vec![C_ZERO; 1 << num_qubits];
        amps[0] = C_ONE;
        Self { num_qubits, amps }
    }

    /// A computational basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        assert!(index < (1 << num_qubits), "basis index out of range");
        let mut amps = vec![C_ZERO; 1 << num_qubits];
        amps[index] = C_ONE;
        Self { num_qubits, amps }
    }

    /// Builds a state from raw amplitudes, normalizing them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotPowerOfTwo`] if the length is not a power of
    /// two, or [`SimError::ZeroNorm`] for an all-zero vector.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Result<Self, SimError> {
        let len = amps.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(SimError::NotPowerOfTwo { len });
        }
        let mut amps = amps;
        let n = norm2(&amps);
        if n == 0.0 {
            return Err(SimError::ZeroNorm);
        }
        for a in &mut amps {
            *a = a.scale(1.0 / n);
        }
        Ok(Self {
            num_qubits: len.trailing_zeros() as usize,
            amps,
        })
    }

    /// Amplitude-encodes a (possibly unnormalized) vector, zero-padding to
    /// the next power of two — the `|x⟩ = Σ x_j|j⟩/‖x‖` data-loading step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroNorm`] for an all-zero vector.
    pub fn amplitude_encode(data: &[Complex64]) -> Result<Self, SimError> {
        if data.is_empty() {
            return Err(SimError::ZeroNorm);
        }
        let dim = data.len().next_power_of_two();
        let mut amps = vec![C_ZERO; dim];
        amps[..data.len()].copy_from_slice(data);
        Self::from_amplitudes(amps)
    }

    /// Builds a state from raw amplitudes **without normalizing** — the
    /// crate-internal constructor backend execution representations use
    /// when their buffer is not an ℓ2-normalized pure state (the
    /// density-matrix backend stores `vec(ρ)`, whose ℓ2 norm is the purity
    /// `√tr(ρ²) ≤ 1`, not 1).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub(crate) fn from_raw(amps: Vec<Complex64>) -> Self {
        let len = amps.len();
        assert!(len > 0 && len.is_power_of_two(), "raw state length {len}");
        Self {
            num_qubits: len.trailing_zeros() as usize,
            amps,
        }
    }

    /// Crate-internal mutable access to the amplitude buffer, for backends
    /// whose kernels operate on the raw flat buffer (shard-parallel chunks,
    /// vectorized density matrices) instead of the gate methods.
    #[inline]
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dimension of the state vector (`2^num_qubits`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Borrows the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Consumes the state, returning its amplitude buffer — how backends
    /// hand buffers back to their [`BufferPool`](crate::backend::BufferPool).
    #[inline]
    pub fn into_amplitudes(self) -> Vec<Complex64> {
        self.amps
    }

    /// Probability of measuring the basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// ℓ2 norm of the state (should be 1 up to numerical drift).
    pub fn norm(&self) -> f64 {
        norm2(&self.amps)
    }

    /// Checks the ℓ2 norm against 1 within `tol` — the numerical-drift
    /// guard backends run after circuit execution. NaN/∞ norms fail too.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NormDrift`] with the measured norm when the
    /// state has drifted (or gone non-finite).
    pub fn check_norm(&self, tol: f64, context: &str) -> Result<(), SimError> {
        let n = self.norm();
        // Written so a NaN norm fails the check (NaN comparisons are false).
        if n.is_finite() && (n - 1.0).abs() <= tol {
            Ok(())
        } else {
            Err(SimError::NormDrift {
                norm: n,
                context: context.to_string(),
            })
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn inner(&self, other: &Self) -> Complex64 {
        cdot(&self.amps, &other.amps)
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &Self) -> f64 {
        self.inner(other).norm_sqr()
    }

    fn check_qubit(&self, qubit: usize) -> Result<(), SimError> {
        if qubit >= self.num_qubits {
            Err(SimError::QubitOutOfRange {
                qubit,
                num_qubits: self.num_qubits,
            })
        } else {
            Ok(())
        }
    }

    /// Applies an arbitrary single-qubit gate `[[a, b], [c, d]]` to `qubit`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad target.
    /// The amplitude pairs `(i, i | 1<<qubit)` are visited directly by bit-
    /// stride arithmetic — `2^(n−1)` pairs, no per-index branch — and are
    /// processed in parallel for large states.
    pub fn apply_single(
        &mut self,
        gate: &[[Complex64; 2]; 2],
        qubit: usize,
    ) -> Result<(), SimError> {
        self.check_qubit(qubit)?;
        let bit = 1usize << qubit;
        let dim = self.amps.len();
        let parallel_run = parallel::should_parallelize(dim);
        if 2 * bit == dim {
            // Top qubit: pairs are (lo[k], hi[k]) across the two halves.
            let (lo, hi) = self.amps.split_at_mut(bit);
            if parallel_run {
                let grain = parallel::REDUCE_GRAIN.min(bit);
                lo.par_chunks_mut(grain)
                    .zip(hi.par_chunks_mut(grain))
                    .for_each(|(lc, hc)| {
                        kernels::gate2(gate, lc, hc);
                    });
            } else {
                kernels::gate2(gate, lo, hi);
            }
            return Ok(());
        }
        // General case: independent blocks of 2·bit amplitudes, each
        // holding `bit` pairs split across its two halves.
        let stride = 2 * bit;
        let run_block = |block: &mut [Complex64]| {
            let (lo, hi) = block.split_at_mut(bit);
            kernels::gate2(gate, lo, hi);
        };
        if parallel_run {
            self.amps
                .par_chunks_mut(stride * blocks_per_task(stride))
                .for_each(|task| {
                    for block in task.chunks_mut(stride) {
                        run_block(block);
                    }
                });
        } else {
            for block in self.amps.chunks_mut(stride) {
                run_block(block);
            }
        }
        Ok(())
    }

    /// Applies a single-qubit gate conditioned on `control` being `|1⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for bad indices or
    /// [`SimError::InvalidParameter`] if control equals target.
    pub fn apply_controlled_single(
        &mut self,
        gate: &[[Complex64; 2]; 2],
        control: usize,
        target: usize,
    ) -> Result<(), SimError> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(SimError::InvalidParameter {
                context: "control equals target".into(),
            });
        }
        let cbit = 1usize << control;
        let tbit = 1usize << target;
        let dim = self.amps.len();
        let parallel_run = parallel::should_parallelize(dim);
        // The 2^(n−2) relevant pairs are reached by bit-stride arithmetic:
        // blocks of 2·tbit amplitudes hold the (i, i|tbit) pairs in their
        // two halves; the control restricts either the offsets inside a
        // block (control below target) or the block indices themselves
        // (control above target).
        if control < target {
            // Offsets with the control bit set form the upper halves of
            // 2·cbit sub-blocks in both halves of each target block.
            let run_block = |block: &mut [Complex64]| {
                let (lo, hi) = block.split_at_mut(tbit);
                for (lc, hc) in lo.chunks_mut(2 * cbit).zip(hi.chunks_mut(2 * cbit)) {
                    kernels::gate2(gate, &mut lc[cbit..], &mut hc[cbit..]);
                }
            };
            if 2 * tbit == dim {
                run_block(&mut self.amps);
            } else {
                let stride = 2 * tbit;
                if parallel_run {
                    self.amps
                        .par_chunks_mut(stride * blocks_per_task(stride))
                        .for_each(|task| {
                            for block in task.chunks_mut(stride) {
                                run_block(block);
                            }
                        });
                } else {
                    for block in self.amps.chunks_mut(stride) {
                        run_block(block);
                    }
                }
            }
        } else {
            // Control above target: whole target blocks are gated by the
            // control bit of their base index. Grouping blocks in pairs of
            // 2·cbit amplitudes, the gated blocks are exactly the upper
            // halves.
            let stride = 2 * tbit;
            let run_block = |block: &mut [Complex64]| {
                let (lo, hi) = block.split_at_mut(tbit);
                kernels::gate2(gate, lo, hi);
            };
            let run_group = |group: &mut [Complex64]| {
                // group covers 2·cbit amplitudes; its upper half has the
                // control bit set.
                let upper = &mut group[cbit..];
                for block in upper.chunks_mut(stride) {
                    run_block(block);
                }
            };
            if 2 * cbit == dim {
                run_group(&mut self.amps);
            } else if parallel_run {
                let gstride = 2 * cbit;
                self.amps
                    .par_chunks_mut(gstride * blocks_per_task(gstride))
                    .for_each(|task| {
                        for group in task.chunks_mut(gstride) {
                            run_group(group);
                        }
                    });
            } else {
                for group in self.amps.chunks_mut(2 * cbit) {
                    run_group(group);
                }
            }
        }
        Ok(())
    }

    /// Hadamard on `qubit`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad target.
    pub fn apply_h(&mut self, qubit: usize) -> Result<(), SimError> {
        self.apply_single(&crate::gates::h(), qubit)
    }

    /// CNOT with the given control and target.
    ///
    /// # Errors
    ///
    /// Same contract as [`apply_controlled_single`](Self::apply_controlled_single).
    pub fn apply_cnot(&mut self, control: usize, target: usize) -> Result<(), SimError> {
        self.apply_controlled_single(&crate::gates::x(), control, target)
    }

    /// Controlled phase gate: multiplies the amplitude by `e^{iθ}` when both
    /// qubits are `|1⟩`.
    ///
    /// # Errors
    ///
    /// Same contract as [`apply_controlled_single`](Self::apply_controlled_single).
    pub fn apply_controlled_phase(
        &mut self,
        control: usize,
        target: usize,
        theta: f64,
    ) -> Result<(), SimError> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(SimError::InvalidParameter {
                context: "control equals target".into(),
            });
        }
        let phase = Complex64::cis(theta);
        let hi_bit = 1usize << control.max(target);
        let lo_bit = 1usize << control.min(target);
        let dim = self.amps.len();
        // Indices with both bits set are the upper halves of 2·lo_bit
        // sub-blocks inside the upper halves of 2·hi_bit blocks — visited
        // by pure stride arithmetic (2^(n−2) amplitudes, no branches).
        let run_group = |group: &mut [Complex64]| {
            // group spans 2·hi_bit amplitudes; its upper half has hi_bit set.
            let upper = &mut group[hi_bit..];
            for sub in upper.chunks_mut(2 * lo_bit) {
                kernels::scale(phase, &mut sub[lo_bit..]);
            }
        };
        if 2 * hi_bit == dim {
            run_group(&mut self.amps);
        } else if parallel::should_parallelize(dim) {
            let gstride = 2 * hi_bit;
            self.amps
                .par_chunks_mut(gstride * blocks_per_task(gstride))
                .for_each(|task| {
                    for group in task.chunks_mut(gstride) {
                        run_group(group);
                    }
                });
        } else {
            for group in self.amps.chunks_mut(2 * hi_bit) {
                run_group(group);
            }
        }
        Ok(())
    }

    /// Swaps two qubits.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for bad indices.
    pub fn apply_swap(&mut self, a: usize, b: usize) -> Result<(), SimError> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        if a == b {
            return Ok(());
        }
        let abit = 1usize << a;
        let bbit = 1usize << b;
        for i in 0..self.amps.len() {
            let has_a = i & abit != 0;
            let has_b = i & bbit != 0;
            if has_a && !has_b {
                let j = (i & !abit) | bbit;
                self.amps.swap(i, j);
            }
        }
        Ok(())
    }

    /// Applies a unitary matrix to the **low block** of qubits
    /// `0..log2(u.nrows())`, i.e. `U ⊗ I` on the remaining high qubits.
    ///
    /// This is the workhorse of matrix-level QPE, where the "system"
    /// register lives in the low qubits and the phase register above it.
    ///
    /// Large states take the cache-blocked matmul route: the state vector
    /// on `t + s` qubits is viewed (for free, no copy) as a `2^t × 2^s`
    /// matrix `S` whose row `b` is amplitude block `b`, and `U ⊗ I` is the
    /// product `S·Uᵀ` — one call into the rayon-parallel, k-tiled kernel
    /// instead of a scratch-buffer loop over blocks. Small states keep the
    /// direct per-block path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `u` is not square with a
    /// power-of-two dimension dividing the state dimension.
    pub fn apply_block_unitary(&mut self, u: &CMatrix) -> Result<(), SimError> {
        let block = u.nrows();
        let dim = self.amps.len();
        if u.is_square() && block.is_power_of_two() && dim.is_multiple_of(block) {
            let num_blocks = dim / block;
            if num_blocks > 1 && parallel::should_parallelize(num_blocks * block * block) {
                // (S·Uᵀ)[b][i] = Σ_k S[b][k]·U[i][k]: identical sums, in the
                // same ascending-k order, as the per-block path below.
                let amps = std::mem::take(&mut self.amps);
                let s = CMatrix::from_vec(num_blocks, block, amps)
                    .expect("state dimension is a multiple of the block size");
                self.amps = s.matmul(&u.transpose()).into_vec();
                return Ok(());
            }
        }
        self.apply_controlled_block_unitary(u, None)
    }

    /// Like [`apply_block_unitary`](Self::apply_block_unitary) but applied
    /// only where the `control` qubit (which must lie above the block) is
    /// `|1⟩`. `None` applies unconditionally.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] for a bad block size or
    /// [`SimError::QubitOutOfRange`] / [`SimError::InvalidParameter`] for a
    /// bad control.
    pub fn apply_controlled_block_unitary(
        &mut self,
        u: &CMatrix,
        control: Option<usize>,
    ) -> Result<(), SimError> {
        let block = u.nrows();
        if !u.is_square() || !block.is_power_of_two() || !self.amps.len().is_multiple_of(block) {
            return Err(SimError::DimensionMismatch {
                context: format!(
                    "block unitary {}×{} on state of dim {}",
                    u.nrows(),
                    u.ncols(),
                    self.amps.len()
                ),
            });
        }
        let block_qubits = block.trailing_zeros() as usize;
        if let Some(c) = control {
            self.check_qubit(c)?;
            if c < block_qubits {
                return Err(SimError::InvalidParameter {
                    context: format!("control {c} lies inside the {block_qubits}-qubit block"),
                });
            }
        }
        let num_blocks = self.amps.len() / block;
        // The block index occupies the high bits; the control bit, expressed
        // in block coordinates, sits at position c − block_qubits.
        let control_block_bit = control.map(|c| 1usize << (c - block_qubits));
        let apply_block = |slice: &mut [Complex64], scratch: &mut [Complex64]| {
            for (i, s) in scratch.iter_mut().enumerate() {
                *s = kernels::dot(u.row(i), slice);
            }
            slice.copy_from_slice(scratch);
        };
        // Work per gated block is block² mul-adds; blocks are independent,
        // so parallelize over groups of blocks with one scratch per task.
        if parallel::should_parallelize(num_blocks * block * block) && num_blocks > 1 {
            let group = blocks_per_task(block);
            self.amps
                .par_chunks_mut(block * group)
                .enumerate()
                .for_each(|(task, chunk)| {
                    let mut scratch = vec![C_ZERO; block];
                    for (db, slice) in chunk.chunks_mut(block).enumerate() {
                        let b = task * group + db;
                        if let Some(cb) = control_block_bit {
                            if b & cb == 0 {
                                continue;
                            }
                        }
                        apply_block(slice, &mut scratch);
                    }
                });
        } else {
            let mut scratch = vec![C_ZERO; block];
            for (b, slice) in self.amps.chunks_mut(block).enumerate() {
                if let Some(cb) = control_block_bit {
                    if b & cb == 0 {
                        continue;
                    }
                }
                apply_block(slice, &mut scratch);
            }
        }
        Ok(())
    }

    /// Applies `f(block_index, block)` to every contiguous block of `block`
    /// amplitudes, in parallel for large states.
    ///
    /// The blocks partition the state vector, so `f` must treat them as
    /// independent (it does not observe other blocks). This is the
    /// building block of diagonal-in-a-block-basis operations such as the
    /// QPE phase cascade.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero or does not divide the state dimension.
    pub fn for_each_block_mut<F>(&mut self, block: usize, f: F)
    where
        F: Fn(usize, &mut [Complex64]) + Sync,
    {
        let dim = self.amps.len();
        assert!(
            block > 0 && dim.is_multiple_of(block),
            "bad block size {block}"
        );
        if parallel::should_parallelize(dim) && dim / block > 1 {
            let group = blocks_per_task(block);
            self.amps
                .par_chunks_mut(block * group)
                .enumerate()
                .for_each(|(task, chunk)| {
                    for (db, slice) in chunk.chunks_mut(block).enumerate() {
                        f(task * group + db, slice);
                    }
                });
        } else {
            for (b, slice) in self.amps.chunks_mut(block).enumerate() {
                f(b, slice);
            }
        }
    }

    /// Marginal probability distribution over the **high** `t` qubits
    /// (qubits `num_qubits − t ..`), tracing out the rest. Returned as a
    /// vector of length `2^t` indexed by the high-bit pattern.
    ///
    /// # Panics
    ///
    /// Panics if `t > num_qubits`.
    pub fn marginal_high(&self, t: usize) -> Vec<f64> {
        assert!(t <= self.num_qubits, "marginal over too many qubits");
        let low = self.num_qubits - t;
        let block = 1usize << low;
        let mut probs = vec![0.0; 1 << t];
        for (i, a) in self.amps.iter().enumerate() {
            probs[i / block] += a.norm_sqr();
        }
        probs
    }

    /// Probability of measuring `|1⟩` on a single qubit.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn probability_of_one(&self, qubit: usize) -> f64 {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let bit = 1usize << qubit;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Measures a single qubit, collapsing the state, and returns the
    /// outcome (`false` = 0, `true` = 1).
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn measure_qubit<R: Rng>(&mut self, qubit: usize, rng: &mut R) -> bool {
        let p1 = self.probability_of_one(qubit);
        let outcome = rng.gen::<f64>() < p1;
        let bit = 1usize << qubit;
        let keep_prob = if outcome { p1 } else { 1.0 - p1 };
        if keep_prob <= 0.0 {
            return outcome; // numerically impossible branch; leave state
        }
        let scale = 1.0 / keep_prob.sqrt();
        for (i, a) in self.amps.iter_mut().enumerate() {
            let is_one = i & bit != 0;
            if is_one == outcome {
                *a = a.scale(scale);
            } else {
                *a = C_ZERO;
            }
        }
        outcome
    }

    /// Expectation value `⟨ψ|A|ψ⟩` of a Hermitian observable on the full
    /// register (returned as the real part; the imaginary part vanishes for
    /// Hermitian `A` up to rounding).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if the observable does not
    /// match the state dimension.
    pub fn expectation(&self, observable: &CMatrix) -> Result<f64, SimError> {
        if observable.nrows() != self.dim() || observable.ncols() != self.dim() {
            return Err(SimError::DimensionMismatch {
                context: format!(
                    "observable {}×{} on state of dim {}",
                    observable.nrows(),
                    observable.ncols(),
                    self.dim()
                ),
            });
        }
        let av = observable.matvec(&self.amps);
        Ok(cdot(&self.amps, &av).re)
    }

    /// Samples one measurement of the full register in the computational
    /// basis; the state is *not* collapsed.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let mut target = rng.gen::<f64>();
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if target < p {
                return i;
            }
            target -= p;
        }
        self.amps.len() - 1
    }

    /// Samples `shots` measurements, returning counts per basis state
    /// (sparse: only observed outcomes appear).
    pub fn sample_counts<R: Rng>(&self, shots: usize, rng: &mut R) -> Vec<(usize, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..shots {
            *counts.entry(self.sample(rng)).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }

    /// Projects onto the subspace where the high `t` qubits equal `value`,
    /// renormalizing. Returns the pre-projection probability of that
    /// outcome, or 0.0 (leaving an unspecified state) if impossible.
    ///
    /// # Panics
    ///
    /// Panics if `t > num_qubits` or `value >= 2^t`.
    pub fn collapse_high(&mut self, t: usize, value: usize) -> f64 {
        assert!(t <= self.num_qubits && value < (1 << t), "bad collapse");
        let low = self.num_qubits - t;
        let block = 1usize << low;
        let mut kept = 0.0;
        for (i, a) in self.amps.iter_mut().enumerate() {
            if i / block == value {
                kept += a.norm_sqr();
            } else {
                *a = C_ZERO;
            }
        }
        if kept > 0.0 {
            let inv = 1.0 / kept.sqrt();
            for a in &mut self.amps {
                *a = a.scale(inv);
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state_is_normalized_basis() {
        let s = QuantumState::zero_state(3);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.probability(0), 1.0);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_amplitudes_normalizes() {
        let s = QuantumState::from_amplitudes(vec![Complex64::real(3.0), Complex64::real(4.0)])
            .unwrap();
        assert!((s.probability(0) - 0.36).abs() < 1e-12);
        assert!((s.probability(1) - 0.64).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_power_of_two_and_zero() {
        assert!(QuantumState::from_amplitudes(vec![C_ONE; 3]).is_err());
        assert!(QuantumState::from_amplitudes(vec![C_ZERO; 4]).is_err());
    }

    #[test]
    fn amplitude_encode_pads() {
        let s = QuantumState::amplitude_encode(&[C_ONE, C_ONE, C_ONE]).unwrap();
        assert_eq!(s.dim(), 4);
        assert!(s.probability(3) < 1e-12);
        assert!((s.probability(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_makes_uniform() {
        let mut s = QuantumState::zero_state(3);
        for q in 0..3 {
            s.apply_h(q).unwrap();
        }
        for i in 0..8 {
            assert!((s.probability(i) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn h_squared_is_identity() {
        let mut s = QuantumState::zero_state(1);
        s.apply_h(0).unwrap();
        s.apply_h(0).unwrap();
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_correlations() {
        let mut s = QuantumState::zero_state(2);
        s.apply_h(0).unwrap();
        s.apply_cnot(0, 1).unwrap();
        assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(s.probability(0b01) < 1e-12);
        assert!(s.probability(0b10) < 1e-12);
    }

    #[test]
    fn controlled_phase_only_on_11() {
        let mut s = QuantumState::from_amplitudes(vec![C_ONE; 4]).unwrap();
        s.apply_controlled_phase(0, 1, std::f64::consts::PI)
            .unwrap();
        let amps = s.amplitudes();
        assert!((amps[3] + Complex64::real(0.5)).abs() < 1e-12); // flipped sign
        assert!((amps[0] - Complex64::real(0.5)).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_bits() {
        let mut s = QuantumState::basis_state(2, 0b01);
        s.apply_swap(0, 1).unwrap();
        assert_eq!(s.probability(0b10), 1.0);
    }

    #[test]
    fn block_unitary_applies_to_low_qubits() {
        // X on the 1-qubit low block of a 2-qubit register = X ⊗ I (on high).
        let xm = CMatrix::from_rows(&[vec![C_ZERO, C_ONE], vec![C_ONE, C_ZERO]]).unwrap();
        let mut s = QuantumState::basis_state(2, 0b10);
        s.apply_block_unitary(&xm).unwrap();
        assert_eq!(s.probability(0b11), 1.0);
    }

    #[test]
    fn controlled_block_unitary_respects_control() {
        let xm = CMatrix::from_rows(&[vec![C_ZERO, C_ONE], vec![C_ONE, C_ZERO]]).unwrap();
        // Control qubit 1 (high), block = qubit 0.
        let mut s0 = QuantumState::basis_state(2, 0b00);
        s0.apply_controlled_block_unitary(&xm, Some(1)).unwrap();
        assert_eq!(s0.probability(0b00), 1.0); // control off: no-op

        let mut s1 = QuantumState::basis_state(2, 0b10);
        s1.apply_controlled_block_unitary(&xm, Some(1)).unwrap();
        assert_eq!(s1.probability(0b11), 1.0); // control on: X applied
    }

    #[test]
    fn control_inside_block_rejected() {
        let id = CMatrix::identity(4);
        let mut s = QuantumState::zero_state(3);
        assert!(s.apply_controlled_block_unitary(&id, Some(1)).is_err());
    }

    #[test]
    fn marginal_high_sums_blocks() {
        let mut s = QuantumState::zero_state(3);
        s.apply_h(2).unwrap(); // high qubit in superposition
        let probs = s.marginal_high(1);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn collapse_high_renormalizes() {
        let mut s = QuantumState::zero_state(2);
        s.apply_h(1).unwrap();
        let p = s.collapse_high(1, 1);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((s.probability(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_distribution_roughly_matches() {
        let mut s = QuantumState::zero_state(1);
        s.apply_h(0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let counts = s.sample_counts(10_000, &mut rng);
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 10_000);
        for (_, c) in counts {
            assert!((c as f64 / 10_000.0 - 0.5).abs() < 0.05);
        }
    }

    #[test]
    fn gates_preserve_norm() {
        let mut rng = StdRng::seed_from_u64(8);
        let amps: Vec<Complex64> = (0..8)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut s = QuantumState::from_amplitudes(amps).unwrap();
        s.apply_h(1).unwrap();
        s.apply_single(&gates::t(), 2).unwrap();
        s.apply_cnot(0, 2).unwrap();
        s.apply_controlled_phase(1, 2, 0.3).unwrap();
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_qubits_error() {
        let mut s = QuantumState::zero_state(2);
        assert!(s.apply_h(2).is_err());
        assert!(s.apply_cnot(0, 5).is_err());
        assert!(s.apply_controlled_phase(0, 0, 1.0).is_err());
    }

    #[test]
    fn probability_of_one_on_plus_state() {
        let mut s = QuantumState::zero_state(2);
        s.apply_h(1).unwrap();
        assert!((s.probability_of_one(1) - 0.5).abs() < 1e-12);
        assert!(s.probability_of_one(0) < 1e-12);
    }

    #[test]
    fn measure_collapses_and_renormalizes() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let mut s = QuantumState::zero_state(2);
            s.apply_h(0).unwrap();
            s.apply_cnot(0, 1).unwrap(); // Bell pair
            let first = s.measure_qubit(0, &mut rng);
            assert!((s.norm() - 1.0).abs() < 1e-12);
            // Bell correlation: the second qubit must agree deterministically.
            let second = s.measure_qubit(1, &mut rng);
            assert_eq!(first, second);
        }
    }

    #[test]
    fn measurement_statistics_match_amplitudes() {
        let mut rng = StdRng::seed_from_u64(18);
        let mut ones = 0usize;
        let trials = 4000;
        for _ in 0..trials {
            let mut s =
                QuantumState::from_amplitudes(vec![Complex64::real(0.6), Complex64::real(0.8)])
                    .unwrap();
            if s.measure_qubit(0, &mut rng) {
                ones += 1;
            }
        }
        let freq = ones as f64 / trials as f64;
        assert!((freq - 0.64).abs() < 0.03, "frequency {freq}");
    }

    #[test]
    fn expectation_of_pauli_z() {
        let zm = CMatrix::from_diag(&[C_ONE, -C_ONE]);
        let zero = QuantumState::zero_state(1);
        assert!((zero.expectation(&zm).unwrap() - 1.0).abs() < 1e-12);
        let mut plus = QuantumState::zero_state(1);
        plus.apply_h(0).unwrap();
        assert!(plus.expectation(&zm).unwrap().abs() < 1e-12);
    }

    #[test]
    fn expectation_checks_dimensions() {
        let s = QuantumState::zero_state(2);
        assert!(s.expectation(&CMatrix::identity(2)).is_err());
    }

    use rand::Rng;
}
