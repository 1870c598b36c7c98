//! Sparse Cholesky factorization with a fill-reducing ordering.
//!
//! The direct-solver floor for the plan layer: grid Laplacians are SPD
//! with a fixed sparsity pattern across restamps, so the expensive
//! symbolic work — ordering, elimination tree, the pattern of `L` — is
//! done **once** per pattern ([`SymbolicCholesky`], the factorization
//! analogue of [`PatternCache`](crate::PatternCache)) and every
//! value-only restamp pays only the numeric refactorization
//! ([`SparseCholesky::refactor`]). Solves are exact (no iteration-count
//! variance) and batched right-hand sides share one pass over `L`
//! ([`SparseCholesky::solve_block_into`]).
//!
//! The ordering is reverse Cuthill–McKee (RCM): on the near-planar mesh
//! patterns the power-grid models produce it keeps fill within a narrow
//! band at a fraction of the implementation weight of approximate
//! minimum degree, and it is deterministic — ties break on node index,
//! so the same pattern always yields the same permutation, which the
//! bitwise repeatability contracts require.
//!
//! ```
//! use vpd_numeric::{CooMatrix, SparseCholesky};
//!
//! # fn main() -> Result<(), vpd_numeric::NumericError> {
//! let mut coo = CooMatrix::new(3, 3);
//! for i in 0..3 {
//!     coo.push(i, i, 2.0);
//! }
//! coo.push(0, 1, -1.0);
//! coo.push(1, 0, -1.0);
//! let a = coo.to_csr();
//! let mut chol = SparseCholesky::factor(&a)?;
//! let x = chol.solve(&[1.0, 0.0, 2.0])?;
//! assert!((a.matvec(&x)[0] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use crate::{CsrMatrix, NumericError};

/// Sentinel for "no parent" in the elimination tree and "unvisited" in
/// traversals.
const NONE: usize = usize::MAX;

fn require_square(a: &CsrMatrix) -> Result<usize, NumericError> {
    if a.rows() != a.cols() {
        return Err(NumericError::DimensionMismatch {
            expected: "square matrix".into(),
            found: format!("{}x{}", a.rows(), a.cols()),
        });
    }
    Ok(a.rows())
}

/// Computes a reverse Cuthill–McKee ordering of a symmetric sparsity
/// pattern, returning `perm` with `perm[new] = old`.
///
/// Only the row patterns of `a` are read; structural symmetry is the
/// caller's contract (as for [`CholeskyFactor`](crate::CholeskyFactor)).
/// Each connected component is traversed breadth-first from its
/// minimum-degree node, neighbours visited in (degree, index) order, and
/// the concatenated visit order is reversed — deterministic by
/// construction, so a fixed pattern always maps to the same permutation.
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if `a` is not square.
pub fn rcm_ordering(a: &CsrMatrix) -> Result<Vec<usize>, NumericError> {
    let n = require_square(a)?;
    let degree: Vec<usize> = (0..n)
        .map(|r| a.row_entries(r).filter(|&(c, _)| c != r).count())
        .collect();

    // Component seeds in (degree, index) order so the lowest-degree node
    // of each component starts its BFS.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_unstable_by_key(|&i| (degree[i], i));

    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let mut neighbours: Vec<usize> = Vec::new();
    for &seed in &seeds {
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            neighbours.clear();
            neighbours.extend(a.row_entries(u).map(|(c, _)| c).filter(|&c| !visited[c]));
            neighbours.sort_unstable_by_key(|&c| (degree[c], c));
            for &c in &neighbours {
                // The sort can list a node once, but an earlier neighbour
                // in this same batch never re-marks it; only cross-batch
                // duplicates are possible and `visited` already gates them.
                visited[c] = true;
                queue.push_back(c);
            }
        }
    }
    order.reverse();
    Ok(order)
}

/// The symbolic half of a sparse Cholesky factorization: fill-reducing
/// permutation, elimination tree, and the exact sparsity pattern of the
/// factor `L` — everything that depends only on the matrix *pattern*.
///
/// Computed once per pattern and reused across every numeric
/// [`SparseCholesky::refactor`], exactly as
/// [`PatternCache`](crate::PatternCache) caches assembly: the plan layer
/// compiles it alongside the stamp program and pays only `O(flops(L))`
/// numeric work per restamp.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymbolicCholesky {
    n: usize,
    /// Fill-reducing permutation, `perm[new] = old`.
    perm: Vec<usize>,
    /// Inverse permutation, `iperm[old] = new`.
    iperm: Vec<usize>,
    /// Elimination tree over permuted indices (`NONE` marks a root).
    parent: Vec<usize>,
    /// Column pointers of `L` (CSC, length `n + 1`).
    col_ptr: Vec<usize>,
    /// Row indices of `L` per column: the diagonal first, then strictly
    /// ascending rows.
    row_idx: Vec<usize>,
    /// `nnz` of the analyzed matrix, to cheaply reject refactoring with a
    /// structurally different one.
    a_nnz: usize,
}

impl SymbolicCholesky {
    /// Analyzes the pattern of a square matrix: RCM ordering, elimination
    /// tree, and the column-compressed pattern of `L`.
    ///
    /// Only the pattern of `a` is read; values are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `a` is not square.
    pub fn analyze(a: &CsrMatrix) -> Result<Self, NumericError> {
        Ok(Self::analyze_within(a, usize::MAX)?.expect("an uncapped analysis always completes"))
    }

    /// As [`SymbolicCholesky::analyze`], but gives up with `None` when
    /// `L` would hold more than `max_factor_nnz` entries. The entry count
    /// is known after the elimination-tree pass, before `L`'s pattern is
    /// allocated, so a refused analysis costs `O(n + nnz(A))` memory
    /// however large the factor would have been.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `a` is not square.
    pub fn analyze_within(
        a: &CsrMatrix,
        max_factor_nnz: usize,
    ) -> Result<Option<Self>, NumericError> {
        let n = require_square(a)?;
        let perm = rcm_ordering(a)?;
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }

        // Permuted strictly-lower row patterns: lower[k] holds the new
        // column indices j < k of row k of P·A·Pᵀ. Unsorted is fine —
        // both the tree construction and ereach dedupe via marks.
        let lower: Vec<Vec<usize>> = (0..n)
            .map(|k| {
                a.row_entries(perm[k])
                    .map(|(c, _)| iperm[c])
                    .filter(|&j| j < k)
                    .collect()
            })
            .collect();

        // Elimination tree (Liu): walk each A-row entry up through
        // path-compressed ancestors; the first unset ancestor gets k as
        // parent.
        let mut parent = vec![NONE; n];
        let mut ancestor = vec![NONE; n];
        for k in 0..n {
            for &j in &lower[k] {
                let mut i = j;
                while i != NONE && i != k {
                    let next = ancestor[i];
                    ancestor[i] = k;
                    if next == NONE {
                        parent[i] = k;
                    }
                    i = next;
                }
            }
        }

        // Pattern of L via ereach per row: pass 1 counts entries per
        // column, pass 2 fills them. Rows land in each column in
        // ascending k automatically.
        let mut count = vec![1usize; n]; // the diagonal of each column
        let mut flag = vec![NONE; n];
        for k in 0..n {
            flag[k] = k;
            for &j in &lower[k] {
                let mut i = j;
                while flag[i] != k {
                    flag[i] = k;
                    count[i] += 1;
                    i = match parent[i] {
                        NONE => break,
                        p => p,
                    };
                }
            }
        }
        if count.iter().sum::<usize>() > max_factor_nnz {
            return Ok(None);
        }
        let mut col_ptr = vec![0usize; n + 1];
        for j in 0..n {
            col_ptr[j + 1] = col_ptr[j] + count[j];
        }
        let mut row_idx = vec![0usize; col_ptr[n]];
        let mut cursor: Vec<usize> = (0..n).map(|j| col_ptr[j]).collect();
        for (j, cur) in cursor.iter_mut().enumerate() {
            row_idx[*cur] = j; // diagonal first
            *cur += 1;
        }
        flag.fill(NONE);
        for k in 0..n {
            flag[k] = k;
            for &j in &lower[k] {
                let mut i = j;
                while flag[i] != k {
                    flag[i] = k;
                    row_idx[cursor[i]] = k;
                    cursor[i] += 1;
                    i = match parent[i] {
                        NONE => break,
                        p => p,
                    };
                }
            }
        }

        Ok(Some(Self {
            n,
            perm,
            iperm,
            parent,
            col_ptr,
            row_idx,
            a_nnz: a.nnz(),
        }))
    }

    /// Dimension of the analyzed system.
    #[must_use]
    pub const fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries in the factor `L` (including the
    /// diagonal).
    #[must_use]
    pub fn factor_nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Fill ratio `nnz(L) / nnz(tril(A))` — how much the factor grew
    /// beyond the lower triangle of the analyzed matrix. Near 1.0 means
    /// the ordering kept fill negligible.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        // A is structurally symmetric: tril(A) has (nnz + n) / 2 entries
        // when every diagonal is present (grid Laplacians qualify).
        let tril = (self.a_nnz + self.n).div_ceil(2);
        self.row_idx.len() as f64 / tril.max(1) as f64
    }

    /// The fill-reducing permutation (`perm[new] = old`).
    #[must_use]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }
}

/// A sparse Cholesky factorization `P·A·Pᵀ = L·Lᵀ` with cached symbolic
/// structure and re-usable numeric workspaces.
///
/// Built once per sparsity pattern; [`SparseCholesky::refactor`] restamps
/// the numeric factor for new values (skipping the work entirely when the
/// values are bitwise-unchanged), and the solve family reuses the factor
/// across any number of right-hand sides. [`SparseCholesky::solve_into`]
/// and [`SparseCholesky::solve_block_into`] run the same substitution
/// kernel, so a k-column block solve is bitwise-identical to k sequential
/// single solves against the same factor.
#[derive(Clone, Debug)]
pub struct SparseCholesky {
    sym: SymbolicCholesky,
    /// Values of `L`, aligned with `sym.row_idx`.
    lx: Vec<f64>,
    /// Whether `lx` currently holds a valid factor.
    factored: bool,
    /// Bitwise copy of the matrix values behind the current factor, so a
    /// restamp that reproduced the same values skips refactorization.
    last_values: Vec<f64>,
    /// Dense accumulator for the up-looking factorization; all-zero
    /// between rows.
    x: Vec<f64>,
    /// Visit marks for ereach (`flag[i] == k` means "seen for row k").
    flag: Vec<usize>,
    /// Shared ereach stack: paths grow from the front, the topological
    /// result grows from the back.
    stack: Vec<usize>,
    /// Next free slot per column while the factorization appends rows.
    cpos: Vec<usize>,
    /// Interleaved right-hand-side scratch for the substitution kernel.
    rhs: Vec<f64>,
}

impl SparseCholesky {
    /// Analyzes and numerically factors `a` in one call.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` is not square.
    /// * [`NumericError::NotPositiveDefinite`] if the (permuted) matrix
    ///   is not SPD; the reported pivot is the **original** row index.
    pub fn factor(a: &CsrMatrix) -> Result<Self, NumericError> {
        let sym = SymbolicCholesky::analyze(a)?;
        Self::factor_with(a, sym)
    }

    /// Numerically factors `a` against a previously computed symbolic
    /// analysis — the plan-layer path, where the analysis is cached at
    /// compile time and the first solve supplies the values.
    ///
    /// # Errors
    ///
    /// As for [`SparseCholesky::factor`], plus
    /// [`NumericError::DimensionMismatch`] if `a` does not match the
    /// analyzed pattern's shape or entry count.
    pub fn factor_with(a: &CsrMatrix, sym: SymbolicCholesky) -> Result<Self, NumericError> {
        let n = sym.n;
        let nnz_l = sym.row_idx.len();
        let mut chol = Self {
            sym,
            lx: vec![0.0; nnz_l],
            factored: false,
            last_values: Vec::new(),
            x: vec![0.0; n],
            flag: vec![NONE; n],
            stack: vec![0; n],
            cpos: vec![0; n],
            rhs: Vec::new(),
        };
        chol.refactor(a)?;
        Ok(chol)
    }

    /// Recomputes the numeric factor for a value-only restamp of the
    /// analyzed pattern.
    ///
    /// When the new values are **bitwise identical** to the ones behind
    /// the current factor the refactorization is skipped outright — the
    /// common case for sweeps that only move the right-hand side
    /// (setpoint changes, load profiles), where the per-solve cost drops
    /// to two triangular substitutions.
    ///
    /// Pattern identity (same builder, same push order) is the caller's
    /// contract, as for [`CsrMatrix::update_values`]; shape and entry
    /// count are checked.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` has a different
    ///   shape or entry count than the analyzed matrix.
    /// * [`NumericError::NotPositiveDefinite`] if factorization breaks
    ///   down; the factor is invalidated until a later refactor succeeds,
    ///   and the reported pivot is the **original** row index.
    pub fn refactor(&mut self, a: &CsrMatrix) -> Result<(), NumericError> {
        let n = self.sym.n;
        if a.rows() != n || a.cols() != n || a.nnz() != self.sym.a_nnz {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{}x{} matrix with {} entries", n, n, self.sym.a_nnz),
                found: format!("{}x{} matrix with {} entries", a.rows(), a.cols(), a.nnz()),
            });
        }
        let values = a.values();
        if self.factored
            && self.last_values.len() == values.len()
            && self
                .last_values
                .iter()
                .zip(values)
                .all(|(old, new)| old.to_bits() == new.to_bits())
        {
            return Ok(());
        }
        self.factored = false;

        let sym = &self.sym;
        for j in 0..n {
            self.cpos[j] = sym.col_ptr[j] + 1;
        }
        self.flag.fill(NONE);
        // x is all-zero here: cleared entry-by-entry as each row consumes
        // its pattern (and wholesale on a failed previous attempt).
        for k in 0..n {
            self.flag[k] = k;
            // Scatter row k of P·A·Pᵀ (columns ≤ k) into the accumulator
            // and collect its ereach — the nonzero pattern of L's row k —
            // in topological order at the back of the shared stack.
            let mut top = n;
            let mut d = 0.0;
            for (c, v) in a.row_entries(sym.perm[k]) {
                let j = sym.iperm[c];
                if j > k {
                    continue;
                }
                if j == k {
                    d = v;
                    continue;
                }
                self.x[j] = v;
                let mut len = 0;
                let mut i = j;
                while self.flag[i] != k {
                    self.flag[i] = k;
                    self.stack[len] = i;
                    len += 1;
                    i = match sym.parent[i] {
                        NONE => break,
                        p => p,
                    };
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    self.stack[top] = self.stack[len];
                }
            }

            // Up-looking elimination of row k against the columns in its
            // reach, oldest first.
            for t in top..n {
                let j = self.stack[t];
                let jstart = sym.col_ptr[j];
                let lkj = self.x[j] / self.lx[jstart];
                self.x[j] = 0.0;
                for p in (jstart + 1)..self.cpos[j] {
                    self.x[sym.row_idx[p]] -= self.lx[p] * lkj;
                }
                d -= lkj * lkj;
                debug_assert_eq!(sym.row_idx[self.cpos[j]], k, "symbolic pattern drift");
                self.lx[self.cpos[j]] = lkj;
                self.cpos[j] += 1;
            }
            if d <= 0.0 || d.is_nan() {
                // Leave no stale accumulator entries behind for the next
                // attempt, and report the pivot in original coordinates.
                self.x.fill(0.0);
                self.last_values.clear();
                return Err(NumericError::NotPositiveDefinite {
                    pivot: sym.perm[k],
                    value: d,
                });
            }
            self.lx[sym.col_ptr[k]] = d.sqrt();
        }

        self.last_values.clear();
        self.last_values.extend_from_slice(values);
        self.factored = true;
        Ok(())
    }

    /// The cached symbolic analysis.
    #[must_use]
    pub fn symbolic(&self) -> &SymbolicCholesky {
        &self.sym
    }

    /// Dimension of the factored system.
    #[must_use]
    pub const fn dim(&self) -> usize {
        self.sym.n
    }

    /// Whether a valid numeric factor is currently held.
    #[must_use]
    pub const fn is_factored(&self) -> bool {
        self.factored
    }

    fn require_factored(&self) -> Result<(), NumericError> {
        if self.factored {
            Ok(())
        } else {
            // The last refactor failed (or never ran): the factor values
            // are unusable. Surface it as a singular-factor condition.
            Err(NumericError::Singular { pivot: 0 })
        }
    }

    /// Solves `A·x = b`, allocating the result.
    ///
    /// # Errors
    ///
    /// As for [`SparseCholesky::solve_into`].
    pub fn solve(&mut self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut x = b.to_vec();
        self.solve_into(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` in place: `x` holds the right-hand side on entry
    /// and the solution on return ([C-CALLER-CONTROL]).
    ///
    /// Runs the block kernel with `k = 1`, so a sequence of single solves
    /// is bitwise-identical to the same columns solved through
    /// [`SparseCholesky::solve_block_into`].
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `x` has the wrong length.
    /// * [`NumericError::Singular`] if no valid numeric factor is held
    ///   (the last [`SparseCholesky::refactor`] failed).
    pub fn solve_into(&mut self, x: &mut [f64]) -> Result<(), NumericError> {
        self.solve_block_into(x, 1)
    }

    /// Solves `A·X = B` for a block of `k` right-hand sides stored
    /// column-major in `block` (`block[c*n..(c+1)*n]` is column `c`),
    /// in place.
    ///
    /// The factor `L` is streamed **once** for all `k` columns: the block
    /// is transposed into an interleaved layout (the `k` values of one
    /// row adjacent), the two triangular substitutions run with a
    /// unit-stride inner loop over the columns, and the result is
    /// transposed back. Per-column arithmetic order is independent of
    /// `k`, so block results match single solves bitwise.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `block.len() != n·k` or
    ///   `k == 0` with a non-empty block.
    /// * [`NumericError::Singular`] if no valid numeric factor is held.
    pub fn solve_block_into(&mut self, block: &mut [f64], k: usize) -> Result<(), NumericError> {
        self.require_factored()?;
        let n = self.sym.n;
        if block.len() != n * k {
            return Err(NumericError::DimensionMismatch {
                expected: format!("block of {n}x{k} = {} values", n * k),
                found: format!("{} values", block.len()),
            });
        }
        if k == 0 {
            return Ok(());
        }
        // Permute and interleave: rhs[i*k + c] = block[c*n + perm[i]].
        self.rhs.resize(n * k, 0.0);
        for i in 0..n {
            let old = self.sym.perm[i];
            for c in 0..k {
                self.rhs[i * k + c] = block[c * n + old];
            }
        }

        let sym = &self.sym;
        // Forward substitution L·Y = B, column-oriented over the CSC
        // factor; the inner loops run contiguously over the k columns.
        for j in 0..n {
            let jstart = sym.col_ptr[j];
            let diag = self.lx[jstart];
            for c in 0..k {
                self.rhs[j * k + c] /= diag;
            }
            for p in (jstart + 1)..sym.col_ptr[j + 1] {
                let r = sym.row_idx[p];
                let l = self.lx[p];
                let (head, tail) = self.rhs.split_at_mut(r * k);
                let yj = &head[j * k..j * k + k];
                let yr = &mut tail[..k];
                for c in 0..k {
                    yr[c] -= l * yj[c];
                }
            }
        }
        // Back substitution Lᵀ·X = Y: gather along each column of L.
        for j in (0..n).rev() {
            let jstart = sym.col_ptr[j];
            for p in (jstart + 1)..sym.col_ptr[j + 1] {
                let r = sym.row_idx[p];
                let l = self.lx[p];
                let (head, tail) = self.rhs.split_at_mut(r * k);
                let yj = &mut head[j * k..j * k + k];
                let yr = &tail[..k];
                for c in 0..k {
                    yj[c] -= l * yr[c];
                }
            }
            let diag = self.lx[jstart];
            for c in 0..k {
                self.rhs[j * k + c] /= diag;
            }
        }
        // De-interleave and un-permute.
        for i in 0..n {
            let old = self.sym.perm[i];
            for c in 0..k {
                block[c * n + old] = self.rhs[i * k + c];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CholeskyFactor, CooMatrix, DenseMatrix};

    /// 2-D grid Laplacian with a ground leak on every node — SPD, and the
    /// same shape as the power-grid systems the plan layer produces.
    fn grid_laplacian(side: usize, g: f64, leak: f64) -> CsrMatrix {
        let n = side * side;
        let mut coo = CooMatrix::new(n, n);
        let idx = |r: usize, c: usize| r * side + c;
        for r in 0..side {
            for c in 0..side {
                let i = idx(r, c);
                let mut diag = leak;
                let link = |coo: &mut CooMatrix, j: usize| {
                    coo.push(i, j, -g);
                };
                if r > 0 {
                    link(&mut coo, idx(r - 1, c));
                    diag += g;
                }
                if r + 1 < side {
                    link(&mut coo, idx(r + 1, c));
                    diag += g;
                }
                if c > 0 {
                    link(&mut coo, idx(r, c - 1));
                    diag += g;
                }
                if c + 1 < side {
                    link(&mut coo, idx(r, c + 1));
                    diag += g;
                }
                coo.push(i, i, diag);
            }
        }
        coo.to_csr()
    }

    fn dense_of(a: &CsrMatrix) -> DenseMatrix {
        DenseMatrix::from_fn(a.rows(), a.rows(), |i, j| a.get(i, j))
    }

    #[test]
    fn rcm_is_a_permutation_and_reduces_bandwidth() {
        let a = grid_laplacian(8, 1.0, 0.1);
        let perm = rcm_ordering(&a).unwrap();
        let mut seen = [false; 64];
        for &p in &perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        // Natural (row-major) bandwidth of an 8x8 mesh is 8; RCM must not
        // exceed it and typically matches it on a square mesh.
        let b = a.permuted(&perm).unwrap();
        let mut bw = 0usize;
        for r in 0..64 {
            for (c, _) in b.row_entries(r) {
                bw = bw.max(r.abs_diff(c));
            }
        }
        assert!(bw <= 8, "RCM bandwidth {bw} worse than natural ordering");
    }

    #[test]
    fn capped_analysis_refuses_exactly_above_the_cap() {
        let a = grid_laplacian(9, 1.0, 0.1);
        let full = SymbolicCholesky::analyze(&a).unwrap();
        let nnz = full.factor_nnz();
        assert_eq!(
            SymbolicCholesky::analyze_within(&a, nnz).unwrap(),
            Some(full)
        );
        assert_eq!(SymbolicCholesky::analyze_within(&a, nnz - 1).unwrap(), None);
    }

    #[test]
    fn rcm_is_deterministic() {
        let a = grid_laplacian(6, 2.0, 0.05);
        assert_eq!(rcm_ordering(&a).unwrap(), rcm_ordering(&a).unwrap());
    }

    #[test]
    fn factor_solves_grid_system() {
        let a = grid_laplacian(7, 1.5, 0.2);
        let n = a.rows();
        let mut chol = SparseCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let x = chol.solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn matches_dense_cholesky_oracle() {
        let a = grid_laplacian(5, 1.0, 0.3);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut sparse = SparseCholesky::factor(&a).unwrap();
        let xs = sparse.solve(&b).unwrap();
        let xd = CholeskyFactor::new(&dense_of(&a))
            .unwrap()
            .solve(&b)
            .unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn refactor_tracks_new_values_and_skips_unchanged() {
        let a1 = grid_laplacian(6, 1.0, 0.1);
        let a2 = grid_laplacian(6, 3.0, 0.4); // same pattern, new values
        let n = a1.rows();
        let b = vec![1.0; n];
        let mut chol = SparseCholesky::factor(&a1).unwrap();
        let x1 = chol.solve(&b).unwrap();

        chol.refactor(&a2).unwrap();
        let x2 = chol.solve(&b).unwrap();
        let ax = a2.matvec(&x2);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-10);
        }

        // Back to the original values: results must be bitwise-identical
        // to the first factorization, whether recomputed or skipped.
        chol.refactor(&a1).unwrap();
        let x3 = chol.solve(&b).unwrap();
        for (a, b) in x1.iter().zip(&x3) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And a refactor with identical values is a no-op (same factor
        // object, still bitwise-equal solves).
        chol.refactor(&a1).unwrap();
        let x4 = chol.solve(&b).unwrap();
        for (a, b) in x3.iter().zip(&x4) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn block_solve_matches_sequential_bitwise() {
        let a = grid_laplacian(7, 2.0, 0.15);
        let n = a.rows();
        let k = 5;
        let mut chol = SparseCholesky::factor(&a).unwrap();
        let mut block: Vec<f64> = (0..n * k).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let columns: Vec<Vec<f64>> = (0..k).map(|c| block[c * n..(c + 1) * n].to_vec()).collect();
        chol.solve_block_into(&mut block, k).unwrap();
        for (c, col) in columns.iter().enumerate() {
            let x = chol.solve(col).unwrap();
            for i in 0..n {
                assert_eq!(
                    x[i].to_bits(),
                    block[c * n + i].to_bits(),
                    "column {c}, row {i}"
                );
            }
        }
    }

    #[test]
    fn indefinite_matrix_reports_original_pivot_and_poisons_factor() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 4.0);
        coo.push(1, 1, -1.0); // indefinite here
        coo.push(2, 2, 2.0);
        let bad = coo.to_csr();
        match SparseCholesky::factor(&bad) {
            Err(NumericError::NotPositiveDefinite { pivot, value }) => {
                assert_eq!(pivot, 1, "pivot must be reported in original coordinates");
                assert!(value <= 0.0);
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }

        // A factor poisoned by a failed refactor refuses to solve, then
        // recovers when valid values return.
        let mut good = CooMatrix::new(3, 3);
        good.push(0, 0, 4.0);
        good.push(1, 1, 1.0);
        good.push(2, 2, 2.0);
        let good = good.to_csr();
        let mut chol = SparseCholesky::factor(&good).unwrap();
        assert!(chol.refactor(&bad).is_err());
        assert!(!chol.is_factored());
        assert!(chol.solve(&[1.0, 1.0, 1.0]).is_err());
        chol.refactor(&good).unwrap();
        let x = chol.solve(&[4.0, 1.0, 2.0]).unwrap();
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_shape_and_pattern_mismatches() {
        let a = grid_laplacian(4, 1.0, 0.1);
        let other = grid_laplacian(5, 1.0, 0.1);
        let mut chol = SparseCholesky::factor(&a).unwrap();
        assert!(chol.refactor(&other).is_err());
        assert!(chol.solve(&[0.0; 3]).is_err());
        let mut block = vec![0.0; 7];
        assert!(chol.solve_block_into(&mut block, 2).is_err());
    }

    #[test]
    fn disconnected_components_factor_fine() {
        // Two independent 2-node chains with leaks.
        let mut coo = CooMatrix::new(4, 4);
        for (i, j) in [(0usize, 1usize), (2, 3)] {
            coo.push(i, i, 1.5);
            coo.push(j, j, 1.5);
            coo.push(i, j, -1.0);
            coo.push(j, i, -1.0);
        }
        let a = coo.to_csr();
        let mut chol = SparseCholesky::factor(&a).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = chol.solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn symbolic_reports_fill() {
        let a = grid_laplacian(10, 1.0, 0.1);
        let sym = SymbolicCholesky::analyze(&a).unwrap();
        assert_eq!(sym.dim(), 100);
        assert!(sym.factor_nnz() >= (a.nnz() + 100) / 2);
        assert!(sym.fill_ratio() >= 1.0);
        // RCM keeps mesh fill within the band: nnz(L) ≤ n · (bandwidth+1).
        assert!(sym.factor_nnz() <= 100 * 12);
    }
}
