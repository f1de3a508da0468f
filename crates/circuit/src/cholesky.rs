//! Sparse LDLᵀ (Cholesky) factorization for symmetric positive-definite
//! systems — the solver of the DC power grid.
//!
//! The DC power-grid matrix (pads eliminated, gmin on the diagonal) is
//! SPD by construction, so it never needs the partial pivoting the
//! general LU in [`crate::sparse`] pays for, and
//! [`crate::grid_dc::DcGridSolver`] factors it here at every size. Every
//! way in reads a compressed-column matrix: the grid passes the one it
//! restamps in place (its stamp map), while
//! [`SparseMatrix::factor_cholesky`] and
//! [`CholeskyFactorization::refactor`] first compress their triplets.
//! This module factors `P·A·Pᵀ = L·D·Lᵀ` with:
//!
//! * a fill-reducing AMD permutation ([`crate::ordering::amd`], the
//!   flat-workspace layout of Davis's `cs_amd`),
//! * a **symbolic phase** run once per sparsity pattern — elimination
//!   tree, postorder, exact per-column fill counts, the row pattern of
//!   `L`, and its fundamental supernodes (runs of etree-chained columns
//!   that share one below-block row structure), with every numeric
//!   workspace sized exactly — so [`CholeskyFactorization::refactor`] is
//!   numeric-only, like the LU path's factor-once/refactor split, and
//! * a supernodal **multifrontal numeric phase**. In postorder, each
//!   supernode assembles a dense frontal matrix from `A` and its
//!   children's update matrices, factors its pivot block densely, and
//!   leaves the update `C −= L·D·Lᵀ` for its parent on a LIFO stack. The
//!   update runs a register-blocked 4×4 kernel over packed panels; narrow
//!   fronts take a scalar loop inside the same kernel.
//!
//! `L` keeps the compressed-column pattern a scalar factorization would
//! produce: supernodes only decide how the numeric phase walks it, so no
//! relaxed amalgamation adds fill (DESIGN.md §12).
//!
//! ```
//! use hotwire_circuit::sparse::SparseMatrix;
//!
//! let mut m = SparseMatrix::zeros(3);
//! for i in 0..3 {
//!     m.add(i, i, 2.0);
//! }
//! m.add(0, 1, -1.0);
//! m.add(1, 0, -1.0);
//! let f = m.factor_cholesky()?;
//! let x = f.solve(&[1.0, 0.0, 4.0]);
//! assert!((2.0 * x[2] - 4.0).abs() < 1e-12);
//! # Ok::<(), hotwire_circuit::CircuitError>(())
//! ```

use crate::ordering::{amd, etree, postorder};
use crate::sparse::{Csc, SparseMatrix};
use crate::CircuitError;
use hotwire_obs::metrics;

/// Sentinel for "no node" in u32 index arrays.
const NONE: u32 = u32::MAX;

/// `D` pivots at or below this magnitude are treated as "not positive
/// definite" (matches `PIVOT_TINY` on the LU path).
const PIVOT_TINY: f64 = 1e-300;

/// Pivot columns factored per panel before the trailing update runs.
const PANEL: usize = 64;

/// Fronts whose first panel has fewer columns than [`BLOCKED_MIN_COLS`]
/// or leaves fewer rows than this below it take the scalar pass:
/// packing would cost more than the register blocking saves.
const BLOCKED_MIN_ROWS: usize = 8;

/// See [`BLOCKED_MIN_ROWS`].
const BLOCKED_MIN_COLS: usize = 2;

impl SparseMatrix {
    /// Factors `P·A·Pᵀ = L·D·Lᵀ` with AMD ordering.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotPositiveDefinite`] when the matrix is
    /// not symmetric with a strictly positive diagonal (an O(nnz) check
    /// made before any counter fires) or a pivot of `D` comes out
    /// non-positive. Unsymmetric or indefinite systems belong to the
    /// pivoting LU, [`SparseMatrix::factor`].
    pub fn factor_cholesky(&self) -> Result<CholeskyFactorization, CircuitError> {
        CholeskyFactorization::factor_csc(&self.to_csc())
    }

    /// Alias of [`SparseMatrix::factor_cholesky`] (whose numeric phase
    /// is serial), kept for callers that name the serial factorization.
    ///
    /// # Errors
    ///
    /// As [`SparseMatrix::factor_cholesky`].
    pub fn factor_cholesky_serial(&self) -> Result<CholeskyFactorization, CircuitError> {
        self.factor_cholesky()
    }
}

/// A sparse LDLᵀ factorization `P·A·Pᵀ = L·D·Lᵀ`.
///
/// The *symbolic* state — AMD permutation, the pattern of `L`, its
/// supernodes and the numeric workspace — is retained, so
/// [`CholeskyFactorization::refactor`] refreshes only the numeric values
/// from a same-pattern matrix, exactly like the LU path.
#[derive(Debug, Clone)]
pub struct CholeskyFactorization {
    n: usize,
    /// `perm[k]` = original index of the k-th pivot.
    perm: Vec<u32>,
    /// `pinv[orig] = pivot position`.
    pinv: Vec<u32>,
    /// Strictly-lower `L` by column, rows ascending, in pivot space.
    l_colptr: Vec<usize>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    /// The diagonal of `D`.
    d: Vec<f64>,
    /// Supernode `s` spans pivot columns `super_ptr[s]..super_ptr[s + 1]`;
    /// its below-block rows are those of its last column.
    super_ptr: Vec<usize>,
    work: Workspace,
}

/// Numeric-phase scratch, sized exactly by the symbolic phase and reused
/// by every [`CholeskyFactorization::refactor`].
#[derive(Debug, Clone)]
struct Workspace {
    /// One buffer, used as a stack: the update matrices awaiting their
    /// parent (each packed lower-triangular by columns, LIFO in
    /// postorder), then the current front just above them (packed the
    /// same way), then the two packed panels of the blocked update.
    buf: Vec<f64>,
    /// Last pivot column of each supernode whose update is on the stack.
    pending: Vec<usize>,
    /// Pivot row → its position in the current front.
    pos: Vec<u32>,
    /// A child's update rows, as positions in the parent's front.
    rel: Vec<usize>,
}

impl CholeskyFactorization {
    /// The dimension `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nonzeros in `L + D` (fill-in diagnostic, comparable with the LU
    /// path's [`crate::sparse::Factorization::nnz`]).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.n
    }

    /// The fill-reducing permutation (`perm[k]` = original index of the
    /// k-th pivot).
    #[must_use]
    pub fn ordering(&self) -> &[u32] {
        &self.perm
    }

    /// Column pointers of strictly-lower `L` in pivot space: column `k`
    /// owns entries `l_col_ptr()[k]..l_col_ptr()[k + 1]`.
    #[must_use]
    pub fn l_col_ptr(&self) -> &[usize] {
        &self.l_colptr
    }

    /// Row indices of strictly-lower `L` (pivot space, ascending within
    /// each column) — with [`CholeskyFactorization::l_col_ptr`], the
    /// symbolic pattern tests check against an independent elimination.
    #[must_use]
    pub fn l_row_indices(&self) -> &[u32] {
        &self.l_rows
    }

    /// Supernode boundaries: supernode `s` spans pivot columns
    /// `supernodes()[s]..supernodes()[s + 1]`, and all of them share the
    /// below-block rows of the last one.
    #[must_use]
    pub fn supernodes(&self) -> &[usize] {
        &self.super_ptr
    }

    /// The values of strictly-lower `L`, column-major — exposed so tests
    /// can compare factorizations bit for bit.
    #[must_use]
    pub fn l_values(&self) -> &[f64] {
        &self.l_vals
    }

    /// The diagonal of `D`, in pivot order.
    #[must_use]
    pub fn diagonal(&self) -> &[f64] {
        &self.d
    }

    /// Smallest |dₖ| of the LDLᵀ diagonal, the grid's pivot-health
    /// gauge: a collapse toward zero means the grid is drifting toward
    /// singular (floating nodes, vanishing conductances).
    #[must_use]
    pub fn min_pivot(&self) -> f64 {
        self.d.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min)
    }

    /// Recomputes the numeric factor from a matrix with the **same
    /// sparsity pattern** (same stamping structure): no ordering and no
    /// symbolic work, and no allocation beyond assembling the matrix.
    /// [`crate::grid_dc::DcGridSolver`] refactors this way on every
    /// solve after its first.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotPositiveDefinite`] when the new values
    /// are no longer SPD, and [`CircuitError::Singular`] when the matrix
    /// has an entry outside the factored pattern. The factor is
    /// overwritten in place, so an error leaves its numeric values
    /// invalid: `D` is filled with NaN, and every solve returns NaN until
    /// a later refactor succeeds. The symbolic analysis survives. The
    /// ordering depends on the pattern alone, so after
    /// `NotPositiveDefinite` a fresh factorization of the same values
    /// fails the same way; only an entry outside the pattern calls for
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension differs from the factored one.
    pub fn refactor(&mut self, matrix: &SparseMatrix) -> Result<(), CircuitError> {
        assert_eq!(matrix.n(), self.n, "refactor dimension mismatch");
        self.refactor_csc(&matrix.to_csc())
    }

    /// Factors the compressed-column matrix `a` (rows sorted, no
    /// duplicates): the SPD screen, the ordering, the symbolic analysis
    /// and the numeric phase. [`SparseMatrix::factor_cholesky`] reaches
    /// it after its own `to_csc`; [`crate::grid_dc::DcGridSolver`] passes
    /// the matrix it restamps in place.
    pub(crate) fn factor_csc(a: &Csc) -> Result<Self, CircuitError> {
        let n = a.col_ptr.len() - 1;
        if !spd_candidate(n, a) {
            return Err(CircuitError::NotPositiveDefinite { row: 0 });
        }
        metrics::counter("solver.chol.factor").inc();
        let _t = hotwire_obs::trace::span("solver.chol.factor_time");
        let mut f = {
            let _o = hotwire_obs::trace::span("solver.chol.ordering_time");
            Self::analyze(n, a)
        };
        f.numeric(a)?;
        f.publish_fill();
        Ok(f)
    }

    /// The numeric refactor of [`CholeskyFactorization::refactor`] from
    /// a compressed-column matrix of the factored dimension and pattern.
    pub(crate) fn refactor_csc(&mut self, a: &Csc) -> Result<(), CircuitError> {
        metrics::counter("solver.chol.refactor").inc();
        let _t = hotwire_obs::trace::span("solver.chol.refactor_time");
        self.numeric(a)?;
        self.publish_fill();
        Ok(())
    }

    fn publish_fill(&self) {
        #[allow(clippy::cast_precision_loss)]
        metrics::gauge("solver.chol.fill_nnz").set(self.nnz() as f64);
    }

    /// The symbolic phase: ordering, the pattern of `L`, its supernodes,
    /// and a workspace sized for the numeric phase. Numeric values are
    /// zero until [`CholeskyFactorization::numeric`] runs.
    fn analyze(n: usize, a: &Csc) -> Self {
        // AMD on the full symmetric pattern, then postorder the
        // elimination tree so subtrees — and supernodes — are contiguous
        // column ranges, and every supernode's children finish just
        // before it.
        let perm0 = amd(n, &a.col_ptr, &a.row_idx);
        let (post, parent0) = {
            let au0 = permuted_upper(n, a, &inverse(&perm0));
            let parent0 = etree(n, &au0.col_ptr, &au0.row_idx);
            (postorder(&parent0), parent0)
        };
        let perm: Vec<u32> = post.iter().map(|&k| perm0[k as usize]).collect();
        drop(perm0);
        let pinv = inverse(&perm);
        // A postorder relabels the tree without changing it: in the new
        // numbering parent[k] > k.
        let parent: Vec<u32> = {
            let post_inv = inverse(&post);
            post.iter()
                .map(|&k| match parent0[k as usize] {
                    NONE => NONE,
                    p => post_inv[p as usize],
                })
                .collect()
        };
        drop((post, parent0));
        let au = permuted_upper(n, a, &pinv);
        let l_colptr = l_counts(&au, &parent);
        let super_ptr = fundamental_supernodes(&parent, &l_colptr);

        // Replay the numeric phase's stack discipline to size every
        // workspace exactly.
        let (mut buf, mut max_rows, mut depth) = (0, 0, 0);
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut top = 0;
        for w in super_ptr.windows(2) {
            let (f, l) = (w[0], w[1]);
            let (ns, m) = (l - f, l_colptr[l] - l_colptr[l - 1]);
            let nf = ns + m;
            let pack = if blocked(ns, nf) {
                // The first panel packs the most: later ones are no wider
                // and leave fewer rows below them.
                let kb = ns.min(PANEL);
                2 * (nf - kb).next_multiple_of(4) * kb
            } else {
                0
            };
            buf = buf.max(top + packed_len(nf) + pack);
            max_rows = max_rows.max(m);
            while let Some(&(child, size)) = pending.last() {
                if parent[child] as usize != f {
                    break;
                }
                pending.pop();
                top -= size;
            }
            if m > 1 {
                pending.push((l - 1, packed_len(m)));
                top += packed_len(m);
                depth = depth.max(pending.len());
            }
        }
        // The numeric storage first, then the row pattern (whose fill pass
        // allocates its own scratch).
        let l_vals = vec![0.0; l_colptr[n]];
        let d = vec![0.0; n];
        let work = Workspace {
            buf: vec![0.0; buf],
            pending: Vec::with_capacity(depth),
            pos: vec![0; n],
            rel: vec![0; max_rows],
        };
        let l_rows = l_fill(&au, &parent, &l_colptr);
        Self {
            n,
            perm,
            pinv,
            l_colptr,
            l_rows,
            l_vals,
            d,
            super_ptr,
            work,
        }
    }

    /// Runs the multifrontal numeric phase on `a` (the unpermuted
    /// matrix; its lower triangle in pivot space is read), overwriting
    /// `L` and `D` in place. On error `D` is poisoned with NaN.
    fn numeric(&mut self, a: &Csc) -> Result<(), CircuitError> {
        let result = self.multifrontal(a);
        if result.is_err() {
            self.d.fill(f64::NAN);
        }
        result
    }

    fn multifrontal(&mut self, a: &Csc) -> Result<(), CircuitError> {
        let Self {
            perm,
            pinv,
            l_colptr,
            l_rows,
            l_vals,
            d,
            super_ptr,
            work,
            ..
        } = self;
        let Workspace {
            buf,
            pending,
            pos,
            rel,
        } = work;
        pending.clear();
        // `d` collects the 1×1 updates of single-row children until their
        // parent supernode reads them.
        d.fill(0.0);
        let mut top = 0usize;
        for w in super_ptr.windows(2) {
            let (f, l) = (w[0], w[1]);
            let ns = l - f;
            let below = &l_rows[l_colptr[l - 1]..l_colptr[l]];
            let nf = ns + below.len();
            // The front goes on top of the stack, above its children's
            // updates; the panels of the blocked update above the front.
            let (stack, rest) = buf.split_at_mut(top);
            let (fr, pack) = rest.split_at_mut(packed_len(nf));
            fr.fill(0.0);
            fr[0] = d[f];
            // Front rows are the pivot columns, then the rows below.
            let mut q = 0u32;
            for p in &mut pos[f..l] {
                *p = q;
                q += 1;
            }
            for &r in below {
                pos[r as usize] = q;
                q += 1;
            }

            // Assemble A's pivot columns (rows on or below the diagonal).
            // A row outside the front means the pattern drifted from the
            // analysed one.
            for (c, &orig) in perm[f..l].iter().enumerate() {
                let j = f + c;
                let col = col_start(nf, c) - c;
                let (lo, hi) = (a.col_ptr[orig as usize], a.col_ptr[orig as usize + 1]);
                for (&r, &v) in a.row_idx[lo..hi].iter().zip(&a.values[lo..hi]) {
                    let i = pinv[r as usize] as usize;
                    if i < j {
                        continue;
                    }
                    let q = pos[i] as usize;
                    let in_front = q < nf
                        && if q < ns {
                            f + q == i
                        } else {
                            below[q - ns] as usize == i
                        };
                    if !in_front {
                        return Err(CircuitError::Singular { row: j });
                    }
                    fr[col + q] += v;
                }
            }

            // Extend-add the children's update matrices, newest first:
            // every pending update whose first row is column f.
            let mut base = top;
            while let Some(&last) = pending.last() {
                if !is_child(l_colptr, l_rows, last, f) {
                    break;
                }
                pending.pop();
                let rows = &l_rows[l_colptr[last]..l_colptr[last + 1]];
                let m = rows.len();
                base -= packed_len(m);
                let rel = &mut rel[..m];
                for (q, &r) in rel.iter_mut().zip(rows) {
                    *q = pos[r as usize] as usize;
                }
                let mut update = &stack[base..base + packed_len(m)];
                for (b, &qb) in rel.iter().enumerate() {
                    let (col, rest) = update.split_at(m - b);
                    let dst = &mut fr[col_start(nf, qb) - qb..];
                    for (&qa, &v) in rel[b..].iter().zip(col) {
                        dst[qa] += v;
                    }
                    update = rest;
                }
            }

            factor_front(
                fr,
                nf,
                ns,
                &mut d[f..l],
                &mut l_vals[l_colptr[f]..l_colptr[l]],
                pack,
            )
            .map_err(|c| CircuitError::NotPositiveDefinite { row: f + c })?;

            // Leave the update for the parent where the children were.
            let front_at = top;
            top = base;
            match below {
                [] => {}
                &[r] => d[r as usize] += fr[packed_len(nf) - 1],
                _ => {
                    let update = front_at + col_start(nf, ns)..front_at + packed_len(nf);
                    top += update.len();
                    buf.copy_within(update, base);
                    pending.push(l - 1);
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` using the stored factor.
    ///
    /// # Panics
    ///
    /// Panics on an rhs length mismatch.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer (resized to `n`).
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != n`.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        // y ← P·b, solved in pivot space.
        let mut y = vec![0.0f64; self.n];
        for (k, &p) in self.perm.iter().enumerate() {
            y[k] = b[p as usize];
        }
        // Forward: L·z = P·b (unit diagonal).
        for k in 0..self.n {
            let yk = y[k];
            if yk != 0.0 {
                let (lo, hi) = (self.l_colptr[k], self.l_colptr[k + 1]);
                for (&r, &v) in self.l_rows[lo..hi].iter().zip(&self.l_vals[lo..hi]) {
                    y[r as usize] -= v * yk;
                }
            }
        }
        // Diagonal: D·w = z.
        for (yk, dk) in y.iter_mut().zip(&self.d) {
            *yk /= dk;
        }
        // Backward: Lᵀ·v = w.
        for k in (0..self.n).rev() {
            let mut acc = y[k];
            let (lo, hi) = (self.l_colptr[k], self.l_colptr[k + 1]);
            for (&r, &v) in self.l_rows[lo..hi].iter().zip(&self.l_vals[lo..hi]) {
                acc -= v * y[r as usize];
            }
            y[k] = acc;
        }
        // x ← Pᵀ·v.
        x.clear();
        x.resize(self.n, 0.0);
        for (k, &p) in self.perm.iter().enumerate() {
            x[p as usize] = y[k];
        }
    }
}

/// Entries in the packed lower triangle of an order-`nf` matrix.
fn packed_len(nf: usize) -> usize {
    nf * (nf + 1) / 2
}

/// Offset of the diagonal entry `(j, j)` in an order-`nf` matrix stored
/// packed lower-triangular by columns: column `j` holds rows `j..nf`
/// contiguously, so entry `(i, j)` sits at `col_start(nf, j) + i − j`.
fn col_start(nf: usize, j: usize) -> usize {
    j * nf - j * j.saturating_sub(1) / 2
}

/// Partial dense LDLᵀ of an order-`nf` front stored packed lower
/// triangular: factors the leading `ns` pivot columns, writing `D` to
/// `d` and the columns of `L` (below the diagonal, back to back) to `l`,
/// and applies their update to every later column. That leaves the
/// parent's update matrix in the trailing `nf − ns` columns. Errs with
/// the local column of a non-positive pivot.
///
/// Fronts wide enough for the register-blocked update go in panels of
/// [`PANEL`] columns; the rest take one scalar right-looking pass.
#[inline(always)]
fn factor_front(
    fr: &mut [f64],
    nf: usize,
    ns: usize,
    d: &mut [f64],
    l: &mut [f64],
    pack: &mut [f64],
) -> Result<(), usize> {
    // The loop below covers one pivot too, but tree matrices are all
    // single-pivot fronts and skip its set-up (about a fifth of their
    // numeric phase).
    if ns == 1 {
        d[0] = eliminate_first(fr, nf, l).ok_or(0_usize)?;
        return Ok(());
    }
    if !blocked(ns, nf) {
        let (mut rest, mut l) = (fr, l);
        for (c, dc) in d.iter_mut().enumerate() {
            let order = nf - c;
            let (out, tail) = l.split_at_mut(order - 1);
            *dc = eliminate_first(rest, order, out).ok_or(c)?;
            rest = &mut std::mem::take(&mut rest)[order..];
            l = tail;
        }
        return Ok(());
    }
    factor_panels(fr, nf, ns, d, l, pack)
}

/// `true` when the update pending for the supernode whose last column
/// is `last` belongs to the supernode starting at column `f`: its first
/// below-block row, the etree parent of `last`, is `f`.
fn is_child(l_colptr: &[usize], l_rows: &[u32], last: usize, f: usize) -> bool {
    l_rows[l_colptr[last]] as usize == f
}

/// `true` when a front of order `nf` with `ns` pivot columns takes the
/// panel-blocked path: its first panel is at least [`BLOCKED_MIN_COLS`]
/// wide and leaves at least [`BLOCKED_MIN_ROWS`] rows below it.
fn blocked(ns: usize, nf: usize) -> bool {
    let first = ns.min(PANEL);
    first >= BLOCKED_MIN_COLS && nf - first >= BLOCKED_MIN_ROWS
}

/// Eliminates the first pivot of the order-`order` packed lower
/// triangle `tri`: scales its column (copied out to `l`) and applies the
/// rank-1 update to the trailing triangle. Returns the pivot, or `None`
/// when it is not positive.
#[inline(always)]
fn eliminate_first(tri: &mut [f64], order: usize, l: &mut [f64]) -> Option<f64> {
    let (col, mut trail) = tri.split_at_mut(order);
    let dc = col[0];
    if !(dc > PIVOT_TINY) {
        return None;
    }
    for (x, o) in col[1..].iter_mut().zip(l) {
        *x /= dc;
        *o = *x;
    }
    for j in 1..order {
        let (dst, rest) = trail.split_at_mut(order - j);
        let w = col[j] * dc;
        for (x, &y) in dst.iter_mut().zip(&col[j..]) {
            *x -= y * w;
        }
        trail = rest;
    }
    Some(dc)
}

/// The panel-blocked branch of [`factor_front`].
fn factor_panels(
    fr: &mut [f64],
    nf: usize,
    ns: usize,
    d: &mut [f64],
    l: &mut [f64],
    pack: &mut [f64],
) -> Result<(), usize> {
    let mut l = l;
    let mut c0 = 0;
    while c0 < ns {
        let c1 = (c0 + PANEL).min(ns);
        for c in c0..c1 {
            let (done, mut rest) = fr.split_at_mut(col_start(nf, c + 1));
            let col = &mut done[col_start(nf, c)..];
            let dc = col[0];
            if !(dc > PIVOT_TINY) {
                return Err(c);
            }
            // Rank-1 update of the panel's later columns, then scale,
            // writing the finished column of L out as it goes.
            for j in c + 1..c1 {
                let (dst, tail) = rest.split_at_mut(nf - j);
                let w = col[j - c] / dc;
                for (x, &y) in dst.iter_mut().zip(&col[j - c..]) {
                    *x -= y * w;
                }
                rest = tail;
            }
            d[c] = dc;
            let (out, tail) = l.split_at_mut(nf - c - 1);
            for (x, o) in col[1..].iter_mut().zip(out) {
                *x /= dc;
                *o = *x;
            }
            l = tail;
        }
        if c1 < nf {
            trailing_update(fr, nf, c0, c1, pack);
        }
        c0 = c1;
    }
    Ok(())
}

/// `C −= L·D·Lᵀ` for the factored panel columns `c0..c1` of a packed
/// front, over the lower triangle of columns `c1..nf`: the panel and
/// `L·D` are packed k-major in groups of four rows, and a 4×4 register
/// block runs over each pair of groups.
#[inline]
fn trailing_update(fr: &mut [f64], nf: usize, c0: usize, c1: usize, pack: &mut [f64]) {
    let start = col_start(nf, c1);
    let (head, trail) = fr.split_at_mut(start);
    let p = nf - c1;
    let kb = c1 - c0;
    // Rows c1..nf of each panel column, zero-padded to a multiple of four.
    let groups = p.div_ceil(4);
    let (pa, rest) = pack.split_at_mut(groups * 4 * kb);
    let pb = &mut rest[..groups * 4 * kb];
    for k in 0..kb {
        let col = &head[col_start(nf, c0 + k)..col_start(nf, c0 + k + 1)];
        let dk = col[0];
        for (g, chunk) in col[c1 - c0 - k..].chunks(4).enumerate() {
            let at = (g * kb + k) * 4;
            for ii in 0..4 {
                let v = chunk.get(ii).copied().unwrap_or(0.0);
                pa[at + ii] = v;
                pb[at + ii] = v * dk;
            }
        }
    }
    let (pa, _) = pa.as_chunks::<4>();
    let (pb, _) = pb.as_chunks::<4>();
    for jg in 0..groups {
        let b = &pb[jg * kb..(jg + 1) * kb];
        for ig in jg..groups {
            let acc = kernel_4x4(&pa[ig * kb..(ig + 1) * kb], b);
            for jj in 0..4 {
                let j = jg * 4 + jj;
                if j >= p {
                    break;
                }
                let dst = &mut trail[col_start(nf, c1 + j) - start - j..];
                for (ii, row) in acc.iter().enumerate() {
                    let i = ig * 4 + ii;
                    if i >= j && i < p {
                        dst[i] -= row[jj];
                    }
                }
            }
        }
    }
}

/// The 4×4 register block `Σₖ a[k]ᵢ · b[k]ⱼ` over packed panels.
#[inline(always)]
fn kernel_4x4(a: &[[f64; 4]], b: &[[f64; 4]]) -> [[f64; 4]; 4] {
    let mut acc = [[0.0f64; 4]; 4];
    for (av, bv) in a.iter().zip(b) {
        for (row, &ai) in acc.iter_mut().zip(av) {
            for (x, &bj) in row.iter_mut().zip(bv) {
                *x += ai * bj;
            }
        }
    }
    acc
}

/// `true` when `a` is structurally and numerically symmetric with a
/// strictly positive diagonal in every column.
fn spd_candidate(n: usize, a: &Csc) -> bool {
    for k in 0..n {
        let (lo, hi) = (a.col_ptr[k], a.col_ptr[k + 1]);
        let col = &a.row_idx[lo..hi];
        let pos = col.partition_point(|&r| (r as usize) < k);
        if pos >= col.len() || col[pos] as usize != k || !(a.values[lo + pos] > 0.0) {
            return false;
        }
    }
    // Columns are sorted and deduped, so symmetry is array equality
    // against the transpose. NaN anywhere compares unequal ⇒ LU path.
    let t = transpose(n, a);
    a.col_ptr == t.col_ptr && a.row_idx == t.row_idx && a.values == t.values
}

/// Explicit transpose of a CSC matrix (columns come out sorted).
fn transpose(n: usize, a: &Csc) -> Csc {
    let nnz = a.row_idx.len();
    let mut col_ptr = vec![0usize; n + 1];
    for &r in &a.row_idx {
        col_ptr[r as usize + 1] += 1;
    }
    for k in 0..n {
        col_ptr[k + 1] += col_ptr[k];
    }
    let mut cursor = col_ptr.clone();
    let mut row_idx = vec![0u32; nnz];
    let mut values = vec![0.0f64; nnz];
    for c in 0..n {
        // CAST(column indices are < n, and SparseMatrix stores its
        // indices as u32 already): compact CSC storage.
        #[allow(clippy::cast_possible_truncation)]
        let col = c as u32;
        for p in a.col_ptr[c]..a.col_ptr[c + 1] {
            let r = a.row_idx[p] as usize;
            let slot = cursor[r];
            cursor[r] += 1;
            row_idx[slot] = col;
            values[slot] = a.values[p];
        }
    }
    Csc {
        col_ptr,
        row_idx,
        values,
    }
}

/// The inverse of a permutation: `inv[perm[k]] = k`.
fn inverse(perm: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; perm.len()];
    for (k, &p) in perm.iter().enumerate() {
        // CAST(k < n, and SparseMatrix already stores n-range indices as
        // u32): compact permutation storage.
        #[allow(clippy::cast_possible_truncation)]
        let k = k as u32;
        inv[p as usize] = k;
    }
    inv
}

/// The upper triangle of `P·A·Pᵀ` in CSC form: column `k` holds entries
/// with pivot-space row `i <= k`. Entry order within a column follows
/// the original column scan, so the result is deterministic.
fn permuted_upper(n: usize, a: &Csc, pinv: &[u32]) -> Csc {
    let mut count = vec![0usize; n + 1];
    for c in 0..n {
        let k = pinv[c] as usize;
        for &r in &a.row_idx[a.col_ptr[c]..a.col_ptr[c + 1]] {
            if (pinv[r as usize] as usize) <= k {
                count[k + 1] += 1;
            }
        }
    }
    for k in 0..n {
        count[k + 1] += count[k];
    }
    let mut cursor = count.clone();
    let nnz = count[n];
    let mut row_idx = vec![0u32; nnz];
    let mut values = vec![0.0f64; nnz];
    for c in 0..n {
        let k = pinv[c] as usize;
        for p in a.col_ptr[c]..a.col_ptr[c + 1] {
            let i = pinv[a.row_idx[p] as usize];
            if (i as usize) <= k {
                let slot = cursor[k];
                cursor[k] += 1;
                row_idx[slot] = i;
                values[slot] = a.values[p];
            }
        }
    }
    Csc {
        col_ptr: count,
        row_idx,
        values,
    }
}

/// Column pointers of strictly-lower `L`, from exact column counts by
/// Davis' flagged etree walks: row `k` of `L` is every node reached
/// climbing the elimination tree from the entries of column `k` of `au`
/// until a node already flagged for `k`.
fn l_counts(au: &Csc, parent: &[u32]) -> Vec<usize> {
    let n = parent.len();
    let mut colptr = vec![0usize; n + 1];
    row_subtrees(au, parent, |i, _| colptr[i + 1] += 1);
    for k in 0..n {
        colptr[k + 1] += colptr[k];
    }
    colptr
}

/// The row indices of strictly-lower `L` for the column pointers of
/// [`l_counts`], ascending within each column (the same walks, filling).
fn l_fill(au: &Csc, parent: &[u32], colptr: &[usize]) -> Vec<u32> {
    let mut next = colptr[..parent.len()].to_vec();
    let mut rows = vec![0u32; colptr[parent.len()]];
    row_subtrees(au, parent, |i, k| {
        rows[next[i]] = k;
        next[i] += 1;
    });
    rows
}

/// Calls `visit(i, k)` for every entry `L[k, i]` of strictly-lower `L`,
/// with `k` ascending.
fn row_subtrees(au: &Csc, parent: &[u32], mut visit: impl FnMut(usize, u32)) {
    let mut flag = vec![NONE; parent.len()];
    for k in 0..flag.len() {
        // CAST(k < n, and SparseMatrix already stores n-range indices as
        // u32): the flag array is u32.
        #[allow(clippy::cast_possible_truncation)]
        let ku = k as u32;
        flag[k] = ku;
        for &ri in &au.row_idx[au.col_ptr[k]..au.col_ptr[k + 1]] {
            let mut i = ri as usize;
            while flag[i] != ku {
                flag[i] = ku;
                visit(i, ku);
                let up = parent[i];
                if up == NONE {
                    break;
                }
                i = up as usize;
            }
        }
    }
}

/// Fundamental supernodes of a postordered elimination tree, as column
/// boundaries: column `j` joins column `j − 1`'s supernode when it is
/// that column's parent, has no other child, and its column of `L` is
/// one entry shorter — i.e. the two share their rows below `j`.
fn fundamental_supernodes(parent: &[u32], l_colptr: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let mut kids = vec![0u32; n];
    for &p in parent {
        if p != NONE {
            kids[p as usize] += 1;
        }
    }
    let count = |j: usize| l_colptr[j + 1] - l_colptr[j];
    let mut ptr = vec![0];
    for j in 1..n {
        let joins = parent[j - 1] as usize == j && kids[j] == 1 && count(j - 1) == count(j) + 1;
        if !joins {
            ptr.push(j);
        }
    }
    if n > 0 {
        ptr.push(n);
    }
    ptr
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 5-point grid Laplacian with gmin shift and one grounded corner —
    /// SPD by construction, the shape of every power-grid MNA matrix.
    fn grid_laplacian(rows: usize, cols: usize) -> SparseMatrix {
        let n = rows * cols;
        let mut m = SparseMatrix::zeros(n);
        let at = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                m.add(at(r, c), at(r, c), 1e-9);
                let mut couple = |a: usize, b: usize| {
                    m.add(a, a, 1.0);
                    m.add(b, b, 1.0);
                    m.add(a, b, -1.0);
                    m.add(b, a, -1.0);
                };
                if c + 1 < cols {
                    couple(at(r, c), at(r, c + 1));
                }
                if r + 1 < rows {
                    couple(at(r, c), at(r + 1, c));
                }
            }
        }
        m.add(0, 0, 1.0e3);
        m
    }

    fn residual_norm(m: &SparseMatrix, x: &[f64], b: &[f64]) -> f64 {
        m.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_grid_system() {
        let m = grid_laplacian(11, 13);
        let n = m.n();
        #[allow(clippy::cast_precision_loss)]
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let f = m.factor_cholesky().unwrap();
        let x = f.solve(&b);
        assert!(residual_norm(&m, &x, &b) < 1e-9);
    }

    #[test]
    fn agrees_with_lu() {
        let m = grid_laplacian(9, 9);
        let b: Vec<f64> = (0..m.n())
            .map(|i| if i % 3 == 0 { 1.0 } else { -0.5 })
            .collect();
        let xc = m.factor_cholesky().unwrap().solve(&b);
        let xl = m.factor().unwrap().solve(&b);
        for (a, l) in xc.iter().zip(&xl) {
            assert!((a - l).abs() < 1e-9, "cholesky {a} vs lu {l}");
        }
    }

    #[test]
    fn fill_beats_lu_natural_order() {
        let m = grid_laplacian(20, 20);
        let fc = m.factor_cholesky().unwrap();
        let fl = m.factor().unwrap();
        assert!(
            fc.nnz() < fl.nnz(),
            "cholesky fill {} should undercut LU fill {}",
            fc.nnz(),
            fl.nnz()
        );
    }

    /// Stamps the Laplacian of `edges` plus a leak on every node, with
    /// weights drawn from `salt` so two calls give the same pattern with
    /// different values, in the same stamping order.
    fn weighted_laplacian(n: usize, edges: &[(usize, usize)], salt: usize) -> SparseMatrix {
        #[allow(clippy::cast_precision_loss)]
        let weight = |k: usize| 0.5 + ((k * 7 + salt * 13) % 17) as f64 / 4.0;
        let mut m = SparseMatrix::zeros(n);
        for i in 0..n {
            m.add(i, i, 1e-3 * weight(i));
        }
        for (e, &(a, b)) in edges.iter().enumerate() {
            let g = weight(e + n);
            m.add(a, a, g);
            m.add(b, b, g);
            m.add(a, b, -g);
            m.add(b, a, -g);
        }
        m
    }

    fn grid_edges(rows: usize, cols: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((r * cols + c, r * cols + c + 1));
                }
                if r + 1 < rows {
                    edges.push((r * cols + c, (r + 1) * cols + c));
                }
            }
        }
        edges
    }

    /// A random tree of chains, like a finite-volume mesh of a wire
    /// tree: node `i` extends the chain through `i − 1`, except that one
    /// node in eight branches off a pseudo-random earlier node. Fronts
    /// get several children and long width-1 chains.
    fn tree_edges(n: usize) -> Vec<(usize, usize)> {
        (1..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
                let p = if h.is_multiple_of(8) {
                    h as usize % i
                } else {
                    i - 1
                };
                (p, i)
            })
            .collect()
    }

    #[test]
    fn refactor_is_bitwise_equal_to_fresh_factor() {
        let m = grid_laplacian(10, 10);
        let mut f = m.factor_cholesky().unwrap();
        // Same pattern, scaled values, same stamping order.
        let scaled = {
            let mut s = SparseMatrix::zeros(m.n());
            let at = |r: usize, c: usize| r * 10 + c;
            for r in 0..10 {
                for c in 0..10 {
                    s.add(at(r, c), at(r, c), 2.5e-9);
                    let mut couple = |a: usize, b: usize| {
                        s.add(a, a, 2.5);
                        s.add(b, b, 2.5);
                        s.add(a, b, -2.5);
                        s.add(b, a, -2.5);
                    };
                    if c + 1 < 10 {
                        couple(at(r, c), at(r, c + 1));
                    }
                    if r + 1 < 10 {
                        couple(at(r, c), at(r + 1, c));
                    }
                }
            }
            s.add(0, 0, 2.5e3);
            s
        };
        f.refactor(&scaled).unwrap();
        let fresh = scaled.factor_cholesky().unwrap();
        assert_eq!(f.l_values(), fresh.l_values());
        assert_eq!(f.diagonal(), fresh.diagonal());

        // A 60×60 grid (wide fronts, several children, blocked updates)
        // and a 2k-node tree (width-1 chains, many tiny fronts).
        for (n, edges) in [(3600, grid_edges(60, 60)), (2000, tree_edges(2000))] {
            let mut f = weighted_laplacian(n, &edges, 0).factor_cholesky().unwrap();
            let next = weighted_laplacian(n, &edges, 1);
            f.refactor(&next).unwrap();
            let fresh = next.factor_cholesky().unwrap();
            assert_eq!(f.ordering(), fresh.ordering());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(f.l_values()), bits(fresh.l_values()), "n = {n}");
            assert_eq!(bits(f.diagonal()), bits(fresh.diagonal()), "n = {n}");
        }
    }

    #[test]
    fn rejects_asymmetric_and_zero_diagonal() {
        let mut asym = SparseMatrix::zeros(2);
        asym.add(0, 0, 2.0);
        asym.add(1, 1, 2.0);
        asym.add(0, 1, -1.0); // no (1,0) twin
        assert!(matches!(
            asym.factor_cholesky(),
            Err(CircuitError::NotPositiveDefinite { .. })
        ));

        // MNA voltage-source shape: zero diagonal on the branch row.
        let mut vsrc = SparseMatrix::zeros(2);
        vsrc.add(0, 0, 1.0);
        vsrc.add(0, 1, 1.0);
        vsrc.add(1, 0, 1.0);
        assert!(matches!(
            vsrc.factor_cholesky(),
            Err(CircuitError::NotPositiveDefinite { row: 0 })
        ));
    }

    #[test]
    fn rejects_indefinite_values() {
        // Symmetric with positive diagonal but not positive definite:
        // [[1, 2], [2, 1]] has eigenvalues 3 and -1. The symmetry screen
        // passes it; the second pivot, 1 − 4 = −3, is what fails.
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        assert!(matches!(
            m.factor_cholesky(),
            Err(CircuitError::NotPositiveDefinite { row: 1 })
        ));
    }

    #[test]
    fn solve_into_reuses_buffer_and_empty_matrix_works() {
        let m = grid_laplacian(6, 6);
        let f = m.factor_cholesky().unwrap();
        let b1 = vec![1.0; m.n()];
        let b2 = vec![-2.0; m.n()];
        let mut x = Vec::new();
        f.solve_into(&b1, &mut x);
        assert!(residual_norm(&m, &x, &b1) < 1e-9);
        f.solve_into(&b2, &mut x);
        assert!(residual_norm(&m, &x, &b2) < 1e-9);

        let empty = SparseMatrix::zeros(0);
        let fe = empty.factor_cholesky().unwrap();
        assert!(fe.solve(&[]).is_empty());
    }
}
