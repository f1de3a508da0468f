//! Fill-reducing orderings and elimination-tree machinery for the SPD
//! Cholesky path.
//!
//! The entry point is [`amd`], the approximate-minimum-degree ordering of
//! Amestoy, Davis and Duff (*An approximate minimum degree ordering
//! algorithm*, SIAM J. Matrix Anal. Appl. 17(4), 1996), laid out as
//! CSparse's `cs_amd` (Davis, *Direct Methods for Sparse Linear
//! Systems*, SIAM 2006, §7.1). The quotient graph lives in one flat
//! integer workspace: every variable's element list and variable list,
//! and every element's variable list, are packed into one index array
//! with elbow room at its end. Lists shrink in place as they are pruned,
//! a new element is written at the free end (or over its pivot's own
//! list when the pivot touches no element), and a compaction pass
//! reclaims dead lists when the free end runs out. Elimination absorbs
//! the elements adjacent to the pivot, and aggressively any other element
//! whose variables the new one covers; variables left with no external
//! degree are eliminated with the pivot (mass elimination);
//! indistinguishable variables are merged into supervariables found
//! through hash buckets; and the degree lists are flat doubly linked
//! lists indexed by approximate external degree. Nodes denser than
//! `10·√n` are ordered last.
//!
//! The companion helpers [`etree`] and [`postorder`] build the
//! elimination-tree scaffolding the symbolic and numeric phases in
//! [`crate::cholesky`] rest on.
//!
//! Everything here is deterministic: degree lists are last-in first-out
//! and start out lowest index first, hash buckets and list scans follow
//! positions in the workspace, and nothing depends on allocation
//! addresses, so a factorization is reproducible bit for bit.

/// Sentinel for "no node" in the u32 index arrays below.
const NONE: u32 = u32::MAX;

/// "Empty" in the signed lists of [`amd`].
const EMPTY: i32 = -1;

/// `flip(i) = −i − 2`, its own inverse. A negative list pointer
/// `flip(p)` names the element or supervariable `p` that absorbed its
/// owner; `flip(EMPTY) = EMPTY`.
const fn flip(i: i32) -> i32 {
    -i - 2
}

/// A node index or workspace position as stored in [`amd`]'s lists.
fn ix(i: usize) -> i32 {
    // CAST(every node index and workspace position is below the i32
    // bound `amd` checks before it builds the workspace): compact lists.
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    let i = i as i32;
    i
}

/// Computes an approximate-minimum-degree permutation for the pattern of
/// `A + Aᵀ` of a square matrix given in CSC form (`col_ptr`/`row_idx`;
/// diagonal entries, duplicates and row order are ignored). Returns
/// `perm` with `perm[k]` = the original index eliminated at step `k`.
///
/// The order is a postorder of the assembly tree, so every element's
/// variables come out together and before its parent's.
pub fn amd(n: usize, col_ptr: &[usize], row_idx: &[u32]) -> Vec<u32> {
    if n == 0 {
        return Vec::new();
    }
    // The flat lists index themselves with i32; beyond that bound (some
    // 2³¹ pattern entries) keep the natural order, which is still valid.
    let room = 2 * row_idx.len() + 2 * row_idx.len() / 5 + 2 * n + 1;
    if i32::try_from(room).is_err() {
        return natural(n);
    }
    let mut g = Amd::new(n, col_ptr, row_idx);
    while g.nel < g.n {
        let k = g.select_pivot();
        g.eliminate(k);
    }
    g.postorder()
}

/// `0, 1, …, n − 1`.
fn natural(n: usize) -> Vec<u32> {
    // CAST(only reached for patterns past the i32 workspace bound, and
    // node indices already arrive as u32): the identity order.
    #[allow(clippy::cast_possible_truncation)]
    (0..n).map(|i| i as u32).collect()
}

/// One AMD run: the quotient graph and its degree and hash lists, every
/// array indexed by node (`0..n`) plus the element `n` that collects
/// dense nodes.
struct Amd {
    n: i32,
    /// Where node `i`'s list starts in `iw` while `i` is a live variable
    /// or element; `flip(p)` once absorbed into `p`; `EMPTY` for a root
    /// of the assembly tree.
    pe: Vec<i32>,
    /// The length of that list.
    len: Vec<i32>,
    /// For a variable, how many of its list's leading entries are
    /// elements (the rest are variables); −2 for an element, −1 for a
    /// dead variable.
    elen: Vec<i32>,
    /// For a variable, how many nodes its supervariable holds (negated
    /// while it sits in the new element); 0 once merged or absorbed. For
    /// an element, how many nodes it eliminated.
    nv: Vec<i32>,
    /// For a variable, its approximate external degree; for an element,
    /// the weight of its variable list.
    degree: Vec<i32>,
    /// For an element, `|Le \ Lk| + mark` while pivot `k` is being
    /// eliminated; 0 for a dead element. Scratch marks otherwise.
    w: Vec<i32>,
    /// Degree lists: `head[d]` starts the list of degree `d`.
    head: Vec<i32>,
    next: Vec<i32>,
    last: Vec<i32>,
    /// Hash buckets of the supervariable search.
    hhead: Vec<i32>,
    /// The packed lists; `iw[cnz..]` is free.
    iw: Vec<i32>,
    cnz: usize,
    /// Every `w` entry of a live element lies below `mark`.
    mark: i32,
    /// The largest element weight so far.
    lemax: i32,
    mindeg: i32,
    /// Nodes eliminated so far.
    nel: i32,
}

impl Amd {
    /// The quotient graph of `A + Aᵀ` without its diagonal: one
    /// deduplicated variable list per node, with `cnz/5 + 2n` entries of
    /// elbow room behind them, and every node in its degree list.
    fn new(n: usize, col_ptr: &[usize], row_idx: &[u32]) -> Self {
        // Each off-diagonal entry lands in its column's list and its
        // row's, then each list drops its repeats in place.
        let mut start = vec![0usize; n + 1];
        for j in 0..n {
            for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
                if i as usize != j {
                    start[i as usize] += 1;
                    start[j] += 1;
                }
            }
        }
        let mut sum = 0;
        for s in &mut start {
            let count = *s;
            *s = sum;
            sum += count;
        }
        let mut iw = vec![0i32; sum];
        let mut fill = start.clone();
        for j in 0..n {
            for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
                let i = i as usize;
                if i != j {
                    iw[fill[j]] = ix(i);
                    fill[j] += 1;
                    iw[fill[i]] = ix(j);
                    fill[i] += 1;
                }
            }
        }
        let mut pe = vec![EMPTY; n + 1];
        let mut len = vec![0i32; n + 1];
        let mut seen = vec![EMPTY; n];
        let mut cnz = 0;
        for j in 0..n {
            pe[j] = ix(cnz);
            for p in start[j]..start[j + 1] {
                let i = iw[p];
                if seen[i as usize] != ix(j) {
                    seen[i as usize] = ix(j);
                    iw[cnz] = i;
                    cnz += 1;
                }
            }
            len[j] = ix(cnz) - pe[j];
        }
        iw.resize(cnz + cnz / 5 + 2 * n, 0);

        let ni = ix(n);
        let mut g = Self {
            n: ni,
            pe,
            degree: len.clone(),
            len,
            elen: vec![0; n + 1],
            nv: vec![1; n + 1],
            w: vec![1; n + 1],
            head: vec![EMPTY; n + 1],
            next: vec![EMPTY; n + 1],
            last: vec![EMPTY; n + 1],
            hhead: vec![EMPTY; n + 1],
            iw,
            cnz,
            mark: 2,
            lemax: 0,
            mindeg: 0,
            nel: 0,
        };
        // Element n collects the dense nodes; it starts dead.
        g.elen[n] = -2;
        g.w[n] = 0;
        let dense = ix((10 * n.isqrt()).max(16)).min(ni - 2);
        // Listed from the last node down, so each degree list starts at
        // its lowest index: of the tie rules tried, the one whose fill
        // held on the benchmark's pad layouts.
        for i in (0..n).rev() {
            let d = g.degree[i];
            if d == 0 {
                // An isolated node is an element at once.
                g.elen[i] = -2;
                g.nel += 1;
                g.pe[i] = EMPTY;
                g.w[i] = 0;
            } else if d > dense {
                g.nv[i] = 0;
                g.elen[i] = -1;
                g.nel += 1;
                g.pe[i] = flip(ni);
                g.nv[n] += 1;
            } else {
                g.push_degree(i, d);
            }
        }
        g
    }

    /// Puts variable `i` at the head of degree list `d`.
    fn push_degree(&mut self, i: usize, d: i32) {
        let h = self.head[d as usize];
        if h != EMPTY {
            self.last[h as usize] = ix(i);
        }
        self.next[i] = h;
        self.last[i] = EMPTY;
        self.head[d as usize] = ix(i);
    }

    /// Takes variable `i` out of its degree list.
    fn unlink_degree(&mut self, i: usize) {
        let (next, last) = (self.next[i], self.last[i]);
        if next != EMPTY {
            self.last[next as usize] = last;
        }
        if last != EMPTY {
            self.next[last as usize] = next;
        } else {
            self.head[self.degree[i] as usize] = next;
        }
    }

    /// Takes the head of the lowest non-empty degree list.
    fn select_pivot(&mut self) -> usize {
        while self.head[self.mindeg as usize] == EMPTY {
            self.mindeg += 1;
        }
        let k = self.head[self.mindeg as usize] as usize;
        self.unlink_degree(k);
        k
    }

    /// Advances `mark` by `by`, so every `w` entry of a live element
    /// lies below it; restarts the marks (every live `w` back to 1, the
    /// mark at 2) when `mark + lemax` would leave `i32`.
    fn advance_mark(&mut self, by: i32) {
        let lemax = self.lemax;
        self.mark = match self
            .mark
            .checked_add(by)
            .filter(|m| m.checked_add(lemax).is_some())
        {
            Some(m) => m,
            None => {
                let n = self.n as usize;
                for x in &mut self.w[..n] {
                    if *x != 0 {
                        *x = 1;
                    }
                }
                2
            }
        };
    }

    /// Eliminates pivot `k`: forms element `k`, updates the degrees of
    /// its variables, merges the indistinguishable ones and puts the
    /// survivors back in their degree lists.
    fn eliminate(&mut self, k: usize) {
        let elenk = self.elen[k];
        let mut nvk = self.nv[k];
        self.nel += nvk;
        if elenk > 0 && self.cnz + self.mindeg as usize >= self.iw.len() {
            self.compact();
        }
        let (pk1, pk2, mut dk) = self.new_element(k, elenk);
        self.advance_mark(0);
        self.set_differences(pk1, pk2);
        self.update_degrees(k, pk1, pk2, &mut dk, &mut nvk);
        self.degree[k] = dk;
        self.lemax = self.lemax.max(dk);
        self.advance_mark(self.lemax);
        self.merge_supervariables(pk1, pk2);

        // Finalize Lk: restore the survivors' weights, re-list them by
        // their new approximate external degree, and drop the dead.
        let mut p = pk1;
        for pk in pk1..pk2 {
            let i = self.iw[pk] as usize;
            let nvi = -self.nv[i];
            if nvi <= 0 {
                continue;
            }
            self.nv[i] = nvi;
            let d = (self.degree[i] + dk - nvi).min(self.n - self.nel - nvi);
            self.push_degree(i, d);
            self.mindeg = self.mindeg.min(d);
            self.degree[i] = d;
            self.iw[p] = ix(i);
            p += 1;
        }
        self.nv[k] = nvk;
        self.len[k] = ix(p - pk1);
        if p == pk1 {
            // An empty element is a root of the assembly tree.
            self.pe[k] = EMPTY;
            self.w[k] = 0;
        }
        if elenk != 0 {
            self.cnz = p;
        }
    }

    /// Slides every live list to the front of `iw`: each list's first
    /// entry is parked in `pe` and replaced by `flip(owner)`, so one scan
    /// finds the lists in memory order.
    fn compact(&mut self) {
        for j in 0..self.n as usize {
            let p = self.pe[j];
            if p >= 0 {
                self.pe[j] = self.iw[p as usize];
                self.iw[p as usize] = flip(ix(j));
            }
        }
        let (mut q, mut p) = (0, 0);
        while p < self.cnz {
            let j = flip(self.iw[p]);
            p += 1;
            if j >= 0 {
                let j = j as usize;
                self.iw[q] = self.pe[j];
                self.pe[j] = ix(q);
                q += 1;
                let rest = self.len[j] as usize - 1;
                self.iw.copy_within(p..p + rest, q);
                p += rest;
                q += rest;
            }
        }
        self.cnz = q;
    }

    /// Forms `Lk`, the live variables adjacent to `k` directly or through
    /// its elements, which are absorbed. Each lands negated in `nv` and
    /// out of its degree list. Returns `Lk`'s span in `iw` and weight.
    fn new_element(&mut self, k: usize, elenk: i32) -> (usize, usize, i32) {
        let mut dk = 0;
        self.nv[k] = -self.nv[k];
        let mut p = self.pe[k] as usize;
        // With no element to absorb, Lk overwrites k's own list.
        let pk1 = if elenk == 0 { p } else { self.cnz };
        let mut pk2 = pk1;
        for k1 in 0..=elenk {
            let (e, mut pj, ln) = if k1 == elenk {
                (k, p, self.len[k] - elenk)
            } else {
                let e = self.iw[p] as usize;
                p += 1;
                (e, self.pe[e] as usize, self.len[e])
            };
            for _ in 0..ln {
                let i = self.iw[pj] as usize;
                pj += 1;
                let nvi = self.nv[i];
                if nvi <= 0 {
                    continue; // dead, or already in Lk
                }
                dk += nvi;
                self.nv[i] = -nvi;
                self.iw[pk2] = ix(i);
                pk2 += 1;
                self.unlink_degree(i);
            }
            if e != k {
                self.pe[e] = flip(ix(k));
                self.w[e] = 0;
            }
        }
        if elenk != 0 {
            self.cnz = pk2;
        }
        self.degree[k] = dk;
        self.pe[k] = ix(pk1);
        self.len[k] = ix(pk2 - pk1);
        self.elen[k] = -2;
        (pk1, pk2, dk)
    }

    /// Scan 1: `w[e] − mark = |Le \ Lk|` for every element `e` adjacent
    /// to a variable of `Lk`.
    fn set_differences(&mut self, pk1: usize, pk2: usize) {
        for pk in pk1..pk2 {
            let i = self.iw[pk] as usize;
            let eln = self.elen[i];
            if eln <= 0 {
                continue;
            }
            let nvi = -self.nv[i];
            let wnvi = self.mark - nvi;
            let p1 = self.pe[i] as usize;
            for p in p1..p1 + eln as usize {
                let e = self.iw[p] as usize;
                if self.w[e] >= self.mark {
                    self.w[e] -= nvi;
                } else if self.w[e] != 0 {
                    self.w[e] = self.degree[e] + wnvi;
                }
            }
        }
    }

    /// Scan 2: prunes each variable of `Lk` (absorbed elements, and
    /// variables now covered by `k`), puts `k` first in its element list,
    /// bounds its external degree, and files it in a hash bucket. An
    /// element whose variables all lie in `Lk` is absorbed into `k`; a
    /// variable with nothing outside `Lk` is eliminated with `k`.
    fn update_degrees(&mut self, k: usize, pk1: usize, pk2: usize, dk: &mut i32, nvk: &mut i32) {
        let n = self.n as usize;
        for pk in pk1..pk2 {
            let i = self.iw[pk] as usize;
            let p1 = self.pe[i] as usize;
            let p2 = p1 + self.elen[i] as usize;
            let mut pn = p1;
            let (mut h, mut d) = (0usize, 0i32);
            for p in p1..p2 {
                let e = self.iw[p] as usize;
                if self.w[e] != 0 {
                    let dext = self.w[e] - self.mark;
                    if dext > 0 {
                        d += dext;
                        self.iw[pn] = ix(e);
                        pn += 1;
                        h = h.wrapping_add(e);
                    } else {
                        self.pe[e] = flip(ix(k));
                        self.w[e] = 0;
                    }
                }
            }
            self.elen[i] = ix(pn - p1 + 1);
            let p3 = pn;
            let p4 = p1 + self.len[i] as usize;
            for p in p2..p4 {
                let j = self.iw[p] as usize;
                let nvj = self.nv[j];
                if nvj <= 0 {
                    continue; // dead, or in Lk
                }
                d += nvj;
                self.iw[pn] = ix(j);
                pn += 1;
                h = h.wrapping_add(j);
            }
            if d == 0 {
                self.pe[i] = flip(ix(k));
                let nvi = -self.nv[i];
                *dk -= nvi;
                *nvk += nvi;
                self.nel += nvi;
                self.nv[i] = 0;
                self.elen[i] = -1;
            } else {
                self.degree[i] = self.degree[i].min(d);
                // k goes first: the first variable moves to the end and
                // the first element to the end of the elements.
                self.iw[pn] = self.iw[p3];
                self.iw[p3] = self.iw[p1];
                self.iw[p1] = ix(k);
                self.len[i] = ix(pn - p1 + 1);
                let h = h % n;
                self.next[i] = self.hhead[h];
                self.hhead[h] = ix(i);
                self.last[i] = ix(h);
            }
        }
    }

    /// Merges the variables of `Lk` whose lists are identical, comparing
    /// only within each hash bucket; the first of a bucket absorbs the
    /// later twins of each of its members.
    fn merge_supervariables(&mut self, pk1: usize, pk2: usize) {
        for pk in pk1..pk2 {
            let i = self.iw[pk] as usize;
            if self.nv[i] >= 0 {
                continue; // dead
            }
            let h = self.last[i] as usize;
            let mut i = self.hhead[h];
            self.hhead[h] = EMPTY;
            while i != EMPTY && self.next[i as usize] != EMPTY {
                let iu = i as usize;
                let (ln, eln) = (self.len[iu] as usize, self.elen[iu]);
                let pi = self.pe[iu] as usize;
                for p in pi + 1..pi + ln {
                    self.w[self.iw[p] as usize] = self.mark;
                }
                let mut jlast = iu;
                let mut j = self.next[iu];
                while j != EMPTY {
                    let ju = j as usize;
                    let pj = self.pe[ju] as usize;
                    let twin = self.len[ju] as usize == ln
                        && self.elen[ju] == eln
                        && self.iw[pj + 1..pj + ln]
                            .iter()
                            .all(|&x| self.w[x as usize] == self.mark);
                    j = self.next[ju];
                    if twin {
                        self.pe[ju] = flip(i);
                        self.nv[iu] += self.nv[ju];
                        self.nv[ju] = 0;
                        self.elen[ju] = -1;
                        self.next[jlast] = j;
                    } else {
                        jlast = ju;
                    }
                }
                i = self.next[iu];
                self.mark += 1;
            }
        }
    }

    /// Postorders the assembly tree (absorbed nodes under the node that
    /// absorbed them, dense nodes under element `n`), children in
    /// ascending order, and returns the order without element `n`.
    fn postorder(mut self) -> Vec<u32> {
        let n = self.n as usize;
        for p in &mut self.pe[..n] {
            *p = flip(*p);
        }
        self.head.fill(EMPTY);
        // Dead variables first, then elements, each list built from the
        // back so children come out ascending within each kind.
        for j in (0..=n).rev() {
            if self.nv[j] <= 0 {
                let parent = self.pe[j] as usize;
                self.next[j] = self.head[parent];
                self.head[parent] = ix(j);
            }
        }
        for e in (0..=n).rev() {
            if self.nv[e] > 0 && self.pe[e] != EMPTY {
                let parent = self.pe[e] as usize;
                self.next[e] = self.head[parent];
                self.head[parent] = ix(e);
            }
        }
        let mut post = Vec::with_capacity(n + 1);
        let stack = &mut self.w;
        for root in 0..=n {
            if self.pe[root] != EMPTY {
                continue;
            }
            let mut top = 0;
            stack[0] = ix(root);
            loop {
                let p = stack[top] as usize;
                let child = self.head[p];
                if child == EMPTY {
                    // CAST(p ≤ n, and n passed the i32 bound): u32 output.
                    #[allow(clippy::cast_possible_truncation)]
                    post.push(p as u32);
                    if top == 0 {
                        break;
                    }
                    top -= 1;
                } else {
                    self.head[p] = self.next[child as usize];
                    top += 1;
                    stack[top] = child;
                }
            }
        }
        debug_assert_eq!(post.last().map(|&p| p as usize), Some(n));
        post.pop();
        post
    }
}

/// Computes the elimination tree of a symmetric matrix given its upper
/// triangle in CSC form (column `k` holds rows `i <= k`). Returns
/// `parent[k]` (or [`u32::MAX`] for roots), using Liu's algorithm with
/// path compression over an ancestor array.
pub fn etree(n: usize, up_colptr: &[usize], up_rows: &[u32]) -> Vec<u32> {
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        // CAST(k < n, and the pattern already indexes rows as u32):
        // compact tree arrays.
        #[allow(clippy::cast_possible_truncation)]
        let ku = k as u32;
        for &ri in &up_rows[up_colptr[k]..up_colptr[k + 1]] {
            let mut i = ri as usize;
            while i < k {
                let next = ancestor[i];
                ancestor[i] = ku;
                if next == NONE {
                    parent[i] = ku;
                    break;
                }
                i = next as usize;
            }
        }
    }
    parent
}

/// Postorders an elimination forest given `parent`. Returns `post` with
/// `post[k]` = the node visited k-th; children are visited in ascending
/// node order (deterministic).
pub fn postorder(parent: &[u32]) -> Vec<u32> {
    let n = parent.len();
    // Build child lists (ascending by construction).
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    // CAST(node indices are below n = parent.len(), and `parent` already
    // holds them as u32): compact child lists and stack.
    #[allow(clippy::cast_possible_truncation)]
    let node = |i: usize| i as u32;
    for i in (0..n).rev() {
        let p = parent[i];
        if p != NONE {
            next[i] = head[p as usize];
            head[p as usize] = node(i);
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack: Vec<u32> = Vec::new();
    for r in (0..n).rev() {
        if parent[r] == NONE {
            stack.push(node(r));
        }
    }
    // Iterative DFS emitting nodes after their children.
    let mut state = vec![false; n]; // false = first visit
    while let Some(&x) = stack.last() {
        let xi = x as usize;
        if !state[xi] {
            state[xi] = true;
            // Push children in reverse so the smallest pops first.
            let mut kids: Vec<u32> = Vec::new();
            let mut c = head[xi];
            while c != NONE {
                kids.push(c);
                c = next[c as usize];
            }
            for &k in kids.iter().rev() {
                stack.push(k);
            }
        } else {
            stack.pop();
            post.push(x);
        }
    }
    post
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the symmetric CSC pattern (with diagonal) of a
    /// rows×cols 5-point grid Laplacian.
    fn grid_pattern(rows: usize, cols: usize) -> (usize, Vec<usize>, Vec<u32>) {
        let n = rows * cols;
        let idx = |r: usize, c: usize| (r * cols + c) as u32;
        let mut cols_out: Vec<Vec<u32>> = vec![Vec::new(); n];
        for r in 0..rows {
            for c in 0..cols {
                let me = idx(r, c) as usize;
                cols_out[me].push(me as u32);
                if r > 0 {
                    cols_out[me].push(idx(r - 1, c));
                }
                if r + 1 < rows {
                    cols_out[me].push(idx(r + 1, c));
                }
                if c > 0 {
                    cols_out[me].push(idx(r, c - 1));
                }
                if c + 1 < cols {
                    cols_out[me].push(idx(r, c + 1));
                }
            }
        }
        let mut col_ptr = vec![0usize];
        let mut row_idx = Vec::new();
        for mut col in cols_out {
            col.sort_unstable();
            row_idx.extend_from_slice(&col);
            col_ptr.push(row_idx.len());
        }
        (n, col_ptr, row_idx)
    }

    fn assert_is_perm(perm: &[u32], n: usize) {
        assert_eq!(perm.len(), n);
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(!seen[p as usize], "duplicate in perm: {p}");
            seen[p as usize] = true;
        }
    }

    /// Exact fill count for a symmetric pattern under a permutation,
    /// via the symbolic row-walk (sum of column counts of L).
    fn fill_nnz(n: usize, col_ptr: &[usize], row_idx: &[u32], perm: &[u32]) -> usize {
        let mut pinv = vec![0u32; n];
        for (k, &p) in perm.iter().enumerate() {
            pinv[p as usize] = k as u32;
        }
        // Upper triangle of the permuted pattern, by column.
        let mut up: Vec<Vec<u32>> = vec![Vec::new(); n];
        for c in 0..n {
            for &r in &row_idx[col_ptr[c]..col_ptr[c + 1]] {
                let i = pinv[r as usize];
                let k = pinv[c];
                if i <= k {
                    up[k as usize].push(i);
                }
            }
        }
        let mut up_colptr = vec![0usize];
        let mut up_rows = Vec::new();
        for col in &mut up {
            col.sort_unstable();
            up_rows.extend_from_slice(col);
            up_colptr.push(up_rows.len());
        }
        let parent = etree(n, &up_colptr, &up_rows);
        // Column counts via flagged etree walks.
        let mut lnz = vec![0usize; n];
        let mut flag = vec![u32::MAX; n];
        for k in 0..n {
            flag[k] = k as u32;
            for &ri in &up_rows[up_colptr[k]..up_colptr[k + 1]] {
                let mut i = ri as usize;
                while flag[i] != k as u32 {
                    flag[i] = k as u32;
                    lnz[i] += 1;
                    let p = parent[i];
                    if p == NONE {
                        break;
                    }
                    i = p as usize;
                }
            }
        }
        lnz.iter().sum::<usize>() + n // + diagonal
    }

    #[test]
    fn amd_returns_valid_permutation() {
        for (rows, cols) in [(1, 1), (2, 2), (3, 5), (8, 8), (16, 16)] {
            let (n, cp, ri) = grid_pattern(rows, cols);
            let perm = amd(n, &cp, &ri);
            assert_is_perm(&perm, n);
        }
    }

    #[test]
    fn amd_handles_empty_and_diagonal_only() {
        assert!(amd(0, &[0], &[]).is_empty());
        // 4 isolated nodes (diagonal-only pattern).
        let cp = vec![0, 1, 2, 3, 4];
        let ri = vec![0u32, 1, 2, 3];
        let perm = amd(4, &cp, &ri);
        assert_is_perm(&perm, 4);
    }

    #[test]
    fn amd_reduces_fill_versus_natural_on_grid() {
        let (n, cp, ri) = grid_pattern(24, 24);
        let natural: Vec<u32> = (0..n as u32).collect();
        let perm = amd(n, &cp, &ri);
        assert_is_perm(&perm, n);
        let fill_nat = fill_nnz(n, &cp, &ri, &natural);
        let fill_amd = fill_nnz(n, &cp, &ri, &perm);
        // Natural ordering on a k×k grid fills ~n·k; AMD should cut it
        // by a wide margin. Require at least 2x to be robust.
        assert!(
            fill_amd * 2 < fill_nat,
            "AMD fill {fill_amd} not < half of natural fill {fill_nat}"
        );
    }

    #[test]
    fn etree_of_chain_is_chain() {
        // Tridiagonal pattern: parent[k] = k+1.
        let n = 6;
        let mut cp = vec![0usize];
        let mut ri = Vec::new();
        for k in 0..n {
            if k > 0 {
                ri.push((k - 1) as u32);
            }
            ri.push(k as u32);
            cp.push(ri.len());
        }
        let parent = etree(n, &cp, &ri);
        for (k, &p) in parent.iter().enumerate().take(n - 1) {
            assert_eq!(p, (k + 1) as u32);
        }
        assert_eq!(parent[n - 1], NONE);
    }

    #[test]
    fn postorder_is_valid_and_subtrees_are_contiguous() {
        // Star: 0..4 all children of 5, plus a chain 6->7.
        let parent = vec![5, 5, 5, 5, 5, NONE, 7, NONE];
        let post = postorder(&parent);
        assert_is_perm(&post, parent.len());
        // Relabel and check parent[k] > k in the new numbering.
        let mut pinv = vec![0u32; parent.len()];
        for (k, &p) in post.iter().enumerate() {
            pinv[p as usize] = k as u32;
        }
        let relabeled: Vec<u32> = post
            .iter()
            .map(|&old| {
                let p = parent[old as usize];
                if p == NONE {
                    NONE
                } else {
                    pinv[p as usize]
                }
            })
            .collect();
        for (k, &p) in relabeled.iter().enumerate() {
            if p != NONE {
                assert!(p as usize > k, "postorder violated at {k}");
            }
        }
        // The star's six nodes occupy one contiguous range ending at
        // its root.
        let star_root = pinv[5] as usize;
        for &leaf in &[0usize, 1, 2, 3, 4] {
            let k = pinv[leaf] as usize;
            assert!(k < star_root && star_root - k <= 5, "leaf {leaf} at {k}");
        }
    }
}
