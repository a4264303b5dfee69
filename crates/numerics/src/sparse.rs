//! Sparse linear algebra for MNA-style systems.
//!
//! The circuit simulator assembles the same Jacobian structure thousands
//! of times (once per Newton trial point, per sweep point, per transient
//! step). This module exploits that repetition at two levels:
//!
//! * **Assembly** — [`PatternAssembler`] records the sparsity pattern on
//!   the first assembly (triplet pushes) and compiles it into a CSR
//!   matrix with a shared [`SparsityPattern`], plus a write plan: the
//!   slot of every recorded write, in call order. Every later assembly
//!   writes values through the plan, block by block, straight into the
//!   preallocated slots with no allocation, no sorting and no search.
//! * **Factorisation** — [`SparseLu`], the circuit engine's solver, is
//!   a sparse LU whose pivot order and fill-in pattern are chosen once
//!   (Markowitz-style threshold pivoting on row-equilibrated magnitudes,
//!   so MNA rows on different unit scales — KCL rows in S, CNFET charge
//!   balances in C/m — compete for pivots on equal terms) and then
//!   **reused across factorizations** — subsequent factors replay the
//!   elimination over the frozen pattern, KLU-style, by running an
//!   update list compiled when the plan froze (each step's L entries
//!   and the factor slots their updates write, as in Gustavson's
//!   compiled Crout codes), in place in the factor storage. Neither
//!   column pre-ordering wins on every circuit, so
//!   the choice is a race: the pivoting elimination runs under the
//!   static ascending-degree order and under [`btf_amd_order`], and the
//!   plan with fewer L+U entries is frozen (a tie keeps the static
//!   one). It is generic over [`LuScalar`], so the real Newton
//!   Jacobians and the complex AC systems share one implementation.
//!   [`DenseLuSolver`], the dense partial-pivoting LU, is kept as the
//!   reference that tests and benches compare against.
//!
//! Both solvers count the multiply–accumulate/divide operations of their
//! most recent factorisation ([`SparseLu::factor_ops`],
//! [`DenseLuSolver::factor_ops`]), so the sparse-vs-dense win is
//! measurable, not just assumed.
//!
//! # Pattern-freeze and replay invariants
//!
//! The fast paths of this module rely on four invariants; violating
//! them is a bug in the *caller*, and the module fails loudly rather
//! than silently degrading:
//!
//! 1. **The recorded pattern is a superset of every later assembly.**
//!    After [`PatternAssembler::finish`] compiles the pattern, a write
//!    ([`BlockWriter::add`]) to an entry outside it panics — the
//!    assembled structure changed, which needs a fresh assembler. A
//!    write inside the pattern but off the recorded write order is
//!    still exact: it takes the searched path.
//!    Callers must therefore record every entry that can *ever* be
//!    structurally nonzero, pushing an explicit `0.0` for entries whose
//!    value happens to vanish at the recording point (e.g. a gmin
//!    diagonal recorded at gmin = 0, or a companion-model conductance
//!    before the step size is known).
//! 2. **The elimination plan is keyed on the pattern, not the values.**
//!    [`SparseLu::factor`] replays its frozen pivot order and
//!    fill-in pattern whenever the incoming matrix shares the recorded
//!    [`SparsityPattern`] (pointer-equal `Arc` or structurally equal
//!    contents). Any *value* change — new Newton iterate, new sweep
//!    point, new transient step size — takes the replay path: no pivot
//!    search, no fill discovery, no allocation.
//! 3. **Replay self-checks its pivots.** A frozen pivot whose magnitude
//!    collapses below `REPIVOT_RATIO` (10⁻¹²) of its row's U-part
//!    maximum — or becomes zero or non-finite — aborts the replay, and
//!    `factor` transparently redoes the full Markowitz-threshold
//!    pivoting factorisation and freezes the new plan. Callers never
//!    see this as an error unless the matrix is genuinely singular; the
//!    `symbolic_factorizations` and `replay_refactorizations` counts of
//!    [`SparseLu::factor_path_stats`] make the fallback observable in
//!    benchmarks.
//! 4. **Partial refactorization trusts the changed-slot set.** A caller
//!    of [`SparseLu::factor_partial`] promises that every A-pattern slot
//!    *not* listed in `changed_slots` holds a value bitwise identical to
//!    the one given to the previous successful factorisation. Under that
//!    contract the solver marks the elimination step of each changed
//!    slot's row dirty, propagates dirtiness forward through the frozen
//!    elimination DAG (step `k` is dirty when any virtual column of its
//!    L part is a dirty step — the recorded U structure, transposed),
//!    and replays *only* the dirty steps; every clean step keeps its
//!    L/U row and pivot from the previous factorisation, so the result
//!    is bitwise identical to a full replay. Marking runs before any
//!    arithmetic, so when the dirty steps reach the measured crossover
//!    share the solver runs the cheaper full replay instead — the same
//!    factors either way. The replayed steps run the
//!    same pivot-collapse self-check as invariant 3, and a collapse
//!    aborts to a full re-pivot exactly as a full replay would. Listing
//!    *extra* (unchanged) slots is always safe — it only costs work; a
//!    *missing* changed slot silently factors the wrong matrix, which is
//!    why [`SparseLu::factor_partial`] is fed from value diffs, never
//!    from per-element bookkeeping guesses.

use crate::complex::Complex;
use crate::error::NumericsError;
use crate::linalg::Matrix;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::sync::Arc;

/// The symbolic (structure-only) part of a CSR matrix: row pointers and
/// sorted column indices, shareable between matrices via [`Arc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
}

impl SparsityPattern {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The sorted column indices of row `r`.
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Storage slot of entry (`r`, `c`), or `None` when the entry is not
    /// part of the pattern.
    pub fn slot(&self, r: usize, c: usize) -> Option<usize> {
        let base = self.row_ptr[r];
        self.row_cols(r).binary_search(&c).ok().map(|i| base + i)
    }

    /// The storage-slot range of row `r`: `row_cols(r)[k]` lives in slot
    /// `row_range(r).start + k` of the value array.
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_ptr[r]..self.row_ptr[r + 1]
    }
}

/// Coordinate-format accumulator used while a sparsity pattern is still
/// being discovered. Duplicate pushes to the same entry are summed when
/// the triplets are compiled to CSR.
#[derive(Debug, Clone)]
pub struct TripletMatrix {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty accumulator of the given shape.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        TripletMatrix {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.n_cols
    }

    /// Number of raw (pre-merge) triplets pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no triplet has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all triplets, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Adds `v` at (`r`, `c`). A value of `0.0` still records the entry
    /// as structurally nonzero — assemblers rely on this to reserve
    /// slots whose value happens to vanish at the recording point.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.n_rows && c < self.n_cols, "index out of bounds");
        self.entries.push((r, c, v));
    }

    /// Compiles the triplets into a CSR matrix, merging duplicates by
    /// summation (in push order, so the result is bitwise identical to
    /// dense `+=` assembly).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&i| (self.entries[i].0, self.entries[i].1));
        let mut row_ptr = vec![0usize; self.n_rows + 1];
        let mut col_idx = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut last: Option<(usize, usize)> = None;
        for &i in &order {
            let (r, c, v) = self.entries[i];
            if last == Some((r, c)) {
                *values.last_mut().expect("merged entry exists") += v;
            } else {
                row_ptr[r + 1] += 1;
                col_idx.push(c);
                values.push(v);
                last = Some((r, c));
            }
        }
        for r in 0..self.n_rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            pattern: Arc::new(SparsityPattern {
                n_rows: self.n_rows,
                n_cols: self.n_cols,
                row_ptr,
                col_idx,
            }),
            values,
        }
    }
}

/// A compressed-sparse-row matrix whose [`SparsityPattern`] is shared
/// (and comparable by pointer) so solvers can cache symbolic work per
/// pattern.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    pattern: Arc<SparsityPattern>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.pattern.n_rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.pattern.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// The shared symbolic pattern.
    pub fn pattern(&self) -> &Arc<SparsityPattern> {
        &self.pattern
    }

    /// The stored values, in pattern slot order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sets every stored value to zero, keeping the pattern.
    pub fn set_zero(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Adds `v` to entry (`r`, `c`). Returns `false` (and changes
    /// nothing) when the entry is outside the pattern.
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) -> bool {
        match self.pattern.slot(r, c) {
            Some(i) => {
                self.values[i] += v;
                true
            }
            None => false,
        }
    }

    /// Value at (`r`, `c`) — zero for entries outside the pattern.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.pattern.slot(r, c).map_or(0.0, |i| self.values[i])
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols(), "dimension mismatch");
        let mut y = vec![0.0; self.rows()];
        for (r, yr) in y.iter_mut().enumerate() {
            let lo = self.pattern.row_ptr[r];
            let hi = self.pattern.row_ptr[r + 1];
            *yr = (lo..hi)
                .map(|i| self.values[i] * x[self.pattern.col_idx[i]])
                .sum();
        }
        y
    }

    /// Expands to a dense [`Matrix`].
    ///
    /// # Panics
    ///
    /// Panics for a zero-dimension matrix (dense [`Matrix`] requires
    /// positive dimensions).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), self.cols());
        self.scatter_into(&mut m);
        m
    }

    /// Writes this matrix into `dense` (which must already have the right
    /// shape), zeroing everything else.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn scatter_into(&self, dense: &mut Matrix) {
        assert!(
            dense.rows() == self.rows() && dense.cols() == self.cols(),
            "dimension mismatch"
        );
        dense.fill(0.0);
        for r in 0..self.rows() {
            let lo = self.pattern.row_ptr[r];
            let hi = self.pattern.row_ptr[r + 1];
            for i in lo..hi {
                dense[(r, self.pattern.col_idx[i])] = self.values[i];
            }
        }
    }
}

/// Result of a [`structural_rank`] computation: the size of a maximum
/// row–column matching plus the rows and columns left unmatched.
///
/// A square matrix is **structurally nonsingular** — some choice of
/// values on its nonzero entries makes it invertible — exactly when the
/// matching is perfect ([`StructuralRank::is_full`]). A structurally
/// singular matrix is numerically singular for *every* assignment of
/// values, so the unmatched columns pinpoint unknowns that no equation
/// can determine (and the unmatched rows, equations that constrain
/// nothing) before any factorisation is attempted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralRank {
    /// Size of the maximum bipartite matching between rows and columns.
    pub rank: usize,
    /// Rows not covered by the matching, ascending.
    pub unmatched_rows: Vec<usize>,
    /// Columns not covered by the matching, ascending.
    pub unmatched_cols: Vec<usize>,
}

impl StructuralRank {
    /// `true` when every row and every column is matched (for a square
    /// matrix: `rank == n`, i.e. structurally nonsingular).
    pub fn is_full(&self) -> bool {
        self.unmatched_rows.is_empty() && self.unmatched_cols.is_empty()
    }
}

/// Structural rank of a sparse matrix via maximum bipartite matching
/// (Kuhn's augmenting-path algorithm) on its *nonzero* entries.
///
/// Entries whose stored value is exactly `0.0` are ignored: assemblers
/// reserve slots for entries that can *become* nonzero later (a gmin
/// diagonal recorded at gmin = 0, a companion-model conductance before
/// the step size is known), and such placeholders are not structural
/// entries of the assembled operator. Callers who want the rank of the
/// pattern itself should therefore assemble with representative values.
///
/// The maximum matching is the entry point to the Dulmage–Mendelsohn
/// coarse decomposition (the roadmap's BTF ordering work); here it is
/// used to diagnose structurally singular MNA systems with the exact
/// unmatched unknowns.
pub fn structural_rank(m: &CsrMatrix) -> StructuralRank {
    let pattern = m.pattern();
    let values = m.values();
    let (row_for_col, rank) = max_matching(pattern, |slot| values[slot] != 0.0);
    let mut row_matched = vec![false; pattern.rows()];
    for &r in row_for_col.iter().filter(|&&r| r != usize::MAX) {
        row_matched[r] = true;
    }
    StructuralRank {
        rank,
        unmatched_rows: (0..pattern.rows()).filter(|&r| !row_matched[r]).collect(),
        unmatched_cols: (0..pattern.cols())
            .filter(|&c| row_for_col[c] == usize::MAX)
            .collect(),
    }
}

/// Maximum bipartite matching of rows to columns (Kuhn's augmenting
/// paths) over the pattern slots that `keep` accepts. Rows are matched
/// in ascending order, each scanning its columns in pattern order.
/// Returns `row_for_col` (the row matched to each column, `usize::MAX`
/// when unmatched) and the size of the matching.
fn max_matching(pattern: &SparsityPattern, keep: impl Fn(usize) -> bool) -> (Vec<usize>, usize) {
    fn augment<F: Fn(usize) -> bool>(
        r: usize,
        pattern: &SparsityPattern,
        keep: &F,
        stamp: usize,
        seen: &mut [usize],
        row_for_col: &mut [usize],
    ) -> bool {
        for (slot, &c) in pattern.row_range(r).zip(pattern.row_cols(r)) {
            if !keep(slot) || seen[c] == stamp {
                continue;
            }
            seen[c] = stamp;
            let owner = row_for_col[c];
            if owner == usize::MAX || augment(owner, pattern, keep, stamp, seen, row_for_col) {
                row_for_col[c] = r;
                return true;
            }
        }
        false
    }

    // `seen` carries a per-row stamp so it is never cleared between
    // augmenting phases; stamps start at 1 so the zero-initialised
    // `seen` is "unseen".
    let mut row_for_col = vec![usize::MAX; pattern.cols()];
    let mut seen = vec![0usize; pattern.cols()];
    let mut rank = 0;
    for r in 0..pattern.rows() {
        if augment(r, pattern, &keep, r + 1, &mut seen, &mut row_for_col) {
            rank += 1;
        }
    }
    (row_for_col, rank)
}

/// The static fill-reducing column ordering: ascending initial column
/// degree, ties broken by column index (dense rail columns go last).
///
/// # Panics
///
/// Panics if the pattern is not square.
fn ascending_degree_order(pattern: &SparsityPattern) -> Vec<usize> {
    assert_eq!(
        pattern.rows(),
        pattern.cols(),
        "ordering needs a square pattern"
    );
    let n = pattern.cols();
    let mut col_degree = vec![0usize; n];
    for &c in &pattern.col_idx {
        col_degree[c] += 1;
    }
    let mut col_order: Vec<usize> = (0..n).collect();
    col_order.sort_by_key(|&c| (col_degree[c], c));
    col_order
}

/// Sorted, deduplicated adjacency lists of `A + Aᵀ` without the
/// diagonal — the undirected graph minimum-degree ordering works on.
fn symmetrized_adjacency(pattern: &SparsityPattern) -> Vec<Vec<usize>> {
    let n = pattern.rows();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        for &c in pattern.row_cols(r) {
            if r != c {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// Sorted union of two sorted neighbour lists, dropping `skip_a`,
/// `skip_b` and dead vertices.
fn merge_live_union(
    a: &[usize],
    b: &[usize],
    skip_a: usize,
    skip_b: usize,
    alive: &[bool],
) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let v = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!("loop condition"),
        };
        if v != skip_a && v != skip_b && alive[v] {
            out.push(v);
        }
    }
    out
}

/// Minimum-degree elimination ordering of the vertices in `members`
/// (ascending indices into the full graph), on the subgraph of
/// `adj_full` they induce. Exact external degrees via explicit clique
/// merging; ties broken by smallest index, so the result is
/// deterministic.
fn min_degree_order(adj_full: &[Vec<usize>], members: &[usize]) -> Vec<usize> {
    let n = members.len();
    if n <= 1 {
        return members.to_vec();
    }
    let mut local = vec![usize::MAX; adj_full.len()];
    for (i, &v) in members.iter().enumerate() {
        local[v] = i;
    }
    // Local adjacency restricted to the member set. `members` is
    // ascending, so mapped lists stay sorted.
    let mut adj: Vec<Vec<usize>> = members
        .iter()
        .map(|&v| {
            adj_full[v]
                .iter()
                .filter_map(|&u| (local[u] != usize::MAX).then_some(local[u]))
                .collect()
        })
        .collect();
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n)
            .filter(|&v| alive[v])
            .min_by_key(|&v| (adj[v].len(), v))
            .expect("a live vertex remains");
        alive[v] = false;
        order.push(members[v]);
        // Eliminating v turns its live neighbourhood into a clique and
        // removes v — the neighbours' lists stay exact-live-degree.
        let nbrs = std::mem::take(&mut adj[v]);
        for &u in nbrs.iter().filter(|&&u| alive[u]) {
            adj[u] = merge_live_union(&adj[u], &nbrs, u, v, &alive);
        }
    }
    order
}

/// Structural perfect matching `column → row` on the pattern (values
/// ignored: reserved zero slots are structural here, since the plan
/// must stay valid for any values with this structure). `None` when no
/// perfect matching exists (structurally singular).
fn pattern_matching(pattern: &SparsityPattern) -> Option<Vec<usize>> {
    let (row_for_col, rank) = max_matching(pattern, |_| true);
    (rank == pattern.rows()).then_some(row_for_col)
}

/// Tarjan's strongly-connected-components algorithm, iterative so deep
/// chains cannot overflow the call stack. Components come out in
/// reverse topological order of the condensation.
fn tarjan_scc(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut next_index = 0usize;
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        call.push((start, 0));
        while let Some(frame) = call.last_mut() {
            let v = frame.0;
            if frame.1 < edges[v].len() {
                let w = edges[v][frame.1];
                frame.1 += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    let p = parent.0;
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("component members are on the stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

/// BTF + AMD column ordering: finds a structural matching, permutes to
/// block-triangular form (Tarjan SCCs of the matched column digraph in
/// topological order) and orders each diagonal block by minimum degree
/// on `A + Aᵀ`. Falls back to plain minimum degree when the pattern has
/// no perfect matching (it is then structurally singular and the
/// factorisation will report that on its own).
///
/// # Panics
///
/// Panics if the pattern is not square.
pub fn btf_amd_order(pattern: &SparsityPattern) -> Vec<usize> {
    assert_eq!(
        pattern.rows(),
        pattern.cols(),
        "ordering needs a square pattern"
    );
    let n = pattern.rows();
    let adj = symmetrized_adjacency(pattern);
    let Some(row_for_col) = pattern_matching(pattern) else {
        let members: Vec<usize> = (0..n).collect();
        return min_degree_order(&adj, &members);
    };
    // Column digraph: c → c' when c's matched row has an entry in c'.
    let edges: Vec<Vec<usize>> = (0..n)
        .map(|c| {
            pattern
                .row_cols(row_for_col[c])
                .iter()
                .copied()
                .filter(|&c2| c2 != c)
                .collect()
        })
        .collect();
    let comps = tarjan_scc(&edges);
    let mut order = Vec::with_capacity(n);
    for comp in comps.iter().rev() {
        let mut members = comp.clone();
        members.sort_unstable();
        order.extend(min_degree_order(&adj, &members));
    }
    order
}

/// Cumulative factorisation-path statistics of a [`SparseLu`]: how
/// often each path ran and how much of the elimination it recomputed.
/// All counters are monotone; per-analysis figures come from
/// [`FactorPathStats::delta_since`] against a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorPathStats {
    /// Full pivot-searching factorisations (symbolic + numeric).
    pub symbolic_factorizations: u64,
    /// Full replays of a frozen elimination plan.
    pub replay_refactorizations: u64,
    /// Partial replays restricted to changed-slot-affected columns.
    pub partial_refactorizations: u64,
    /// Elimination steps (columns) actually recomputed, over all paths.
    pub columns_recomputed: u64,
    /// Elimination steps that a full recomputation would have run —
    /// `columns_recomputed / columns_total` is the partial-path win.
    pub columns_total: u64,
}

impl FactorPathStats {
    /// Component-wise difference against an earlier snapshot
    /// (saturating, so a solver swap mid-flight yields zeros rather
    /// than wrapping).
    pub fn delta_since(&self, baseline: &FactorPathStats) -> FactorPathStats {
        FactorPathStats {
            symbolic_factorizations: self
                .symbolic_factorizations
                .saturating_sub(baseline.symbolic_factorizations),
            replay_refactorizations: self
                .replay_refactorizations
                .saturating_sub(baseline.replay_refactorizations),
            partial_refactorizations: self
                .partial_refactorizations
                .saturating_sub(baseline.partial_refactorizations),
            columns_recomputed: self
                .columns_recomputed
                .saturating_sub(baseline.columns_recomputed),
            columns_total: self.columns_total.saturating_sub(baseline.columns_total),
        }
    }
}

/// Pattern-caching assembly target.
///
/// The first assembly cycle (`begin` → writes → `finish`) records
/// triplets and compiles the sparsity pattern; every later cycle zeroes
/// the stored values and routes each write to its preallocated slot —
/// no allocation, no sorting, no hashing. A change of the assembled
/// structure (e.g. a circuit gained elements) needs a fresh assembler.
///
/// `finish` also compiles the recording cycle's writes, in call order,
/// into a write plan: one (packed row/column key, slot) pair per write,
/// the matrix positions worked out once as in a SPICE3 device setup.
/// Writes arrive in blocks ([`PatternAssembler::add_block`], one per
/// element stamp) through a [`BlockWriter`] that walks the plan with a
/// cursor held in a local: a write whose (row, col) equals the planned
/// one is a direct slot `+=`; one that deviates takes the searched path
/// (a binary search in its row) and stays correct, and one outside the
/// pattern panics.
#[derive(Debug)]
pub struct PatternAssembler {
    state: AsmState,
    pattern_builds: usize,
    /// The recording cycle's writes in call order, compiled to slots at
    /// `finish`.
    plan: Vec<PlannedWrite>,
    /// Position in the write plan of the current cycle.
    cursor: usize,
    replay_hits: u64,
    replay_misses: u64,
}

#[derive(Debug)]
enum AsmState {
    Recording(TripletMatrix),
    Ready(CsrMatrix),
}

/// One recorded write: its (row, col) packed by [`write_key`] and the
/// pattern slot it lands in.
#[derive(Debug, Clone, Copy)]
struct PlannedWrite {
    key: u64,
    slot: u32,
}

/// Packs (`r`, `c`) into one comparable key. An index past `u32` maps
/// to `u64::MAX`, which no recorded write holds: a recorded index is
/// below its dimension, and `finish` keeps dimensions within `u32`.
#[inline]
fn write_key(r: usize, c: usize) -> u64 {
    let (r, c) = (r as u64, c as u64);
    if (r | c) >> 32 == 0 {
        (r << 32) | c
    } else {
        u64::MAX
    }
}

/// The writer of one block of assembly writes, lent by
/// [`PatternAssembler::add_block`]. A write that follows the plan is a
/// slot `+=`; every other write — each one while the pattern is still
/// being recorded — goes to the cold `off_plan` path.
#[derive(Debug)]
pub struct BlockWriter<'a> {
    plan: &'a [PlannedWrite],
    values: &'a mut [f64],
    cursor: usize,
    misses: u64,
    off_plan: OffPlan<'a>,
}

/// Where a write off the write plan goes.
#[derive(Debug)]
enum OffPlan<'a> {
    /// The recording cycle's triplets (the plan is still empty).
    Record(&'a mut TripletMatrix),
    /// The searched path through the compiled pattern.
    Search(&'a SparsityPattern),
}

impl BlockWriter<'_> {
    /// Adds `v` at (`r`, `c`). Zero values still reserve a slot while
    /// recording.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds, or if the entry is
    /// missing from a cached pattern — that means the assembled
    /// structure changed, which needs a fresh assembler.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        if let Some(w) = self.plan.get(self.cursor) {
            if w.key == write_key(r, c) {
                self.values[w.slot as usize] += v;
                self.cursor += 1;
                return;
            }
        }
        if off_plan(&mut self.off_plan, self.values, r, c, v) {
            self.misses += 1;
        }
    }
}

/// A write off the plan: recorded as a triplet while recording
/// (returns `false`), and afterwards added through a slot search in its
/// row (returns `true`, a plan miss).
#[cold]
#[inline(never)]
fn off_plan(target: &mut OffPlan<'_>, values: &mut [f64], r: usize, c: usize, v: f64) -> bool {
    match target {
        OffPlan::Record(t) => {
            t.push(r, c, v);
            false
        }
        OffPlan::Search(pattern) => {
            let slot = pattern.slot(r, c).unwrap_or_else(|| {
                panic!(
                    "entry ({r}, {c}) is not in the cached sparsity pattern; \
                     a structural change needs a fresh assembler"
                )
            });
            values[slot] += v;
            true
        }
    }
}

impl PatternAssembler {
    /// Creates an assembler for matrices of the given shape, starting in
    /// recording mode.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        PatternAssembler {
            state: AsmState::Recording(TripletMatrix::new(n_rows, n_cols)),
            pattern_builds: 0,
            plan: Vec::new(),
            cursor: 0,
            replay_hits: 0,
            replay_misses: 0,
        }
    }

    /// `true` while the sparsity pattern is still being recorded.
    pub fn is_recording(&self) -> bool {
        matches!(self.state, AsmState::Recording(_))
    }

    /// Writes that followed the write plan (no slot search).
    pub fn replay_hits(&self) -> u64 {
        self.replay_hits
    }

    /// Writes that left the write plan and took the searched path.
    pub fn replay_misses(&self) -> u64 {
        self.replay_misses
    }

    /// How many times a pattern has been compiled (diagnostics; lets
    /// callers assert that structure changes rebuild the cache).
    pub fn pattern_builds(&self) -> usize {
        self.pattern_builds
    }

    /// Starts a new assembly cycle: clears triplets (recording mode) or
    /// zeroes the cached values (pattern mode).
    pub fn begin(&mut self) {
        match &mut self.state {
            AsmState::Recording(t) => t.clear(),
            AsmState::Ready(m) => m.set_zero(),
        }
        self.cursor = 0;
    }

    /// Hands `writes` a [`BlockWriter`] for one block of writes. The
    /// writer carries the plan cursor in a local and hands it back when
    /// the block ends.
    pub fn add_block(&mut self, writes: impl FnOnce(&mut BlockWriter<'_>)) {
        let (values, off_plan): (&mut [f64], _) = match &mut self.state {
            AsmState::Recording(t) => (&mut [], OffPlan::Record(t)),
            AsmState::Ready(m) => (&mut m.values, OffPlan::Search(&m.pattern)),
        };
        let mut writer = BlockWriter {
            plan: &self.plan,
            values,
            cursor: self.cursor,
            misses: 0,
            off_plan,
        };
        writes(&mut writer);
        // The cursor advances on plan hits only.
        self.replay_hits += (writer.cursor - self.cursor) as u64;
        self.replay_misses += writer.misses;
        self.cursor = writer.cursor;
    }

    /// Finishes the cycle and returns the assembled matrix, compiling
    /// the pattern and the write plan on the first call.
    ///
    /// # Panics
    ///
    /// Panics if a dimension or the entry count of the compiled
    /// pattern exceeds `u32`.
    pub fn finish(&mut self) -> &CsrMatrix {
        if let AsmState::Recording(t) = &self.state {
            let m = t.to_csr();
            assert!(
                u32::try_from(t.n_rows.max(t.n_cols)).is_ok(),
                "matrix dimensions exceed the write plan's u32 keys"
            );
            self.plan = t
                .entries
                .iter()
                .map(|&(r, c, _)| {
                    let slot = m.pattern.slot(r, c).expect("recorded write is in pattern");
                    PlannedWrite {
                        key: write_key(r, c),
                        slot: u32::try_from(slot).expect("pattern slots fit u32"),
                    }
                })
                .collect();
            self.state = AsmState::Ready(m);
            self.pattern_builds += 1;
        }
        match &self.state {
            AsmState::Ready(m) => m,
            AsmState::Recording(_) => unreachable!("compiled above"),
        }
    }

    /// The assembled matrix of the last finished cycle, if any.
    pub fn matrix(&self) -> Option<&CsrMatrix> {
        match &self.state {
            AsmState::Ready(m) => Some(m),
            AsmState::Recording(_) => None,
        }
    }
}

/// Exact operation count (divisions + multiply–subtracts) of the dense
/// partial-pivoting LU in [`Matrix::lu`] for an `n × n` matrix.
pub fn dense_lu_ops(n: usize) -> u64 {
    (0..n)
        .map(|k| {
            let below = (n - k - 1) as u64;
            below + below * below
        })
        .sum()
}

/// The dense reference: scatters the sparse matrix into a reused dense
/// buffer and runs the existing partial-pivoting LU.
#[derive(Debug, Default)]
pub struct DenseLuSolver {
    buffer: Option<Matrix>,
    factors: Option<crate::linalg::LuDecomposition>,
    ops: u64,
}

impl DenseLuSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Factors `a`, replacing any previously stored factors. A failed
    /// factorisation discards the previous factors as well, so
    /// `solve_factored` errors rather than serving stale factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] for (numerically)
    /// singular input and [`NumericsError::InvalidInput`] for non-square
    /// input.
    pub fn factor(&mut self, a: &CsrMatrix) -> Result<(), NumericsError> {
        let n = a.rows();
        if n != a.cols() {
            return Err(NumericsError::InvalidInput(format!(
                "factor requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let reuse = self.buffer.as_ref().is_some_and(|m| m.rows() == n);
        if !reuse {
            self.buffer = Some(Matrix::zeros(n, n));
        }
        let dense = self.buffer.as_mut().expect("buffer allocated above");
        a.scatter_into(dense);
        match dense.lu() {
            Ok(f) => {
                self.factors = Some(f);
                self.ops = dense_lu_ops(n);
                Ok(())
            }
            Err(e) => {
                self.factors = None;
                Err(e)
            }
        }
    }

    /// Solves `A x = b` with the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] when there are no valid
    /// factors (never factored, or the last factor failed) or `b` has
    /// the wrong length.
    pub fn solve_factored(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let f = self.factors.as_ref().ok_or_else(|| {
            NumericsError::InvalidInput("solve_factored called before factor".into())
        })?;
        let n = self.buffer.as_ref().map_or(0, Matrix::rows);
        if b.len() != n {
            return Err(NumericsError::InvalidInput(format!(
                "rhs length {} does not match dimension {n}",
                b.len()
            )));
        }
        Ok(f.solve(b))
    }

    /// Factors `a` and solves in one call.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`DenseLuSolver::factor`] and
    /// [`DenseLuSolver::solve_factored`].
    pub fn solve(&mut self, a: &CsrMatrix, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        self.factor(a)?;
        self.solve_factored(b)
    }

    /// Multiply–accumulate + divide count of the most recent
    /// factorisation ([`dense_lu_ops`] of its dimension).
    pub fn factor_ops(&self) -> u64 {
        self.ops
    }
}

/// Scalar types the sparse LU elimination is generic over.
///
/// The factorisation algorithm only needs field arithmetic plus a real
/// magnitude for pivot decisions, so one implementation serves both the
/// real Newton Jacobians (`f64`) and the complex AC small-signal
/// systems `G + jωC` ([`Complex`]).
pub trait LuScalar:
    Copy
    + std::fmt::Debug
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
{
    /// Additive identity.
    const ZERO: Self;

    /// Magnitude used for pivot eligibility and collapse detection.
    fn modulus(self) -> f64;

    /// `true` when the value has no NaN or infinite component.
    fn is_finite(self) -> bool;
}

impl LuScalar for f64 {
    const ZERO: Self = 0.0;

    fn modulus(self) -> f64 {
        self.abs()
    }

    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl LuScalar for Complex {
    const ZERO: Self = Complex::ZERO;

    fn modulus(self) -> f64 {
        self.abs()
    }

    fn is_finite(self) -> bool {
        Complex::is_finite(self)
    }
}

/// Scalar-generic sparse LU with a cached elimination plan, operating on
/// a shared [`SparsityPattern`] plus a value slice in pattern slot
/// order.
///
/// The first factorisation of a pattern runs a full right-looking
/// elimination with Markowitz-style threshold pivoting (prefer short
/// rows among candidates whose pivot magnitude is within
/// `PIVOT_THRESHOLD` of the column maximum) and records the pivot order
/// plus the complete fill-in pattern. The pivot search compares
/// row-equilibrated magnitudes `|a_rk| / max_j |a_rj|`, each row scaled
/// once by its largest incoming entry as in KLU (Davis & Palamadai
/// Natarajan, ACM TOMS 2010), so a short row whose entries are small in
/// absolute units can pivot its own column instead of inheriting a long
/// row's pattern as fill; the factors themselves are of the unscaled
/// matrix. Freezing the plan also compiles its replay into an update
/// list: for each step, its L entries in ascending column order and,
/// per L entry, the slots of the step's own row that the pivot row's U
/// tail updates. Later factorisations of the *same* pattern run that
/// list in place in the factor storage — the elimination's arithmetic
/// in the elimination's order, with no pivot search, no pattern
/// discovery, no scatter workspace and no allocation. If a frozen pivot
/// collapses numerically the solver transparently redoes the pivoting
/// factorisation.
///
/// A real system assembled as a [`CsrMatrix`] `a` is factored with
/// `factor(a.pattern(), a.values())`. A complex-valued system such as
/// an AC sweep re-values one frozen pattern per frequency point:
///
/// ```
/// use cntfet_numerics::complex::Complex;
/// use cntfet_numerics::sparse::{SparseLu, TripletMatrix};
/// use std::sync::Arc;
///
/// // Pattern from a real assembly; values re-valued per frequency.
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(1, 1, 1.0);
/// let pattern = Arc::clone(t.to_csr().pattern());
/// let mut lu = SparseLu::<Complex>::new();
/// for omega in [1.0, 10.0, 100.0] {
///     let vals = vec![Complex::new(1.0, omega), Complex::new(2.0, omega)];
///     lu.factor(&pattern, &vals).unwrap();
///     let x = lu.solve_factored(&[Complex::ONE, Complex::ONE]).unwrap();
///     assert!((x[0] - Complex::ONE / Complex::new(1.0, omega)).abs() < 1e-15);
/// }
/// let paths = lu.factor_path_stats();
/// assert_eq!(paths.symbolic_factorizations, 1); // ordered once,
/// assert_eq!(paths.replay_refactorizations, 2); // re-valued afterwards
/// ```
#[derive(Debug)]
pub struct SparseLu<T> {
    symbolic: Option<Symbolic>,
    f_values: Vec<T>,
    diag: Vec<T>,
    /// Dirty-step flags of the partial-refactorization scan; all false
    /// between calls.
    step_flag: Vec<bool>,
    ops: u64,
    paths: FactorPathStats,
}

impl<T> Default for SparseLu<T> {
    fn default() -> Self {
        SparseLu {
            symbolic: None,
            f_values: Vec::new(),
            diag: Vec::new(),
            step_flag: Vec::new(),
            ops: 0,
            paths: FactorPathStats::default(),
        }
    }
}

#[derive(Debug)]
struct Symbolic {
    pattern: Arc<SparsityPattern>,
    /// `perm[k]` = original row index used as the pivot of step `k`.
    perm: Vec<usize>,
    /// `col_order[k]` = original column eliminated at step `k` (the
    /// fill-reducing pre-ordering whose elimination won the race when
    /// the plan was frozen: see `factor_with_pivoting`).
    col_order: Vec<usize>,
    /// Factor storage structure, per original row: full fill-in
    /// pattern. Column indices are *virtual* (elimination-order) —
    /// `col_order` maps them back.
    f_row_ptr: Vec<usize>,
    f_col_idx: Vec<usize>,
    /// First slot of row `r`'s U part (its pivot column `pos[r]`).
    u_start: Vec<usize>,
    /// Slot of the pivot entry (`perm[k]`, `k`) per step.
    diag_slot: Vec<usize>,
    /// Maps each slot of the A pattern to its slot in factor storage.
    a_to_f: Vec<usize>,
    /// Inverse of `perm`: the elimination step at which each original
    /// row is the pivot.
    row_step: Vec<usize>,
    /// Original row of each A-pattern slot (changed slot → dirty step).
    slot_row: Vec<usize>,
    /// CSR over steps: `dep_steps[dep_ptr[k]..dep_ptr[k + 1]]` are the
    /// steps whose row carries an L entry in virtual column `k` — the
    /// steps whose elimination reads step `k`'s U row and pivot, i.e.
    /// the out-edges of the elimination DAG used by the partial
    /// refactorization's dirtiness propagation. Dependents always have
    /// step index > `k`, so one ascending flag scan settles the set.
    dep_ptr: Vec<usize>,
    dep_steps: Vec<usize>,
    /// The replay's compiled update list, per step: the row of step `k`
    /// takes, for each L entry in ascending column `c`, one update
    /// `f[dst] -= m · f[src]` per entry of step `c`'s U tail, whose
    /// sources are contiguous from `diag_slot[c] + 1` to `u_end[c]`.
    /// `upd_dst[upd_ptr[k]..upd_ptr[k + 1]]` lists step `k`'s
    /// destinations (slots of its own row) in that order.
    upd_ptr: Vec<usize>,
    upd_dst: Vec<u32>,
    /// End of each step's pivot-row storage (its U tail's last slot + 1).
    u_end: Vec<usize>,
}

/// A finished right-looking elimination before it is compiled into
/// frozen factor storage: the [`SparseLu`] ordering race runs one per
/// candidate ordering and installs the one with less fill.
struct Elimination<T> {
    col_order: Vec<usize>,
    col_rank: Vec<usize>,
    perm: Vec<usize>,
    rows: Vec<Vec<(usize, T)>>,
    ops: u64,
}

impl<T> Elimination<T> {
    /// Total recorded L+U entries (the fill the plan commits to).
    fn fill_nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// Relative magnitude a candidate pivot must reach (row-equilibrated,
/// vs the column's largest row-equilibrated magnitude) to be eligible
/// for the Markowitz tie-break.
const PIVOT_THRESHOLD: f64 = 1e-3;

/// A frozen pivot smaller than this fraction of its row's U-part maximum
/// triggers a fresh pivoting factorisation.
const REPIVOT_RATIO: f64 = 1e-12;

/// Share of elimination steps at or above which a partial
/// refactorisation runs the full replay instead of replaying only the
/// dirty steps. Measured on the transient plan of the 1000-gate ring
/// array (`cntfet-gen ring-array 125 8` with `.tran 2n`: 3 004
/// unknowns, 17 631 L+U entries) inside its run, timing every replay
/// of seven runs (release build, 2-core x86-64 host whose speed drifts
/// by a third): a full replay costs 38–57 ns per step and a partial
/// one 60–86 ns per replayed step (it resets each dirty row on its own
/// and walks the scattered step set). Within each run the full
/// replay's per-step cost is 0.61–0.67 of the partial one's, so the
/// partial path stops paying off at about two thirds of the steps; at
/// this share the two replays cost the same within the host's noise.
const PARTIAL_REPLAY_MAX_SHARE: f64 = 0.7;

impl<T: LuScalar> SparseLu<T> {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative factorisation-path statistics.
    pub fn factor_path_stats(&self) -> FactorPathStats {
        self.paths
    }

    /// Multiply–accumulate + divide count of the most recent
    /// factorisation.
    pub fn factor_ops(&self) -> u64 {
        self.ops
    }

    /// Number of stored L+U entries of the current elimination plan
    /// (0 before the first factorisation).
    pub fn factor_nnz(&self) -> usize {
        self.symbolic.as_ref().map_or(0, |s| s.f_col_idx.len())
    }

    /// Factors the matrix given by `pattern` plus `values` (in pattern
    /// slot order), replacing any previously stored factors. The same
    /// pattern as the last call takes the fast elimination-replay path;
    /// a failed factorisation discards the previous factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] for (numerically)
    /// singular input and [`NumericsError::InvalidInput`] for non-square
    /// input or a value slice that does not match the pattern.
    pub fn factor(
        &mut self,
        pattern: &Arc<SparsityPattern>,
        values: &[T],
    ) -> Result<(), NumericsError> {
        self.factor_or_replay(pattern, values, None)
    }

    /// Factors under the partial-refactorization contract (module
    /// invariant 4): every pattern slot *not* in `changed_slots` must be
    /// bitwise identical to the previous successful factorisation of
    /// this pattern. Only the elimination steps reachable from the
    /// changed slots through the frozen elimination DAG are replayed —
    /// or every step, by the full replay, when those are 70% of the
    /// steps or more (the measured crossover of the two replays); the
    /// result is bitwise identical to a full [`SparseLu::factor`]
    /// either way.
    /// When no plan for this pattern is frozen — or a replayed pivot
    /// collapses — the call transparently runs the full pivoting
    /// factorisation, exactly like `factor`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] for (numerically)
    /// singular input and [`NumericsError::InvalidInput`] for non-square
    /// input, a value slice that does not match the pattern, or a
    /// changed slot outside the pattern.
    pub fn factor_partial(
        &mut self,
        pattern: &Arc<SparsityPattern>,
        values: &[T],
        changed_slots: &[usize],
    ) -> Result<(), NumericsError> {
        self.factor_or_replay(pattern, values, Some(changed_slots))
    }

    /// The shared body of [`SparseLu::factor`] (`changed` is `None`:
    /// a full replay) and [`SparseLu::factor_partial`] (`Some`: a
    /// partial replay of those slots). Checks the shapes, replays a
    /// frozen plan of the same pattern, falls back to re-pivoting when
    /// a frozen pivot collapses, and drops the plan after any failure.
    fn factor_or_replay(
        &mut self,
        pattern: &Arc<SparsityPattern>,
        values: &[T],
        changed: Option<&[usize]>,
    ) -> Result<(), NumericsError> {
        if pattern.rows() != pattern.cols() {
            return Err(NumericsError::InvalidInput(format!(
                "factor requires a square matrix, got {}x{}",
                pattern.rows(),
                pattern.cols()
            )));
        }
        if values.len() != pattern.nnz() {
            return Err(NumericsError::InvalidInput(format!(
                "value slice length {} does not match pattern nnz {}",
                values.len(),
                pattern.nnz()
            )));
        }
        if let Some(&bad) = changed.into_iter().flatten().find(|&&s| s >= values.len()) {
            return Err(NumericsError::InvalidInput(format!(
                "changed slot {bad} is outside the pattern's {} slots",
                values.len()
            )));
        }
        let same_pattern = self
            .symbolic
            .as_ref()
            .is_some_and(|s| Arc::ptr_eq(&s.pattern, pattern) || *s.pattern == **pattern);
        if same_pattern {
            let replayed = match changed {
                Some(changed) => self.refactor_partial(values, changed),
                None => self.refactor(values),
            };
            match replayed {
                Ok(()) => return Ok(()),
                // A frozen pivot collapsed; fall through and re-pivot.
                Err(NumericsError::SingularMatrix { .. }) => {}
                Err(e) => {
                    self.symbolic = None;
                    return Err(e);
                }
            }
        }
        let result = self.factor_with_pivoting(pattern, values);
        if result.is_err() {
            // A failed refactor has already overwritten parts of the
            // factor storage; never let solve_factored read that
            // half-updated state as if it were the previous factors.
            self.symbolic = None;
        }
        result
    }

    /// Full factorisation with pivot search: races the elimination
    /// under the static ascending-degree order against the one under
    /// [`btf_amd_order`] and freezes the plan with fewer L+U entries
    /// for later replays. A tie keeps the static plan; a candidate
    /// whose elimination fails loses to one that succeeds.
    fn factor_with_pivoting(
        &mut self,
        pattern: &Arc<SparsityPattern>,
        values: &[T],
    ) -> Result<(), NumericsError> {
        let scale = Self::row_scales(pattern, values);
        let st = Self::eliminate(pattern, values, &scale, ascending_degree_order(pattern));
        let amd = Self::eliminate(pattern, values, &scale, btf_amd_order(pattern));
        let plan = match (st, amd) {
            (Ok(a), Ok(b)) => {
                if b.fill_nnz() < a.fill_nnz() {
                    b
                } else {
                    a
                }
            }
            (Ok(a), Err(_)) => a,
            (Err(_), Ok(b)) => b,
            (Err(e), Err(_)) => return Err(e),
        };
        self.install_plan(pattern, plan);
        Ok(())
    }

    /// Row-equilibration factors of the pivot search: `1 / max_j |a_rj|`
    /// over each row of the incoming matrix, or 1 for a row whose
    /// maximum is zero or not finite (the pivot search then sees that
    /// row's raw magnitudes).
    fn row_scales(pattern: &SparsityPattern, values: &[T]) -> Vec<f64> {
        (0..pattern.rows())
            .map(|r| {
                let max = values[pattern.row_range(r)]
                    .iter()
                    .fold(0.0f64, |m, v| m.max(v.modulus()));
                let s = 1.0 / max;
                if s.is_finite() && s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Right-looking elimination with Markowitz-style threshold
    /// pivoting under the given column pre-ordering; pure (no solver
    /// state touched) so `factor_with_pivoting` can race candidates.
    ///
    /// The pivot search compares row-equilibrated magnitudes
    /// `|a_rk|·scale[r]` (`scale` from [`SparseLu::row_scales`], taken
    /// once from the incoming rows): the column maximum, the
    /// `PIVOT_THRESHOLD` eligibility test and the magnitude tie-break
    /// all read them, so a short row whose entries are all small in
    /// absolute terms (an MNA charge balance in C/m beside KCL rows in
    /// S) can still pivot its own column. The arithmetic itself stays
    /// unscaled, so the recorded factors — and every replay of them —
    /// are those of the matrix as given.
    fn eliminate(
        pattern: &Arc<SparsityPattern>,
        values: &[T],
        scale: &[f64],
        col_order: Vec<usize>,
    ) -> Result<Elimination<T>, NumericsError> {
        let n = pattern.rows();
        let mut col_rank = vec![0usize; n];
        for (k, &c) in col_order.iter().enumerate() {
            col_rank[c] = k;
        }
        // Working rows as (virtual column, value) vectors sorted by
        // virtual (elimination-order) column.
        let mut rows: Vec<Vec<(usize, T)>> = (0..n)
            .map(|r| {
                let lo = pattern.row_ptr[r];
                let hi = pattern.row_ptr[r + 1];
                let mut row: Vec<(usize, T)> = (lo..hi)
                    .map(|i| (col_rank[pattern.col_idx[i]], values[i]))
                    .collect();
                row.sort_by_key(|e| e.0);
                row
            })
            .collect();
        // Rows holding a structural entry in each column; fill creation
        // appends, so each (row, column) pair appears at most once.
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (r, row) in rows.iter().enumerate() {
            for &(c, _) in row {
                col_rows[c].push(r);
            }
        }
        let mut pivoted = vec![false; n];
        let mut perm = Vec::with_capacity(n);
        let mut ops: u64 = 0;
        for k in 0..n {
            // Candidate scan: largest scaled magnitude in column k.
            let mut maxabs = 0.0f64;
            for &r in &col_rows[k] {
                if pivoted[r] {
                    continue;
                }
                let i = rows[r]
                    .binary_search_by_key(&k, |e| e.0)
                    .expect("structural entry");
                maxabs = maxabs.max(rows[r][i].1.modulus() * scale[r]);
            }
            if maxabs == 0.0 || !maxabs.is_finite() {
                return Err(NumericsError::SingularMatrix { pivot: k });
            }
            // Markowitz-style: among magnitude-eligible rows take the
            // shortest (least prospective fill), break ties by magnitude.
            let mut best: Option<(usize, usize, f64)> = None;
            for &r in &col_rows[k] {
                if pivoted[r] {
                    continue;
                }
                let i = rows[r]
                    .binary_search_by_key(&k, |e| e.0)
                    .expect("structural entry");
                let mag = rows[r][i].1.modulus() * scale[r];
                if mag >= PIVOT_THRESHOLD * maxabs {
                    let len = rows[r].len();
                    let better = best
                        .is_none_or(|(_, blen, bmag)| len < blen || (len == blen && mag > bmag));
                    if better {
                        best = Some((r, len, mag));
                    }
                }
            }
            let (prow, _, _) = best.expect("maxabs > 0 guarantees an eligible row");
            pivoted[prow] = true;
            perm.push(prow);
            let pstart = rows[prow]
                .binary_search_by_key(&k, |e| e.0)
                .expect("pivot entry");
            let pivot_val = rows[prow][pstart].1;
            // Clone the pivot row's U tail once per step (merge source).
            let utail: Vec<(usize, T)> = rows[prow][pstart + 1..].to_vec();
            let candidates: Vec<usize> = col_rows[k]
                .iter()
                .copied()
                .filter(|&r| !pivoted[r])
                .collect();
            for r in candidates {
                let ei = rows[r]
                    .binary_search_by_key(&k, |e| e.0)
                    .expect("structural entry");
                let m = rows[r][ei].1 / pivot_val;
                rows[r][ei].1 = m; // becomes the stored L multiplier
                ops += 1;
                // rows[r][ei+1..] -= m * utail  (sorted two-way merge;
                // performed even for m == 0 so the recorded pattern stays
                // valid for any values with this structure).
                let old_tail: Vec<(usize, T)> = rows[r].split_off(ei + 1);
                let mut oi = 0;
                let mut ui = 0;
                while oi < old_tail.len() || ui < utail.len() {
                    let take_old =
                        ui >= utail.len() || (oi < old_tail.len() && old_tail[oi].0 < utail[ui].0);
                    let take_both =
                        oi < old_tail.len() && ui < utail.len() && old_tail[oi].0 == utail[ui].0;
                    if take_both {
                        rows[r].push((old_tail[oi].0, old_tail[oi].1 - m * utail[ui].1));
                        oi += 1;
                        ui += 1;
                    } else if take_old {
                        rows[r].push(old_tail[oi]);
                        oi += 1;
                    } else {
                        // Fill-in: new structural entry.
                        rows[r].push((utail[ui].0, -m * utail[ui].1));
                        col_rows[utail[ui].0].push(r);
                        ui += 1;
                    }
                }
                ops += utail.len() as u64;
            }
        }
        Ok(Elimination {
            col_order,
            col_rank,
            perm,
            rows,
            ops,
        })
    }

    /// Compiles a finished elimination into frozen factor storage and
    /// installs it as the active plan.
    fn install_plan(&mut self, pattern: &Arc<SparsityPattern>, plan: Elimination<T>) {
        let Elimination {
            col_order,
            col_rank,
            perm,
            rows,
            ops,
        } = plan;
        let n = pattern.rows();
        let mut pos = vec![0usize; n];
        for (k, &r) in perm.iter().enumerate() {
            pos[r] = k;
        }
        let mut f_row_ptr = Vec::with_capacity(n + 1);
        let mut f_col_idx = Vec::new();
        let mut f_values = Vec::new();
        let mut u_start = vec![0usize; n];
        f_row_ptr.push(0);
        for (r, row) in rows.iter().enumerate() {
            let local_u = row
                .binary_search_by_key(&pos[r], |e| e.0)
                .expect("pivot entry survives elimination");
            u_start[r] = f_col_idx.len() + local_u;
            for &(c, v) in row {
                f_col_idx.push(c);
                f_values.push(v);
            }
            f_row_ptr.push(f_col_idx.len());
        }
        let diag_slot: Vec<usize> = (0..n).map(|k| u_start[perm[k]]).collect();
        let diag: Vec<T> = diag_slot.iter().map(|&s| f_values[s]).collect();
        // Map every slot of A into factor storage (A ⊆ fill pattern).
        let mut a_to_f = Vec::with_capacity(pattern.nnz());
        for r in 0..n {
            let flo = f_row_ptr[r];
            let fhi = f_row_ptr[r + 1];
            for &c in pattern.row_cols(r) {
                let i = f_col_idx[flo..fhi]
                    .binary_search(&col_rank[c])
                    .expect("A entry is part of the fill pattern");
                a_to_f.push(flo + i);
            }
        }
        // Row of each A-pattern slot, for changed-slot → dirty-step
        // marking, and the elimination DAG's out-edges (dependents of
        // each step) for the partial refactorization's propagation.
        let mut slot_row = Vec::with_capacity(pattern.nnz());
        for r in 0..n {
            for _ in pattern.row_range(r) {
                slot_row.push(r);
            }
        }
        let mut dep_ptr = vec![0usize; n + 1];
        for r in 0..n {
            for i in f_row_ptr[r]..u_start[r] {
                dep_ptr[f_col_idx[i] + 1] += 1;
            }
        }
        for k in 0..n {
            dep_ptr[k + 1] += dep_ptr[k];
        }
        let mut cursor = dep_ptr.clone();
        let mut dep_steps = vec![0usize; dep_ptr[n]];
        for (r, &step) in pos.iter().enumerate() {
            for &c in &f_col_idx[f_row_ptr[r]..u_start[r]] {
                dep_steps[cursor[c]] = step;
                cursor[c] += 1;
            }
        }
        // The replay's update list. Every U-tail column of an L entry's
        // pivot step is in the updated row's storage (the elimination
        // recorded that fill), and both run in ascending column order,
        // so one forward walk of the row finds each destination.
        let u_end: Vec<usize> = perm.iter().map(|&pr| f_row_ptr[pr + 1]).collect();
        let mut upd_ptr = Vec::with_capacity(n + 1);
        let mut upd_dst = Vec::new();
        upd_ptr.push(0);
        for &r in &perm {
            let lo = f_row_ptr[r];
            let row_cols = &f_col_idx[lo..f_row_ptr[r + 1]];
            for &c in &f_col_idx[lo..u_start[r]] {
                let mut j = 0;
                for &tc in &f_col_idx[diag_slot[c] + 1..u_end[c]] {
                    j += row_cols[j..]
                        .iter()
                        .position(|&rc| rc == tc)
                        .expect("U-tail column is in the updated row");
                    upd_dst.push(u32::try_from(lo + j).expect("factor slots fit u32"));
                }
            }
            upd_ptr.push(upd_dst.len());
        }
        self.symbolic = Some(Symbolic {
            pattern: Arc::clone(pattern),
            perm,
            col_order,
            f_row_ptr,
            f_col_idx,
            u_start,
            diag_slot,
            a_to_f,
            row_step: pos,
            slot_row,
            dep_ptr,
            dep_steps,
            upd_ptr,
            upd_dst,
            u_end,
        });
        self.f_values = f_values;
        self.diag = diag;
        self.step_flag = vec![false; n];
        self.ops = ops;
        self.paths.symbolic_factorizations += 1;
        self.paths.columns_recomputed += n as u64;
        self.paths.columns_total += n as u64;
    }

    /// Replays the recorded elimination over new values. Returns
    /// `Err(SingularMatrix)` when a frozen pivot collapses — the caller
    /// falls back to a fresh pivoting factorisation.
    fn refactor(&mut self, values: &[T]) -> Result<(), NumericsError> {
        let s = self.symbolic.as_ref().expect("refactor requires symbolic");
        let n = s.perm.len();
        self.f_values.iter_mut().for_each(|v| *v = T::ZERO);
        for (slot, &v) in values.iter().enumerate() {
            self.f_values[s.a_to_f[slot]] += v;
        }
        let mut ops: u64 = 0;
        for k in 0..n {
            ops += Self::replay_step(s, &mut self.f_values, &mut self.diag, k)?;
        }
        self.ops = ops;
        self.paths.replay_refactorizations += 1;
        self.paths.columns_recomputed += n as u64;
        self.paths.columns_total += n as u64;
        Ok(())
    }

    /// Eliminates step `k`'s factor row in place — it holds the row's A
    /// values — against the already-eliminated U rows of earlier steps
    /// by running the step's compiled update list, and stores the row's
    /// L/U values and pivot. Returns the step's operation count, or
    /// `Err(SingularMatrix)` when the pivot collapses (module
    /// invariant 3).
    fn replay_step(
        s: &Symbolic,
        f: &mut [T],
        diag: &mut [T],
        k: usize,
    ) -> Result<u64, NumericsError> {
        let r = s.perm[k];
        let (lo, us, hi) = (s.f_row_ptr[r], s.u_start[r], s.f_row_ptr[r + 1]);
        let updates = s.upd_ptr[k]..s.upd_ptr[k + 1];
        let mut dst = &s.upd_dst[updates.clone()];
        // The L part in ascending column (= step) order.
        for i in lo..us {
            let c = s.f_col_idx[i];
            let m = f[i] / diag[c];
            f[i] = m;
            let tail = s.diag_slot[c] + 1..s.u_end[c];
            let (now, rest) = dst.split_at(tail.len());
            for (&d, src) in now.iter().zip(tail) {
                f[d as usize] -= m * f[src];
            }
            dst = rest;
        }
        let pivot = f[us];
        let umax = f[us..hi].iter().fold(0.0f64, |m, v| m.max(v.modulus()));
        if !pivot.is_finite() || pivot.modulus() < REPIVOT_RATIO * umax || pivot == T::ZERO {
            return Err(NumericsError::SingularMatrix { pivot: k });
        }
        diag[k] = pivot;
        Ok((us - lo + updates.len()) as u64)
    }

    /// Refactors under module invariant 4. First, with no arithmetic,
    /// the step of each changed slot's row is marked dirty and
    /// dirtiness propagates to every step whose L part reads a dirty
    /// step's U row. Because a step's dependents always have larger
    /// step indices, one ascending scan settles the set. Then, when the
    /// dirty steps are fewer than [`PARTIAL_REPLAY_MAX_SHARE`] of all
    /// steps, only they are replayed — clean steps keep their L/U rows
    /// and pivots bitwise — and otherwise the cheaper full
    /// [`SparseLu::refactor`] runs. Both paths give the same factors
    /// bit for bit. Returns `Err(SingularMatrix)` when a replayed pivot
    /// collapses — the caller falls back to a fresh pivoting
    /// factorisation.
    fn refactor_partial(&mut self, values: &[T], changed: &[usize]) -> Result<(), NumericsError> {
        let s = self
            .symbolic
            .as_ref()
            .expect("refactor_partial requires symbolic");
        let n = s.perm.len();
        let mut first = n;
        for &slot in changed {
            let k = s.row_step[s.slot_row[slot]];
            self.step_flag[k] = true;
            first = first.min(k);
        }
        let mut dirty = 0usize;
        for k in first..n {
            if self.step_flag[k] {
                dirty += 1;
                for &d in &s.dep_steps[s.dep_ptr[k]..s.dep_ptr[k + 1]] {
                    self.step_flag[d] = true;
                }
            }
        }
        if dirty as f64 >= PARTIAL_REPLAY_MAX_SHARE * n as f64 {
            self.step_flag[first..].iter_mut().for_each(|f| *f = false);
            return self.refactor(values);
        }
        let mut ops: u64 = 0;
        for k in first..n {
            if !self.step_flag[k] {
                continue;
            }
            self.step_flag[k] = false;
            // Reset this row to its A values; clean rows keep their
            // already-eliminated factors untouched.
            let r = s.perm[k];
            for v in &mut self.f_values[s.f_row_ptr[r]..s.f_row_ptr[r + 1]] {
                *v = T::ZERO;
            }
            for slot in s.pattern.row_range(r) {
                self.f_values[s.a_to_f[slot]] += values[slot];
            }
            match Self::replay_step(s, &mut self.f_values, &mut self.diag, k) {
                Ok(step_ops) => ops += step_ops,
                Err(e) => {
                    self.step_flag[k..].iter_mut().for_each(|f| *f = false);
                    return Err(e);
                }
            }
        }
        self.ops = ops;
        self.paths.partial_refactorizations += 1;
        self.paths.columns_recomputed += dirty as u64;
        self.paths.columns_total += n as u64;
        Ok(())
    }

    /// Solves `A x = b` with the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] when there are no valid
    /// factors (never factored, or the last factor failed) or `b` has
    /// the wrong length.
    pub fn solve_factored(&self, b: &[T]) -> Result<Vec<T>, NumericsError> {
        let s = self.symbolic.as_ref().ok_or_else(|| {
            NumericsError::InvalidInput("solve_factored called before factor".into())
        })?;
        let n = s.perm.len();
        if b.len() != n {
            return Err(NumericsError::InvalidInput(format!(
                "rhs length {} does not match dimension {n}",
                b.len()
            )));
        }
        // Forward: L y = P b, in pivot order (L columns are steps).
        let mut y = vec![T::ZERO; n];
        for (k, &r) in s.perm.iter().enumerate() {
            let mut acc = b[r];
            for i in s.f_row_ptr[r]..s.u_start[r] {
                acc -= self.f_values[i] * y[s.f_col_idx[i]];
            }
            y[k] = acc;
        }
        // Backward: U xv = y in virtual column space.
        let mut xv = vec![T::ZERO; n];
        for k in (0..n).rev() {
            let r = s.perm[k];
            let mut acc = y[k];
            for i in (s.diag_slot[k] + 1)..s.f_row_ptr[r + 1] {
                acc -= self.f_values[i] * xv[s.f_col_idx[i]];
            }
            xv[k] = acc / self.diag[k];
        }
        // Undo the static column ordering.
        let mut x = vec![T::ZERO; n];
        for (k, &c) in s.col_order.iter().enumerate() {
            x[c] = xv[k];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr_from_dense(rows: &[&[f64]]) -> CsrMatrix {
        let mut t = TripletMatrix::new(rows.len(), rows[0].len());
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    t.push(r, c, v);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn triplets_merge_duplicates_in_push_order() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 2.0);
        t.push(0, 0, 0.5);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(1, 1), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn zero_triplet_reserves_a_slot() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 0.0);
        t.push(1, 0, 3.0);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.pattern().slot(0, 0), Some(0));
        assert_eq!(m.pattern().slot(0, 1), None);
    }

    #[test]
    fn structural_rank_full_for_diagonal() {
        let m = csr_from_dense(&[&[2.0, 1.0, 0.0], &[0.0, 3.0, 0.0], &[1.0, 0.0, 4.0]]);
        let sr = structural_rank(&m);
        assert_eq!(sr.rank, 3);
        assert!(sr.is_full());
        assert!(sr.unmatched_rows.is_empty() && sr.unmatched_cols.is_empty());
    }

    #[test]
    fn structural_rank_ignores_reserved_zero_slots() {
        // A reserved-but-zero diagonal (gmin slot at gmin = 0) must not
        // count as a structural entry: column 2 is only "covered" by a
        // placeholder, so the matrix is structurally singular.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(2, 2, 0.0);
        let m = t.to_csr();
        let sr = structural_rank(&m);
        assert_eq!(sr.rank, 2);
        assert_eq!(sr.unmatched_rows, vec![2]);
        assert_eq!(sr.unmatched_cols, vec![2]);
    }

    #[test]
    fn structural_rank_finds_augmenting_paths() {
        // Row 0 grabs column 0 first; row 2 can only use column 0, so
        // the matching must reroute row 0 to column 1 — rank 3 needs an
        // augmenting path, not just greedy assignment.
        let m = csr_from_dense(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0], &[1.0, 0.0, 0.0]]);
        let sr = structural_rank(&m);
        assert_eq!(sr.rank, 3);
        assert!(sr.is_full());
    }

    #[test]
    fn structural_rank_reports_deficient_block() {
        // Rows 1 and 2 both depend only on column 1: one of them must
        // go unmatched, as must one of columns {0 is fine} — column 2
        // is untouched entirely.
        let m = csr_from_dense(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 1.0, 0.0]]);
        let sr = structural_rank(&m);
        assert_eq!(sr.rank, 2);
        assert_eq!(sr.unmatched_rows.len(), 1);
        assert_eq!(sr.unmatched_cols, vec![2]);
    }

    #[test]
    fn csr_mul_vec_matches_dense() {
        let a = csr_from_dense(&[&[2.0, 0.0, 1.0], &[0.0, 3.0, 0.0], &[1.0, 0.0, 4.0]]);
        let y = a.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![5.0, 6.0, 13.0]);
        let d = a.to_dense();
        assert_eq!(d.mul_vec(&[1.0, 2.0, 3.0]), y);
    }

    #[test]
    fn assembler_records_then_reuses_slots() {
        let mut asm = PatternAssembler::new(2, 2);
        assert!(asm.is_recording());
        asm.begin();
        asm.add_block(|w| {
            w.add(0, 0, 2.0);
            w.add(0, 1, -1.0);
            w.add(1, 1, 3.0);
        });
        let nnz = asm.finish().nnz();
        assert_eq!(nnz, 3);
        assert_eq!(asm.pattern_builds(), 1);
        assert!(!asm.is_recording());
        // Second cycle: same structure, new values, same pattern object.
        let p1 = Arc::clone(asm.matrix().unwrap().pattern());
        asm.begin();
        asm.add_block(|w| {
            w.add(0, 0, 5.0);
            w.add(1, 1, 1.0);
        });
        let m = asm.finish();
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.get(0, 1), 0.0, "unwritten slot is zeroed, not stale");
        assert!(Arc::ptr_eq(&p1, m.pattern()));
        assert_eq!(asm.pattern_builds(), 1);
    }

    #[test]
    #[should_panic(expected = "not in the cached sparsity pattern")]
    fn assembler_rejects_out_of_pattern_writes() {
        let mut asm = PatternAssembler::new(2, 2);
        asm.begin();
        asm.add_block(|w| w.add(0, 0, 1.0));
        asm.finish();
        asm.begin();
        asm.add_block(|w| w.add(1, 0, 1.0));
    }

    /// Factors `a` with `lu` and solves `a x = b`.
    fn sparse_solve(
        lu: &mut SparseLu<f64>,
        a: &CsrMatrix,
        b: &[f64],
    ) -> Result<Vec<f64>, NumericsError> {
        lu.factor(a.pattern(), a.values())?;
        lu.solve_factored(b)
    }

    fn solve_both(a: &CsrMatrix, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let xd = DenseLuSolver::new().solve(a, b).expect("dense solve");
        let xs = sparse_solve(&mut SparseLu::new(), a, b).expect("sparse solve");
        (xd, xs)
    }

    #[test]
    fn solvers_agree_on_small_system() {
        let a = csr_from_dense(&[&[3.0, 2.0, -1.0], &[2.0, -2.0, 4.0], &[-1.0, 0.5, -1.0]]);
        let (xd, xs) = solve_both(&a, &[1.0, -2.0, 0.0]);
        for (d, s) in xd.iter().zip(&xs) {
            assert!((d - s).abs() < 1e-12, "{d} vs {s}");
        }
        assert!((xs[0] - 1.0).abs() < 1e-12);
        assert!((xs[1] + 2.0).abs() < 1e-12);
        assert!((xs[2] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_handles_zero_diagonal_mna_structure() {
        // Voltage-source-like block: the (2,2) diagonal is structurally
        // present but numerically zero, so pivoting is mandatory.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1e-3);
        t.push(0, 2, 1.0);
        t.push(1, 1, 2e-3);
        t.push(2, 0, 1.0);
        t.push(2, 2, 0.0);
        let a = t.to_csr();
        let x = sparse_solve(&mut SparseLu::new(), &a, &[0.0, 2e-3, 5.0]).expect("solve");
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] + 5e-3).abs() < 1e-12);
    }

    #[test]
    fn refactor_reuses_pattern_and_stays_correct() {
        let mut asm = PatternAssembler::new(3, 3);
        let stamp = |asm: &mut PatternAssembler, g: f64| {
            asm.begin();
            asm.add_block(|w| {
                w.add(0, 0, g);
                w.add(0, 1, -g);
                w.add(1, 0, -g);
                w.add(1, 1, g + 1e-3);
                w.add(1, 2, -1e-3);
                w.add(2, 1, -1e-3);
                w.add(2, 2, 2e-3);
            });
        };
        let mut sparse = SparseLu::<f64>::new();
        stamp(&mut asm, 1.0);
        let a = asm.finish();
        sparse
            .factor(a.pattern(), a.values())
            .expect("first factor");
        assert_eq!(sparse.factor_path_stats().symbolic_factorizations, 1);
        stamp(&mut asm, 2.5);
        let a = asm.finish();
        sparse.factor(a.pattern(), a.values()).expect("refactor");
        let paths = sparse.factor_path_stats();
        assert_eq!(paths.symbolic_factorizations, 1, "pattern reused");
        assert_eq!(paths.replay_refactorizations, 1);
        let b = [1.0, 0.0, -1.0];
        let x = sparse.solve_factored(&b).expect("solve");
        let mut dense = DenseLuSolver::new();
        let xd = dense.solve(a, &b).expect("dense");
        for (s, d) in x.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-12, "{s} vs {d}");
        }
    }

    #[test]
    fn singular_matrix_is_reported_by_both() {
        let a = csr_from_dense(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut dense = DenseLuSolver::new();
        assert!(matches!(
            dense.solve(&a, &[1.0, 2.0]),
            Err(NumericsError::SingularMatrix { .. })
        ));
        assert!(matches!(
            sparse_solve(&mut SparseLu::new(), &a, &[1.0, 2.0]),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn structurally_empty_column_is_singular() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 2.0);
        let a = t.to_csr();
        assert!(matches!(
            SparseLu::<f64>::new().factor(a.pattern(), a.values()),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn tridiagonal_sparse_beats_dense_op_count() {
        let n = 64;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        let a = t.to_csr();
        let mut dense = DenseLuSolver::new();
        let mut sparse = SparseLu::<f64>::new();
        dense.factor(&a).expect("dense factor");
        sparse
            .factor(a.pattern(), a.values())
            .expect("sparse factor");
        assert!(
            sparse.factor_ops() < dense.factor_ops() / 100,
            "tridiagonal LU should be ~O(n): sparse {} vs dense {}",
            sparse.factor_ops(),
            dense.factor_ops()
        );
        // Same count when replaying the pattern.
        sparse.factor(a.pattern(), a.values()).expect("refactor");
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let xs = sparse.solve_factored(&b).expect("solve");
        let xd = dense.solve_factored(&b).expect("solve");
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-9, "{s} vs {d}");
        }
    }

    #[test]
    fn complex_lu_matches_hand_solution() {
        // (1+j)·x0 + 1·x1 = 1 ;  1·x0 + (1−j)·x1 = j
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 0.0);
        t.push(0, 1, 0.0);
        t.push(1, 0, 0.0);
        t.push(1, 1, 0.0);
        let pattern = Arc::clone(t.to_csr().pattern());
        let vals = [
            Complex::new(1.0, 1.0),
            Complex::ONE,
            Complex::ONE,
            Complex::new(1.0, -1.0),
        ];
        let mut lu = SparseLu::<Complex>::new();
        lu.factor(&pattern, &vals).expect("complex factor");
        let x = lu
            .solve_factored(&[Complex::ONE, Complex::I])
            .expect("complex solve");
        // Determinant = (1+j)(1−j) − 1 = 1; Cramer gives
        // x0 = (1−j) − j = 1 − 2j, x1 = (1+j)j − 1 = −2 + j... recompute:
        // x0 = (1·(1−j) − 1·j) / 1 = 1 − 2j
        // x1 = ((1+j)·j − 1·1) / 1 = −2 + j
        assert!((x[0] - Complex::new(1.0, -2.0)).abs() < 1e-14, "{}", x[0]);
        assert!((x[1] - Complex::new(-2.0, 1.0)).abs() < 1e-14, "{}", x[1]);
        // Residual check: A x == b.
        let b0 = vals[0] * x[0] + vals[1] * x[1];
        let b1 = vals[2] * x[0] + vals[3] * x[1];
        assert!((b0 - Complex::ONE).abs() < 1e-14);
        assert!((b1 - Complex::I).abs() < 1e-14);
    }

    #[test]
    fn complex_refactor_replays_frozen_plan() {
        // An RC-divider style system re-valued across frequencies: the
        // pattern is ordered once, every later frequency replays it.
        let n = 16;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        let csr = t.to_csr();
        let pattern = Arc::clone(csr.pattern());
        let g: Vec<f64> = csr.values().to_vec();
        let mut lu = SparseLu::<Complex>::new();
        let mut first_ops = 0;
        for (k, omega) in [1.0, 10.0, 100.0, 1000.0].into_iter().enumerate() {
            let vals: Vec<Complex> = g.iter().map(|&gr| Complex::new(gr, 1e-3 * omega)).collect();
            lu.factor(&pattern, &vals).expect("factor");
            if k == 0 {
                first_ops = lu.factor_ops();
            }
            let b = vec![Complex::ONE; n];
            let x = lu.solve_factored(&b).expect("solve");
            // Residual of the tridiagonal system at every row.
            for r in 0..n {
                let mut acc = vals[pattern.slot(r, r).unwrap()] * x[r];
                if r > 0 {
                    acc += vals[pattern.slot(r, r - 1).unwrap()] * x[r - 1];
                }
                if r + 1 < n {
                    acc += vals[pattern.slot(r, r + 1).unwrap()] * x[r + 1];
                }
                assert!((acc - Complex::ONE).abs() < 1e-12, "row {r}: {acc}");
            }
        }
        let paths = lu.factor_path_stats();
        assert_eq!(paths.symbolic_factorizations, 1, "ordered exactly once");
        assert_eq!(paths.replay_refactorizations, 3, "re-valued per frequency");
        assert_eq!(lu.factor_ops(), first_ops, "replay costs the same ops");
    }

    #[test]
    fn complex_singular_matrix_is_reported() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 4.0);
        let csr = t.to_csr();
        let vals: Vec<Complex> = csr.values().iter().map(|&v| Complex::from(v)).collect();
        let mut lu = SparseLu::<Complex>::new();
        assert!(matches!(
            lu.factor(csr.pattern(), &vals),
            Err(NumericsError::SingularMatrix { .. })
        ));
        assert!(matches!(
            lu.solve_factored(&[Complex::ONE, Complex::ONE]),
            Err(NumericsError::InvalidInput(_))
        ));
    }

    #[test]
    fn generic_factor_rejects_bad_shapes() {
        let mut t = TripletMatrix::new(2, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let csr = t.to_csr();
        let mut lu = SparseLu::<f64>::new();
        assert!(matches!(
            lu.factor(csr.pattern(), csr.values()),
            Err(NumericsError::InvalidInput(_))
        ));
        let mut sq = TripletMatrix::new(2, 2);
        sq.push(0, 0, 1.0);
        sq.push(1, 1, 1.0);
        let sq = sq.to_csr();
        assert!(matches!(
            lu.factor(sq.pattern(), &[1.0]),
            Err(NumericsError::InvalidInput(_))
        ));
    }

    #[test]
    fn dense_lu_ops_formula() {
        // n = 3: k=0 → 2 + 4, k=1 → 1 + 1, k=2 → 0.
        assert_eq!(dense_lu_ops(3), 8);
        assert_eq!(dense_lu_ops(0), 0);
        assert_eq!(dense_lu_ops(1), 0);
    }

    #[test]
    fn solve_before_factor_is_an_error() {
        let dense = DenseLuSolver::new();
        let sparse = SparseLu::<f64>::new();
        assert!(matches!(
            dense.solve_factored(&[1.0]),
            Err(NumericsError::InvalidInput(_))
        ));
        assert!(matches!(
            sparse.solve_factored(&[1.0]),
            Err(NumericsError::InvalidInput(_))
        ));
    }

    #[test]
    fn failed_factor_invalidates_previous_factors() {
        // A successful factor followed by a singular one: the solver
        // must not serve the (partially overwritten) old factors.
        let a1 = csr_from_dense(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let mut a2 = a1.clone();
        a2.set_zero();
        a2.add_at(0, 0, 1.0);
        a2.add_at(0, 1, 2.0);
        a2.add_at(1, 0, 2.0);
        a2.add_at(1, 1, 4.0);
        let mut sparse = SparseLu::<f64>::new();
        sparse
            .factor(a1.pattern(), a1.values())
            .expect("first factor");
        assert!(sparse.factor(a2.pattern(), a2.values()).is_err());
        assert!(matches!(
            sparse.solve_factored(&[1.0, 2.0]),
            Err(NumericsError::InvalidInput(_))
        ));
        let mut dense = DenseLuSolver::new();
        dense.factor(&a1).expect("first factor");
        assert!(dense.factor(&a2).is_err());
        assert!(matches!(
            dense.solve_factored(&[1.0, 2.0]),
            Err(NumericsError::InvalidInput(_))
        ));
        // Both recover with a good matrix.
        sparse
            .factor(a1.pattern(), a1.values())
            .expect("recovery factor");
        dense.factor(&a1).expect("recovery factor");
        assert!(sparse.solve_factored(&[1.0, 2.0]).is_ok());
        assert!(dense.solve_factored(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn repivot_on_value_collapse_keeps_answers_right() {
        // First factor with a dominant (0,0); then flip dominance so the
        // frozen pivot order would divide by ~0 and must re-pivot.
        let stamp = |a11: f64, a21: f64| {
            let mut t = TripletMatrix::new(2, 2);
            t.push(0, 0, a11);
            t.push(0, 1, 1.0);
            t.push(1, 0, a21);
            t.push(1, 1, 1.0);
            t.to_csr()
        };
        let a1 = stamp(4.0, 1.0);
        let mut sparse = SparseLu::<f64>::new();
        sparse.factor(a1.pattern(), a1.values()).expect("factor 1");
        // Same pattern object is required for the replay path; rebuild
        // with identical structure and tiny pivot.
        let mut a2 = a1.clone();
        a2.set_zero();
        a2.add_at(0, 0, 1e-30);
        a2.add_at(0, 1, 1.0);
        a2.add_at(1, 0, 1.0);
        a2.add_at(1, 1, 1.0);
        sparse
            .factor(a2.pattern(), a2.values())
            .expect("factor 2 re-pivots");
        let x = sparse.solve_factored(&[1.0, 2.0]).expect("solve");
        let mut dense = DenseLuSolver::new();
        let xd = dense.solve(&a2, &[1.0, 2.0]).expect("dense");
        for (s, d) in x.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-9, "{s} vs {d}");
        }
    }

    /// A tridiagonal ladder with an off-band entry: a playground with
    /// nontrivial elimination dependencies.
    fn ladder(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + i as f64 * 0.01);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.push(0, n - 1, -0.25);
        t.push(n - 1, 0, -0.25);
        t.to_csr()
    }

    #[test]
    fn partial_refactor_matches_full_replay_bitwise() {
        let n = 24;
        let a = ladder(n);
        let mut lu = SparseLu::<f64>::new();
        lu.factor(a.pattern(), a.values()).expect("first factor");
        // Change two mid-ladder couplings.
        let mut vals = a.values().to_vec();
        let s1 = a.pattern().slot(10, 11).unwrap();
        let s2 = a.pattern().slot(15, 15).unwrap();
        vals[s1] = -1.5;
        vals[s2] = 3.25;
        lu.factor_partial(a.pattern(), &vals, &[s1, s2])
            .expect("partial");
        let stats = lu.factor_path_stats();
        assert_eq!(stats.partial_refactorizations, 1);
        assert!(
            stats.columns_recomputed < stats.columns_total,
            "a localized change must not replay every column: {stats:?}"
        );
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x_partial = lu.solve_factored(&b).expect("solve after partial");
        // Full replay of the same values on the same frozen plan is the
        // bitwise reference.
        lu.factor(a.pattern(), &vals).expect("full replay");
        let x_full = lu.solve_factored(&b).expect("solve after full");
        for (p, f) in x_partial.iter().zip(&x_full) {
            assert_eq!(p.to_bits(), f.to_bits(), "{p} vs {f}");
        }
    }

    #[test]
    fn partial_refactor_picks_the_cheaper_replay() {
        let n = 24;
        let a = ladder(n);
        let diag: Vec<usize> = (0..n).map(|i| a.pattern().slot(i, i).unwrap()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        for changed in [&diag[n - 1..], &diag[..]] {
            let mut lu = SparseLu::<f64>::new();
            lu.factor(a.pattern(), a.values()).expect("first factor");
            let mut vals = a.values().to_vec();
            for &s in changed {
                vals[s] += 0.5;
            }
            let before = lu.factor_path_stats();
            lu.factor_partial(a.pattern(), &vals, changed)
                .expect("partial call");
            let d = lu.factor_path_stats().delta_since(&before);
            let x = lu.solve_factored(&b).expect("solve");
            if changed.len() == 1 {
                // The last row's step dirties a short suffix only.
                assert_eq!(d.partial_refactorizations, 1, "{d:?}");
                assert!((d.columns_recomputed as f64) < PARTIAL_REPLAY_MAX_SHARE * n as f64);
            } else {
                // Every step is dirty: the full replay runs instead.
                assert_eq!(d.replay_refactorizations, 1, "{d:?}");
                assert_eq!(d.columns_recomputed, n as u64);
            }
            lu.factor(a.pattern(), &vals).expect("full replay");
            let x_full = lu.solve_factored(&b).expect("solve after full");
            for (p, f) in x.iter().zip(&x_full) {
                assert_eq!(p.to_bits(), f.to_bits(), "{p} vs {f}");
            }
        }
    }

    #[test]
    fn partial_refactor_with_no_changes_is_a_noop() {
        let a = ladder(12);
        let mut lu = SparseLu::<f64>::new();
        lu.factor(a.pattern(), a.values()).expect("factor");
        let before = lu.factor_path_stats();
        lu.factor_partial(a.pattern(), a.values(), &[])
            .expect("empty partial");
        let d = lu.factor_path_stats().delta_since(&before);
        assert_eq!(d.partial_refactorizations, 1);
        assert_eq!(d.columns_recomputed, 0, "nothing changed, nothing replayed");
        assert_eq!(lu.factor_ops(), 0);
        let b = vec![1.0; 12];
        let x = lu.solve_factored(&b).expect("factors still valid");
        let resid = a.mul_vec(&x);
        for (rr, bb) in resid.iter().zip(&b) {
            assert!((rr - bb).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_refactor_pivot_collapse_falls_back_to_repivot() {
        let stamp = |a11: f64| {
            let mut t = TripletMatrix::new(2, 2);
            t.push(0, 0, a11);
            t.push(0, 1, 1.0);
            t.push(1, 0, 1.0);
            t.push(1, 1, 1.0);
            t.to_csr()
        };
        let a1 = stamp(4.0);
        let mut lu = SparseLu::<f64>::new();
        lu.factor(a1.pattern(), a1.values()).expect("factor 1");
        let sym_before = lu.factor_path_stats().symbolic_factorizations;
        let mut vals = a1.values().to_vec();
        let s = a1.pattern().slot(0, 0).unwrap();
        vals[s] = 1e-30;
        lu.factor_partial(a1.pattern(), &vals, &[s])
            .expect("collapse re-pivots transparently");
        assert_eq!(
            lu.factor_path_stats().symbolic_factorizations,
            sym_before + 1
        );
        let x = lu.solve_factored(&[1.0, 2.0]).expect("solve");
        let mut dense = DenseLuSolver::new();
        let a2 = stamp(1e-30);
        let xd = dense.solve(&a2, &[1.0, 2.0]).expect("dense");
        for (sv, d) in x.iter().zip(&xd) {
            assert!((sv - d).abs() < 1e-9, "{sv} vs {d}");
        }
    }

    #[test]
    fn partial_refactor_rejects_out_of_pattern_slots() {
        let a = ladder(8);
        let mut lu = SparseLu::<f64>::new();
        lu.factor(a.pattern(), a.values()).expect("factor");
        assert!(matches!(
            lu.factor_partial(a.pattern(), a.values(), &[a.nnz()]),
            Err(NumericsError::InvalidInput(_))
        ));
    }

    #[test]
    fn partial_refactor_without_a_frozen_plan_pivots_fully() {
        let a = ladder(8);
        let mut lu = SparseLu::<f64>::new();
        lu.factor_partial(a.pattern(), a.values(), &[0])
            .expect("first-call partial factors fully");
        let paths = lu.factor_path_stats();
        assert_eq!(paths.symbolic_factorizations, 1);
        assert_eq!(paths.partial_refactorizations, 0);
        assert!(lu.solve_factored(&[1.0; 8]).is_ok());
    }

    /// Both candidate eliminations of the ordering race, each under its
    /// own column order: (ascending degree, BTF + AMD).
    fn race_candidates(a: &CsrMatrix) -> (Elimination<f64>, Elimination<f64>) {
        let (p, v) = (a.pattern(), a.values());
        let scale = SparseLu::row_scales(p, v);
        let eliminate = |order| SparseLu::eliminate(p, v, &scale, order).expect("eliminate");
        (
            eliminate(ascending_degree_order(p)),
            eliminate(btf_amd_order(p)),
        )
    }

    #[test]
    fn orderings_are_permutations_and_factor_correctly() {
        let a = ladder(16);
        let (st, amd) = race_candidates(&a);
        let mut solvers = Vec::new();
        for plan in [st, amd] {
            let mut sorted = plan.col_order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "not a permutation");
            let mut lu = SparseLu::<f64>::new();
            lu.install_plan(a.pattern(), plan);
            solvers.push(lu);
        }
        let mut raced = SparseLu::<f64>::new();
        raced.factor(a.pattern(), a.values()).expect("factor");
        solvers.push(raced);
        let b: Vec<f64> = (0..16).map(|i| i as f64 - 8.0).collect();
        for (i, lu) in solvers.iter().enumerate() {
            let x = lu.solve_factored(&b).expect("solve");
            let resid = a.mul_vec(&x);
            for (rr, bb) in resid.iter().zip(&b) {
                assert!((rr - bb).abs() < 1e-10, "solver {i}: {rr} vs {bb}");
            }
        }
    }

    /// A charge-balance row in C/m (row 0, two entries) sharing column 0
    /// with two longer KCL rows in S. On raw magnitudes row 0 is not
    /// eligible there (3e-10 is far below `PIVOT_THRESHOLD` × 1e-3), so
    /// a KCL row pivots column 0 and row 0 inherits its tail as fill.
    /// Row-equilibrated, row 0 is eligible and, being shortest, pivots
    /// column 0 itself; its tail (column 1) is already in both KCL rows.
    fn mixed_scale_rows() -> CsrMatrix {
        csr_from_dense(&[
            &[3e-10, -1e-10, 0.0, 0.0],
            &[-1e-3, 3e-3, -1e-3, -1e-3],
            &[-1e-3, -1e-3, 3e-3, -1e-3],
            &[0.0, -1e-3, -1e-3, 2e-3],
        ])
    }

    #[test]
    fn row_equilibrated_pivoting_adds_no_fill_on_mixed_scale_rows() {
        let a = mixed_scale_rows();
        let b = a.mul_vec(&[1.0, -2.0, 0.5, 3.0]);
        let mut sparse = SparseLu::new();
        let xs = sparse_solve(&mut sparse, &a, &b).expect("sparse solve");
        assert_eq!(sparse.factor_nnz(), a.nnz(), "the plan adds no fill");
        let xd = DenseLuSolver::new().solve(&a, &b).expect("dense solve");
        let scale = xd.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() <= 1e-12 * scale, "{s} vs {d}");
        }
    }

    #[test]
    fn complex_row_equilibrated_pivoting_adds_no_fill_on_mixed_scale_rows() {
        // The same matrix times a unit-modulus phase c: the pivot search
        // reads `modulus`, so the plan is the real one, and
        // (c·A)⁻¹ b = A⁻¹ b / c.
        let a = mixed_scale_rows();
        let b = a.mul_vec(&[1.0, -2.0, 0.5, 3.0]);
        let c = Complex::new(0.6, 0.8);
        let vals: Vec<Complex> = a.values().iter().map(|&v| c * Complex::from(v)).collect();
        let rhs: Vec<Complex> = b.iter().map(|&v| Complex::from(v)).collect();
        let mut lu = SparseLu::<Complex>::new();
        lu.factor(a.pattern(), &vals).expect("complex factor");
        assert_eq!(lu.factor_nnz(), a.nnz(), "the plan adds no fill");
        let x = lu.solve_factored(&rhs).expect("complex solve");
        let xd = DenseLuSolver::new().solve(&a, &b).expect("dense solve");
        let scale = xd.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (s, &d) in x.iter().zip(&xd) {
            assert!(
                (*s * c - Complex::from(d)).abs() <= 1e-12 * scale,
                "{s} vs {d}"
            );
        }
    }

    #[test]
    fn auto_ordering_fill_never_exceeds_static() {
        // An arrow matrix (the static degree order handles it well), the
        // ladder, and a diagonal, where the two orders differ but tie on
        // fill: the frozen plan holds the smaller fill of the two
        // candidates, and a tie keeps the static plan.
        let n = 32;
        let mut t = TripletMatrix::new(n, n);
        let mut diagonal = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            diagonal.push(i, i, 1.0 + i as f64);
            if i > 0 {
                t.push(0, i, 1.0);
                t.push(i, 0, 1.0);
            }
        }
        let diagonal = diagonal.to_csr();
        let (st, amd) = race_candidates(&diagonal);
        assert_eq!(st.fill_nnz(), amd.fill_nnz(), "the diagonal ties");
        assert_ne!(st.col_order, amd.col_order, "with different orders");
        for a in [&t.to_csr(), &ladder(n), &diagonal] {
            let (st, amd) = race_candidates(a);
            let mut lu = SparseLu::<f64>::new();
            lu.factor(a.pattern(), a.values()).expect("factor");
            assert_eq!(lu.factor_nnz(), st.fill_nnz().min(amd.fill_nnz()));
            let winner = if amd.fill_nnz() < st.fill_nnz() {
                &amd
            } else {
                &st
            };
            let frozen = lu.symbolic.as_ref().expect("plan frozen");
            assert_eq!(frozen.col_order, winner.col_order);
        }
    }

    #[test]
    fn btf_blocks_of_block_triangular_pattern_localize_amd() {
        // 2x2 block lower-triangular: {0,1} and {2,3} blocks. BTF must
        // order each block contiguously.
        let mut t = TripletMatrix::new(4, 4);
        t.push(0, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 2.0);
        t.push(2, 0, 0.5); // cross-block coupling, lower only
        t.push(2, 2, 2.0);
        t.push(2, 3, 1.0);
        t.push(3, 2, 1.0);
        t.push(3, 3, 2.0);
        let a = t.to_csr();
        let order = btf_amd_order(a.pattern());
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (k, &c) in order.iter().enumerate() {
                p[c] = k;
            }
            p
        };
        let first_block: std::collections::BTreeSet<usize> = [pos[0], pos[1]].into_iter().collect();
        let second_block: std::collections::BTreeSet<usize> =
            [pos[2], pos[3]].into_iter().collect();
        assert!(
            first_block.iter().max() < second_block.iter().min()
                || second_block.iter().max() < first_block.iter().min(),
            "blocks are not contiguous in {order:?}"
        );
    }

    #[test]
    fn assembler_replays_tracked_write_sequence() {
        let mut asm = PatternAssembler::new(3, 3);
        let stamp = |asm: &mut PatternAssembler, g: f64| {
            // Two blocks: the second picks up the plan where the first
            // left it.
            asm.begin();
            asm.add_block(|w| {
                w.add(0, 0, g);
                w.add(0, 1, -g);
            });
            asm.add_block(|w| {
                w.add(1, 1, g);
                w.add(1, 1, 1e-3); // duplicate slot, summed in order
                w.add(2, 2, 1.0);
            });
        };
        stamp(&mut asm, 1.0);
        asm.finish();
        assert_eq!(asm.replay_hits(), 0, "recording cycle never replays");
        stamp(&mut asm, 2.0);
        let m = asm.finish();
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 1), 2.0 + 1e-3, "duplicate adds sum in one slot");
        assert_eq!(asm.replay_hits(), 5);
        assert_eq!(asm.replay_misses(), 0);
    }

    #[test]
    fn assembler_tracked_cycle_deviating_falls_back_correctly() {
        let mut asm = PatternAssembler::new(2, 2);
        asm.begin();
        asm.add_block(|w| {
            w.add(0, 0, 1.0);
            w.add(1, 1, 2.0);
        });
        asm.finish();
        // Different order than recorded: misses the sequence, stays
        // correct through the searched path.
        asm.begin();
        asm.add_block(|w| {
            w.add(1, 1, 5.0);
            w.add(0, 0, 4.0);
        });
        let m = asm.finish();
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(1, 1), 5.0);
        assert!(asm.replay_misses() > 0);
    }

    /// Factors `values` twice — the pivoting factorisation that freezes
    /// the plan, then a replay of the same values — and returns both
    /// solutions of `A x = b` and both `factor_ops` counts.
    fn pivot_then_replay<T: LuScalar>(
        pattern: &Arc<SparsityPattern>,
        values: &[T],
        b: &[T],
    ) -> ([Vec<T>; 2], [u64; 2]) {
        let mut lu = SparseLu::<T>::new();
        let mut run = || {
            lu.factor(pattern, values).expect("factor");
            (lu.solve_factored(b).expect("solve"), lu.factor_ops())
        };
        let ((x0, ops0), (x1, ops1)) = (run(), run());
        let p = lu.factor_path_stats();
        assert_eq!(
            (p.symbolic_factorizations, p.replay_refactorizations),
            (1, 1)
        );
        ([x0, x1], [ops0, ops1])
    }

    /// An unsymmetric `n × n` matrix with weak diagonals on every third
    /// row, so the plan both pivots off the diagonal and fills.
    fn scrambled(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            let w = (i as f64 * 0.37).sin();
            t.push(i, i, if i % 3 == 0 { 1e-4 * w } else { 2.0 + w });
            t.push(i, (7 * i + 3) % n, 0.5 + (i as f64 * 1.3).cos());
            t.push((5 * i + 1) % n, i, -0.75 + (i as f64 * 0.9).sin());
        }
        t.to_csr()
    }

    #[test]
    fn replay_of_the_frozen_values_equals_the_pivoting_factorisation() {
        // The compiled update list replays exactly the right-looking
        // elimination's arithmetic: re-factoring the values the plan was
        // frozen on solves bit for bit alike, at the same op count.
        for a in [ladder(24), mixed_scale_rows(), scrambled(40)] {
            let n = a.rows();
            let (pattern, values) = (a.pattern(), a.values());
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.5).collect();
            let ([x0, x1], [ops0, ops1]) = pivot_then_replay(pattern, values, &b);
            assert_eq!(ops0, ops1, "n = {n}");
            for (p, r) in x0.iter().zip(&x1) {
                assert_eq!(p.to_bits(), r.to_bits(), "n = {n}: {p} vs {r}");
            }
            let cvals: Vec<Complex> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| Complex::new(v, 0.1 * v * (i as f64).cos()))
                .collect();
            let cb: Vec<Complex> = b.iter().map(|&v| Complex::new(v, -0.5 * v)).collect();
            let ([x0, x1], [ops0, ops1]) = pivot_then_replay(pattern, &cvals, &cb);
            assert_eq!(ops0, ops1, "complex n = {n}");
            for (p, r) in x0.iter().zip(&x1) {
                assert_eq!(
                    (p.re.to_bits(), p.im.to_bits()),
                    (r.re.to_bits(), r.im.to_bits()),
                    "complex n = {n}: {p} vs {r}"
                );
            }
        }
        // The scrambled matrix exercises both: fill and off-diagonal
        // pivots.
        let a = scrambled(40);
        let mut lu = SparseLu::<f64>::new();
        lu.factor(a.pattern(), a.values()).expect("factor");
        let s = lu.symbolic.as_ref().expect("plan frozen");
        assert!(lu.factor_nnz() > a.nnz(), "the plan fills");
        assert!(
            (0..a.rows()).any(|k| s.col_order[k] != s.perm[k]),
            "the plan pivots off the diagonal"
        );
    }

    #[test]
    fn complex_partial_refactor_matches_full() {
        // The AC use case: conductances fixed, only the jω slots churn —
        // on every row (each frequency dirties every step, so the full
        // replay runs) or on the last two rows (the partial path runs).
        let n = 16;
        let a = ladder(n);
        let pattern = Arc::clone(a.pattern());
        let g: Vec<f64> = a.values().to_vec();
        let diag: Vec<usize> = (0..n).map(|i| pattern.slot(i, i).unwrap()).collect();
        for dyn_slots in [&diag[..], &diag[n - 2..]] {
            let make = |omega: f64| -> Vec<Complex> {
                let mut v: Vec<Complex> = g.iter().map(|&gr| Complex::from(gr)).collect();
                for &s in dyn_slots {
                    v[s] += Complex::new(0.0, 1e-3 * omega);
                }
                v
            };
            let mut lu = SparseLu::<Complex>::new();
            let mut full = SparseLu::<Complex>::new();
            lu.factor(&pattern, &make(1.0)).expect("first factor");
            full.factor(&pattern, &make(1.0)).expect("first factor");
            let b = vec![Complex::ONE; n];
            for omega in [10.0, 100.0, 1000.0] {
                let vals = make(omega);
                lu.factor_partial(&pattern, &vals, dyn_slots)
                    .expect("partial");
                full.factor(&pattern, &vals).expect("full");
                let xp = lu.solve_factored(&b).expect("solve");
                let xf = full.solve_factored(&b).expect("solve");
                for (p, f) in xp.iter().zip(&xf) {
                    assert_eq!(p.re.to_bits(), f.re.to_bits());
                    assert_eq!(p.im.to_bits(), f.im.to_bits());
                }
            }
            let stats = lu.factor_path_stats();
            let paths = (
                stats.replay_refactorizations,
                stats.partial_refactorizations,
            );
            if dyn_slots.len() == n {
                assert_eq!(paths, (3, 0));
            } else {
                assert_eq!(paths, (0, 3));
            }
        }
    }
}
