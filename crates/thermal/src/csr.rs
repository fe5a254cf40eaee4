//! Flat CSR adjacency for the cell network.
//!
//! The solver's hot loops — Gauss–Seidel sweeps, operator applications and
//! explicit flow accumulation — walk every cell's incident resistances. A
//! `Vec<Vec<(u32, u32)>>` neighbour list scatters those walks across one
//! heap allocation per cell; the CSR layout here packs the same information
//! into flat arrays (`offsets`, `nbr`, `edge`) so a pass is a single linear
//! walk over contiguous memory. Convection is folded in as a per-cell entry
//! alongside, so the per-cell update needs no branch for "has a convection
//! path".
//!
//! Every row is sorted by neighbour index and split at the diagonal: the
//! entries `offsets[i]..split[i]` are the lower half (`j < i`), the entries
//! `split[i]..offsets[i + 1]` the upper half (`j > i`). A forward Gauss–Seidel sweep reads the
//! lower half at this sweep's values and the upper half at the previous
//! ones, a backward sweep the other way round, so a kernel that keeps one
//! half's sum hands it to the next pass instead of that pass walking the
//! half again (Eisenstat's trick; see the multigrid kernels in `solver.rs`
//! and `mg.rs`).

use crate::grid::Edge;

/// Sentinel for "cell has no convection entry".
pub(crate) const NO_CONV: u32 = u32::MAX;

/// Adjacency rows of an undirected graph, each listing its entries in the
/// order the edge list names the row's vertex (`push` per edge). The
/// coarsening's greedy matching breaks ties by this order.
pub(crate) struct EdgeOrderRows {
    /// `offsets[i]..offsets[i + 1]` indexes `nbr`/`edge` for vertex `i`
    /// (length `n + 1`).
    pub offsets: Vec<u32>,
    /// Neighbour vertex of each entry.
    pub nbr: Vec<u32>,
    /// Edge index of each entry.
    pub edge: Vec<u32>,
}

impl EdgeOrderRows {
    /// Builds the rows of `n` vertices from the edges' end points.
    pub fn build(n: usize, ends: impl Iterator<Item = (usize, usize)> + Clone) -> EdgeOrderRows {
        let mut offsets = vec![0u32; n + 1];
        for (a, b) in ends.clone() {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut nbr = vec![0u32; offsets[n] as usize];
        let mut edge = vec![0u32; offsets[n] as usize];
        for (ei, (a, b)) in ends.enumerate() {
            let ca = cursor[a] as usize;
            nbr[ca] = b as u32;
            edge[ca] = ei as u32;
            cursor[a] += 1;
            let cb = cursor[b] as usize;
            nbr[cb] = a as u32;
            edge[cb] = ei as u32;
            cursor[b] += 1;
        }
        EdgeOrderRows { offsets, nbr, edge }
    }
}

/// Adjacency rows sorted by neighbour index and split at the diagonal (see
/// the module docs). Entries with equal neighbours (parallel edges) keep
/// edge order.
#[derive(Clone, Debug)]
pub(crate) struct SortedRows {
    /// `offsets[i]..offsets[i + 1]` indexes `nbr`/`edge` for vertex `i`
    /// (length `n + 1`).
    pub offsets: Vec<u32>,
    /// First upper-half entry of each row (length `n`).
    pub split: Vec<u32>,
    /// Neighbour vertex of each entry, ascending within a row.
    pub nbr: Vec<u32>,
    /// Edge index of each entry (indexes the per-edge conductance arrays).
    pub edge: Vec<u32>,
}

impl SortedRows {
    /// Builds the sorted rows of `n` vertices from the edges' end points:
    /// one transpose of the edge-order rows. Row `j` is scattered into the
    /// rows of its neighbours in ascending `j`, so every row comes out
    /// sorted, and the entries a row holds when its own turn comes are
    /// exactly its lower half. O(edges), no per-row allocation.
    pub fn build(n: usize, ends: impl Iterator<Item = (usize, usize)> + Clone) -> SortedRows {
        let by_edge = EdgeOrderRows::build(n, ends);
        let offsets = by_edge.offsets;
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut split = vec![0u32; n];
        let mut nbr = vec![0u32; by_edge.nbr.len()];
        let mut edge = vec![0u32; by_edge.edge.len()];
        for j in 0..n {
            split[j] = cursor[j];
            for k in offsets[j] as usize..offsets[j + 1] as usize {
                let i = by_edge.nbr[k] as usize;
                debug_assert_ne!(i, j, "no self-loops");
                let c = cursor[i] as usize;
                nbr[c] = j as u32;
                edge[c] = by_edge.edge[k];
                cursor[i] += 1;
            }
        }
        SortedRows { offsets, split, nbr, edge }
    }

    /// Number of entries of row `i`.
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Total entries (`2 × edges`) — the length of per-entry arrays.
    pub fn n_entries(&self) -> usize {
        self.nbr.len()
    }
}

/// `Σ g[k] · x[nbr[k]]` over one run of entries (a row or a half-row),
/// summed in entry order.
#[inline(always)]
pub(crate) fn entries_dot(g: &[f64], nbr: &[u32], x: &[f64]) -> f64 {
    let mut s = 0.0;
    for (&g, &j) in g.iter().zip(nbr) {
        s += g * x[j as usize];
    }
    s
}

/// [`entries_dot`] split around the run's last entry: `(Σ over the others,
/// that entry's term)`. In a Gauss–Seidel sweep the last entry of a lower
/// half (forward) is the neighbour updated most recently; adding its term
/// last keeps the sweep's loop-carried chain to one multiply and two adds.
#[inline(always)]
pub(crate) fn entries_dot_fresh_last(g: &[f64], nbr: &[u32], x: &[f64]) -> (f64, f64) {
    match (g.split_last(), nbr.split_last()) {
        (Some((&g_last, g)), Some((&j, nbr))) => (entries_dot(g, nbr, x), g_last * x[j as usize]),
        _ => (0.0, 0.0),
    }
}

/// [`entries_dot`] split around the run's first entry: `(Σ over the
/// others, that entry's term)` — the most recently updated neighbour of an
/// upper half in a backward sweep (see [`entries_dot_fresh_last`]).
#[inline(always)]
pub(crate) fn entries_dot_fresh_first(g: &[f64], nbr: &[u32], x: &[f64]) -> (f64, f64) {
    match (g.split_first(), nbr.split_first()) {
        (Some((&g_first, g)), Some((&j, nbr))) => (entries_dot(g, nbr, x), g_first * x[j as usize]),
        _ => (0.0, 0.0),
    }
}

/// CSR-flattened cell adjacency: sorted, split rows plus the convection
/// entries.
#[derive(Clone, Debug)]
pub(crate) struct CellCsr {
    /// The resistive edges' rows.
    pub rows: SortedRows,
    /// Convection-entry index per cell ([`NO_CONV`] when absent).
    pub conv: Vec<u32>,
}

impl CellCsr {
    /// Builds the CSR layout for `n` cells.
    pub fn build(n: usize, edges: &[Edge], convection: &[(usize, f64, f64)]) -> CellCsr {
        let rows = SortedRows::build(n, edges.iter().map(|e| (e.a, e.b)));
        let mut conv = vec![NO_CONV; n];
        for (ci, &(cell, _, _)) in convection.iter().enumerate() {
            conv[cell] = ci as u32;
        }
        CellCsr { rows, conv }
    }
}

/// Checks `rows` against the `push`-per-edge nested layout of `ends`:
/// every row ascending, holding the same `(nbr, edge)` multiset, and
/// split exactly where its neighbours pass the diagonal.
#[cfg(test)]
pub(crate) fn assert_sorted_split(rows: &SortedRows, n: usize, ends: &[(usize, usize)]) {
    let mut nested = vec![Vec::new(); n];
    for (ei, &(a, b)) in ends.iter().enumerate() {
        nested[a].push((b as u32, ei as u32));
        nested[b].push((a as u32, ei as u32));
    }
    assert_eq!(rows.offsets.len(), n + 1);
    assert_eq!(rows.split.len(), n);
    for (i, expect) in nested.iter_mut().enumerate() {
        let (lo, mid, hi) =
            (rows.offsets[i] as usize, rows.split[i] as usize, rows.offsets[i + 1] as usize);
        assert!(lo <= mid && mid <= hi, "row {i}: split inside the row");
        let row: Vec<(u32, u32)> = (lo..hi).map(|k| (rows.nbr[k], rows.edge[k])).collect();
        assert!(row.windows(2).all(|w| w[0] <= w[1]), "row {i} ascending: {row:?}");
        assert!(rows.nbr[lo..mid].iter().all(|&j| (j as usize) < i), "row {i}: lower half");
        assert!(rows.nbr[mid..hi].iter().all(|&j| (j as usize) > i), "row {i}: upper half");
        expect.sort_unstable();
        assert_eq!(&row, expect, "row {i} holds the nested layout's entries");
        assert_eq!(rows.degree(i), expect.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(a: usize, b: usize) -> Edge {
        Edge { a, b, g_a: 1.0, g_b: 1.0 }
    }

    #[test]
    fn csr_rows_are_sorted_split_and_complete() {
        // A 2x2 grid with a vertical stack, edges listed out of order and
        // one parallel pair: sorting must not lose or invent an entry.
        let ends = [(0, 1), (2, 3), (0, 2), (1, 3), (4, 0), (3, 1), (2, 4)];
        let edges: Vec<Edge> = ends.iter().map(|&(a, b)| edge(a, b)).collect();
        let conv = [(4usize, 1.0, 1.0)];
        let csr = CellCsr::build(5, &edges, &conv);
        assert_sorted_split(&csr.rows, 5, &ends);
        let lower: Vec<u32> = (0..5).map(|i| csr.rows.split[i] - csr.rows.offsets[i]).collect();
        assert_eq!(lower, [0, 1, 1, 3, 2]);
        assert_eq!(csr.rows.n_entries(), 2 * ends.len());
        assert_eq!(csr.conv[4], 0);
        assert_eq!(csr.conv[0], NO_CONV);
    }

    #[test]
    fn edge_order_rows_follow_edge_order() {
        let ends = [(0, 1), (2, 0), (1, 2)];
        let rows = EdgeOrderRows::build(3, ends.iter().copied());
        assert_eq!(rows.offsets, [0, 2, 4, 6]);
        assert_eq!(rows.nbr, [1, 2, 0, 2, 0, 1]);
        assert_eq!(rows.edge, [0, 1, 0, 2, 1, 2]);
    }
}
