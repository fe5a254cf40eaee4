//! Flat CSR adjacency for the cell network.
//!
//! The solver's hot loops — Gauss–Seidel sweeps and explicit flow
//! accumulation — walk every cell's incident resistances. A
//! `Vec<Vec<(u32, u32)>>` neighbour list scatters those walks across one
//! heap allocation per cell; the CSR layout here packs the same information
//! into three flat arrays (`offsets`, `nbr`, `edge`) so a sweep is a single
//! linear pass over contiguous memory. Convection is folded in as a per-cell
//! entry alongside, so the per-cell update needs no branch for "has a
//! convection path".

use crate::grid::Edge;

/// Sentinel for "cell has no convection entry".
pub(crate) const NO_CONV: u32 = u32::MAX;

/// CSR-flattened cell adjacency.
#[derive(Clone, Debug)]
pub(crate) struct CellCsr {
    /// `offsets[i]..offsets[i + 1]` indexes `nbr`/`edge` for cell `i`
    /// (length `n + 1`).
    pub offsets: Vec<u32>,
    /// Neighbour cell of each adjacency entry (length `2 * n_edges`).
    pub nbr: Vec<u32>,
    /// Edge index of each adjacency entry (indexes the solver's per-edge
    /// conductance array).
    pub edge: Vec<u32>,
    /// Convection-entry index per cell ([`NO_CONV`] when absent).
    pub conv: Vec<u32>,
}

impl CellCsr {
    /// Builds the CSR layout for `n` cells.
    ///
    /// Per-cell entry order follows edge order, matching what a
    /// `push`-per-edge neighbour list would produce — sweeps in natural cell
    /// order therefore accumulate in exactly the same sequence as the
    /// nested-`Vec` layout did.
    pub fn build(n: usize, edges: &[Edge], convection: &[(usize, f64, f64)]) -> CellCsr {
        let mut counts = vec![0u32; n + 1];
        for e in edges {
            counts[e.a + 1] += 1;
            counts[e.b + 1] += 1;
        }
        let mut offsets = counts;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut nbr = vec![0u32; offsets[n] as usize];
        let mut edge = vec![0u32; offsets[n] as usize];
        for (ei, e) in edges.iter().enumerate() {
            let ca = cursor[e.a] as usize;
            nbr[ca] = e.b as u32;
            edge[ca] = ei as u32;
            cursor[e.a] += 1;
            let cb = cursor[e.b] as usize;
            nbr[cb] = e.a as u32;
            edge[cb] = ei as u32;
            cursor[e.b] += 1;
        }

        let mut conv = vec![NO_CONV; n];
        for (ci, &(cell, _, _)) in convection.iter().enumerate() {
            conv[cell] = ci as u32;
        }

        CellCsr { offsets, nbr, edge, conv }
    }

    /// Number of resistive edges incident to `cell` (excluding convection).
    pub fn degree(&self, cell: usize) -> usize {
        (self.offsets[cell + 1] - self.offsets[cell]) as usize
    }

    /// Total adjacency entries (`2 × n_edges`) — the length of the
    /// solver's per-entry conductance arrays.
    pub fn n_entries(&self) -> usize {
        self.nbr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(a: usize, b: usize) -> Edge {
        Edge { a, b, g_a: 1.0, g_b: 1.0 }
    }

    #[test]
    fn csr_matches_nested_vec_layout() {
        // A 2x2 grid with a vertical stack: same adjacency both ways.
        let edges = [edge(0, 1), edge(2, 3), edge(0, 2), edge(1, 3), edge(0, 4)];
        let conv = [(4usize, 1.0, 1.0)];
        let csr = CellCsr::build(5, &edges, &conv);
        let mut nested = vec![Vec::new(); 5];
        for (ei, e) in edges.iter().enumerate() {
            nested[e.a].push((e.b as u32, ei as u32));
            nested[e.b].push((e.a as u32, ei as u32));
        }
        for (i, expect) in nested.iter().enumerate() {
            let span = csr.offsets[i] as usize..csr.offsets[i + 1] as usize;
            let flat: Vec<(u32, u32)> =
                span.map(|k| (csr.nbr[k], csr.edge[k])).collect();
            assert_eq!(&flat, expect, "cell {i} entry order preserved");
            assert_eq!(csr.degree(i), expect.len());
        }
        assert_eq!(csr.conv[4], 0);
        assert_eq!(csr.conv[0], NO_CONV);
    }
}
