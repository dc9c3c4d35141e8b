//! Conformal distribution of the input matrix `A` over a
//! [`TriangleBlockDist`]: row block `A_i` is split evenly among the
//! `c + 1` processors of `Q_i` (§5.2.1). The split is over the flattened
//! row-major elements of the block — the paper leaves the within-block
//! distribution arbitrary as long as it is even.
//!
//! The distribution covers a column window of the caller's `A` (all of it
//! for Algorithm 2, one block column `A_{*ℓ}` per slice of Algorithm 3),
//! and staging reads `A` in place: a rank copies only its own chunks.

use std::ops::Range;

use super::triangle::TriangleBlockDist;
use syrk_dense::{Matrix, Partition1D};

/// Maps between global `A` coordinates and the per-rank chunks of the
/// conformal distribution, for the `n1 × n2` window `A[:, cols]` split
/// into `c²` row blocks (near-even when `c² ∤ n1`).
#[derive(Debug, Clone)]
pub struct ConformalADist<'d> {
    dist: &'d TriangleBlockDist,
    /// Row partition of `0..n1` into `c²` row blocks.
    pub rows: Partition1D,
    /// The columns of `A` this distribution covers.
    cols: Range<usize>,
}

impl<'d> ConformalADist<'d> {
    /// Create the conformal distribution of a whole `n1 × n2` matrix.
    pub fn new(dist: &'d TriangleBlockDist, n1: usize, n2: usize) -> Self {
        Self::with_columns(dist, n1, 0..n2)
    }

    /// Create the conformal distribution of the column window `A[:, cols]`
    /// of an `n1`-row matrix; chunks are then read from that window of the
    /// matrix passed to [`extract_chunk`](Self::extract_chunk).
    pub(crate) fn with_columns(dist: &'d TriangleBlockDist, n1: usize, cols: Range<usize>) -> Self {
        let rows = Partition1D::new(n1, dist.num_blocks());
        ConformalADist { dist, rows, cols }
    }

    /// Width `n2` of the distributed window.
    pub(crate) fn n2(&self) -> usize {
        self.cols.len()
    }

    /// Dimensions of row block `A_i`.
    pub fn block_shape(&self, i: usize) -> (usize, usize) {
        (self.rows.len(i), self.n2())
    }

    /// Flattened length of row block `A_i`.
    pub fn block_len(&self, i: usize) -> usize {
        self.rows.len(i) * self.n2()
    }

    /// The element partition of `A_i` among its `c+1` owners, in `Q_i`
    /// order (chunk `pos` belongs to the `pos`-th member of `Q_i`).
    pub fn chunk_partition(&self, i: usize) -> Partition1D {
        Partition1D::new(self.block_len(i), self.dist.c() + 1)
    }

    /// Length of the chunk of `A_i` held by rank `k ∈ Q_i`.
    pub fn chunk_len(&self, i: usize, k: usize) -> usize {
        self.chunk_partition(i).len(self.dist.chunk_index(i, k))
    }

    /// Copy rank `k`'s chunk of `A_i` out of the window of the caller's
    /// matrix `a` (used to stage the initial distribution; costs nothing
    /// on the machine). Only the chunk is read: the pieces of the rows it
    /// spans, straight from `a`'s storage.
    pub fn extract_chunk(&self, a: &Matrix<f64>, i: usize, k: usize) -> Vec<f64> {
        assert_eq!(a.rows(), self.rows.n(), "A has the wrong number of rows");
        let chunk = self.chunk_partition(i).range(self.dist.chunk_index(i, k));
        let mut out = Vec::with_capacity(chunk.len());
        if chunk.is_empty() {
            return out;
        }
        let (rows, n2) = (self.rows.range(i), self.n2());
        let block = a.block(rows.start, self.cols.start, rows.len(), n2);
        let (mut r, mut col) = (chunk.start / n2, chunk.start % n2);
        while out.len() < chunk.len() {
            let take = (n2 - col).min(chunk.len() - out.len());
            out.extend_from_slice(&block.row(r)[col..col + take]);
            (r, col) = (r + 1, 0);
        }
        out
    }

    /// Reassemble the full row block `A_i` from its `c+1` chunks, given in
    /// `Q_i` order, copying each chunk once into the block's buffer.
    pub fn assemble_block<C: AsRef<[f64]>>(
        &self,
        i: usize,
        chunks: impl IntoIterator<Item = C>,
    ) -> Matrix<f64> {
        let owners = self.dist.c() + 1;
        let part = self.chunk_partition(i);
        let mut flat = Vec::with_capacity(self.block_len(i));
        let mut count = 0;
        for (pos, ch) in chunks.into_iter().enumerate() {
            assert!(pos < owners, "need one chunk per member of Q_i");
            let ch = ch.as_ref();
            assert_eq!(
                ch.len(),
                part.len(pos),
                "chunk {pos} of A_{i} has the wrong length"
            );
            flat.extend_from_slice(ch);
            count += 1;
        }
        assert_eq!(count, owners, "need one chunk per member of Q_i");
        let (r, c) = self.block_shape(i);
        Matrix::from_vec(r, c, flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syrk_dense::seeded_matrix;

    #[test]
    fn chunks_reassemble_every_block() {
        let dist = TriangleBlockDist::new(3);
        let (n1, n2) = (27, 5);
        let a = seeded_matrix::<f64>(n1, n2, 1);
        let ad = ConformalADist::new(&dist, n1, n2);
        for i in 0..dist.num_blocks() {
            let chunks: Vec<Vec<f64>> = dist
                .q_set(i)
                .iter()
                .map(|&k| ad.extract_chunk(&a, i, k))
                .collect();
            let asm = ad.assemble_block(i, &chunks);
            let range = ad.rows.range(i);
            let want = a.block_owned(range.start, 0, range.len(), n2);
            assert_eq!(asm, want, "block {i}");
        }
    }

    /// The staging that in-place extraction replaced, kept here only as
    /// the reference: copy the whole block column, then the whole row
    /// block, then slice the chunk out of the flat copy.
    fn copied_chunk(
        dist: &TriangleBlockDist,
        a: &Matrix<f64>,
        cols: Range<usize>,
        i: usize,
        k: usize,
    ) -> Vec<f64> {
        let n1 = a.rows();
        let a_col = a.block_owned(0, cols.start, n1, cols.len());
        let rows = Partition1D::new(n1, dist.num_blocks()).range(i);
        let flat = a_col
            .block_owned(rows.start, 0, rows.len(), cols.len())
            .into_vec();
        let part = Partition1D::new(flat.len(), dist.c() + 1);
        flat[part.range(dist.chunk_index(i, k))].to_vec()
    }

    #[test]
    fn windowed_extraction_matches_copied_staging() {
        // (c, n1, n2, p2): c² ∤ n1, p2 ∤ n2, n1 < c² (empty row blocks),
        // and a whole-matrix window (p2 = 1).
        let shapes = [
            (2usize, 10usize, 11usize, 3usize),
            (2, 7, 9, 2),
            (3, 5, 7, 2),
            (3, 23, 13, 5),
            (3, 27, 5, 1),
            (5, 17, 6, 4),
        ];
        let (mut mid_row, mut empty_block) = (false, false);
        for &(c, n1, n2, p2) in &shapes {
            let dist = TriangleBlockDist::new(c);
            let a = seeded_matrix::<f64>(n1, n2, (n1 * 31 + n2 * 7 + c) as u64);
            let cols = Partition1D::new(n2, p2);
            for l in 0..p2 {
                let ad = ConformalADist::with_columns(&dist, n1, cols.range(l));
                for i in 0..dist.num_blocks() {
                    empty_block |= ad.block_len(i) == 0;
                    let part = ad.chunk_partition(i);
                    for &k in dist.q_set(i) {
                        let chunk = part.range(dist.chunk_index(i, k));
                        mid_row |= !chunk.is_empty() && !chunk.start.is_multiple_of(ad.n2());
                        let want = copied_chunk(&dist, &a, cols.range(l), i, k);
                        let got = ad.extract_chunk(&a, i, k);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "c={c} ({n1}x{n2}, p2={p2}) slice {l}: chunk of A_{i} on rank {k}"
                        );
                    }
                }
            }
        }
        assert!(mid_row, "no chunk started mid-row");
        assert!(empty_block, "no row block was empty");
    }

    #[test]
    fn uneven_rows_still_tile() {
        // n1 = 10 with c² = 9 row blocks: one block gets 2 rows.
        let dist = TriangleBlockDist::new(3);
        let ad = ConformalADist::new(&dist, 10, 4);
        let total: usize = (0..9).map(|i| ad.block_len(i)).sum();
        assert_eq!(total, 40);
        assert_eq!(ad.block_shape(0), (2, 4));
        assert_eq!(ad.block_shape(8), (1, 4));
    }

    #[test]
    fn chunk_lengths_sum_to_block() {
        let dist = TriangleBlockDist::new(2);
        let ad = ConformalADist::new(&dist, 8, 7);
        for i in 0..4 {
            let sum: usize = dist.q_set(i).iter().map(|&k| ad.chunk_len(i, k)).sum();
            assert_eq!(sum, ad.block_len(i), "block {i}");
        }
    }

    #[test]
    fn chunks_are_even_within_one() {
        let dist = TriangleBlockDist::new(3);
        let ad = ConformalADist::new(&dist, 18, 10);
        for i in 0..9 {
            let lens: Vec<usize> = dist.q_set(i).iter().map(|&k| ad.chunk_len(i, k)).collect();
            let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(mx - mn <= 1, "block {i}: {lens:?}");
        }
    }
}
