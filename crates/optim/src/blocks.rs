//! The RLEKF gather-and-split block strategy.
//!
//! The weights error covariance matrix `P` of a layer-wise EKF is block
//! diagonal. Following \[23\] (and §3.3 / §5.3 of the paper), consecutive
//! small layers are *gathered* into one block until a threshold
//! `blocksize` would be exceeded, and any layer larger than the
//! threshold is *split* into chunks of at most `blocksize` parameters.
//!
//! For the paper's 26.6k-parameter network with `blocksize = 10240`
//! this produces blocks `{1350, 10240, 9810, 5151}` — the same
//! structure as the paper's `{1350, 10240, 9760, 5301}` (the small
//! differences are their extra 100 type-embedding parameters and the
//! placement of the remainder chunk).


/// One diagonal block: a contiguous range of the flat parameter vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Start index (inclusive) in the flat parameter vector.
    pub start: usize,
    /// End index (exclusive).
    pub end: usize,
}

impl Block {
    /// Number of parameters in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for an empty block (never produced by the layout).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Partition of the flat parameter vector into diagonal blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockLayout {
    /// Blocks in parameter order.
    pub blocks: Vec<Block>,
    /// Total parameter count.
    pub n_params: usize,
    /// The gather/split threshold used.
    pub blocksize: usize,
}

impl BlockLayout {
    /// Build the layout from per-layer parameter counts.
    ///
    /// # Panics
    /// Panics if `blocksize == 0` or `layer_sizes` is empty.
    pub fn from_layer_sizes(layer_sizes: &[usize], blocksize: usize) -> Self {
        assert!(blocksize > 0, "blocksize must be positive");
        assert!(!layer_sizes.is_empty(), "no layers");
        let mut blocks = Vec::new();
        let mut cur_start = 0usize;
        let mut cur_len = 0usize;
        let mut offset = 0usize;
        for &n in layer_sizes {
            if n > blocksize {
                // Flush the gathered block.
                if cur_len > 0 {
                    blocks.push(Block { start: cur_start, end: cur_start + cur_len });
                    cur_len = 0;
                }
                // Split the big layer into ≤ blocksize chunks.
                let mut rem = n;
                let mut off = offset;
                while rem > 0 {
                    let take = rem.min(blocksize);
                    blocks.push(Block { start: off, end: off + take });
                    off += take;
                    rem -= take;
                }
            } else if cur_len + n > blocksize {
                // Gathering would overflow: flush and start fresh.
                blocks.push(Block { start: cur_start, end: cur_start + cur_len });
                cur_start = offset;
                cur_len = n;
            } else {
                if cur_len == 0 {
                    cur_start = offset;
                }
                cur_len += n;
            }
            offset += n;
        }
        if cur_len > 0 {
            blocks.push(Block { start: cur_start, end: cur_start + cur_len });
        }
        BlockLayout { blocks, n_params: offset, blocksize }
    }

    /// Number of blocks (the `L` of §2.2).
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Block sizes in order.
    pub fn sizes(&self) -> Vec<usize> {
        self.blocks.iter().map(Block::len).collect()
    }

    /// Copy a block's slice out of a flat vector.
    pub fn gather<'a>(&self, block: usize, flat: &'a [f64]) -> &'a [f64] {
        let b = &self.blocks[block];
        &flat[b.start..b.end]
    }

    /// Add a block-local vector into the flat vector.
    pub fn scatter_add(&self, block: usize, local: &[f64], flat: &mut [f64]) {
        let b = &self.blocks[block];
        assert_eq!(local.len(), b.len(), "scatter_add: length mismatch");
        for (dst, src) in flat[b.start..b.end].iter_mut().zip(local) {
            *dst += src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_network_produces_paper_shaped_blocks() {
        // Single-species paper net layer sizes (see deepmd-core):
        // embedding [50, 650, 650], fitting [20050, 2550, 2550, 51].
        let layers = [50, 650, 650, 20050, 2550, 2550, 51];
        let layout = BlockLayout::from_layer_sizes(&layers, 10240);
        assert_eq!(layout.sizes(), vec![1350, 10240, 9810, 5151]);
        assert_eq!(layout.n_params, 26551);
    }

    #[test]
    fn blocks_partition_the_parameter_vector() {
        let layers = [3, 4, 10, 2, 25, 1];
        let layout = BlockLayout::from_layer_sizes(&layers, 8);
        let mut covered = vec![false; layout.n_params];
        for b in &layout.blocks {
            for (i, c) in covered.iter_mut().enumerate().take(b.end).skip(b.start) {
                assert!(!*c, "index {i} covered twice");
                *c = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "all indices covered");
        // Blocks are contiguous and ordered.
        for w in layout.blocks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn no_block_exceeds_blocksize_unless_layer_is_smaller() {
        let layers = [3, 4, 10, 2, 25, 1];
        let layout = BlockLayout::from_layer_sizes(&layers, 8);
        for b in &layout.blocks {
            assert!(b.len() <= 8 || layers.contains(&b.len()));
            assert!(b.len() <= 8, "split must cap blocks at blocksize");
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let layout = BlockLayout::from_layer_sizes(&[5, 7, 3], 6);
        let flat: Vec<f64> = (0..15).map(|i| i as f64).collect();
        let mut rebuilt = vec![0.0; 15];
        for b in 0..layout.n_blocks() {
            let local = layout.gather(b, &flat).to_vec();
            layout.scatter_add(b, &local, &mut rebuilt);
        }
        assert_eq!(rebuilt, flat);
    }

    proptest! {
        #[test]
        fn partition_property(
            layers in proptest::collection::vec(1usize..200, 1..12),
            blocksize in 1usize..64,
        ) {
            let layout = BlockLayout::from_layer_sizes(&layers, blocksize);
            let total: usize = layers.iter().sum();
            prop_assert_eq!(layout.n_params, total);
            let sum: usize = layout.sizes().iter().sum();
            prop_assert_eq!(sum, total);
            // Contiguity.
            let mut expected_start = 0;
            for b in &layout.blocks {
                prop_assert_eq!(b.start, expected_start);
                prop_assert!(!b.is_empty());
                prop_assert!(b.len() <= blocksize);
                expected_start = b.end;
            }
        }
    }
}
