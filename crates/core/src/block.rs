//! Progressive response model.
//!
//! Khameleon requires every response to be *progressively encoded*: an ordered
//! list of (roughly) fixed-size blocks such that any prefix is sufficient to
//! render a lower-quality result and the full list renders the complete result
//! (§3.3 of the paper).  The framework itself is agnostic to block contents;
//! it only needs sizes and counts, which is what [`BlockMeta`] and
//! [`ResponseLayout`] capture.  Applications that want to ship real payloads
//! attach them through [`Block::payload`].

use crate::types::{BlockRef, Bytes, RequestId};

/// Metadata describing one block of a progressively encoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Which block this is.
    pub block: BlockRef,
    /// Total number of blocks in the response this block belongs to.
    pub total_blocks: u32,
    /// Size of this block's payload in bytes (after any padding).
    pub size: Bytes,
}

impl BlockMeta {
    /// Fraction of the response available once this block and all earlier
    /// blocks have been received, in `(0, 1]`.
    pub fn prefix_fraction(&self) -> f64 {
        debug_assert!(self.total_blocks > 0);
        (self.block.index + 1) as f64 / self.total_blocks as f64
    }
}

/// A block together with an optional payload.
///
/// Simulation-driven experiments usually leave `payload` empty and work purely
/// with sizes; live deployments (see the `live_pipeline` example) carry real
/// bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Metadata (identity, position, size).
    pub meta: BlockMeta,
    /// Optional payload bytes.  When present its length should equal
    /// `meta.size` minus padding.
    pub payload: Option<Vec<u8>>,
}

impl Block {
    /// Creates a payload-less block (metadata only).
    pub fn meta_only(block: BlockRef, total_blocks: u32, size: Bytes) -> Self {
        Block {
            meta: BlockMeta {
                block,
                total_blocks,
                size,
            },
            payload: None,
        }
    }

    /// Creates a block carrying `payload`, padded (conceptually) to `size`.
    pub fn with_payload(block: BlockRef, total_blocks: u32, size: Bytes, payload: Vec<u8>) -> Self {
        Block {
            meta: BlockMeta {
                block,
                total_blocks,
                size,
            },
            payload: Some(payload),
        }
    }
}

/// The block layout of a single response: how many blocks it is split into and
/// how large each block is.
///
/// The paper assumes equal-sized blocks, padding smaller ones (§3.3).
/// [`ResponseLayout::uniform`] captures that common case;
/// [`ResponseLayout::from_sizes`] supports encoders whose natural block sizes
/// differ (the padded size is the maximum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseLayout {
    request: RequestId,
    block_sizes: Vec<Bytes>,
    padded_size: Bytes,
}

impl ResponseLayout {
    /// A layout of `blocks` equal-sized blocks of `block_size` bytes each.
    pub fn uniform(request: RequestId, blocks: u32, block_size: Bytes) -> Self {
        assert!(blocks > 0, "a response must have at least one block");
        ResponseLayout {
            request,
            block_sizes: vec![block_size; blocks as usize],
            padded_size: block_size,
        }
    }

    /// A layout built from per-block natural sizes.  Blocks are padded to the
    /// largest natural size so the client cache can use fixed-size slots.
    pub fn from_sizes(request: RequestId, sizes: Vec<Bytes>) -> Self {
        assert!(!sizes.is_empty(), "a response must have at least one block");
        let padded = sizes.iter().copied().max().unwrap_or(0);
        ResponseLayout {
            request,
            block_sizes: sizes,
            padded_size: padded,
        }
    }

    /// Splits a total response of `total_bytes` into `blocks` equal blocks
    /// (the last block absorbs the remainder, then all are padded).
    pub fn split_evenly(request: RequestId, total_bytes: Bytes, blocks: u32) -> Self {
        assert!(blocks > 0, "a response must have at least one block");
        let base = total_bytes / blocks as u64;
        let rem = total_bytes % blocks as u64;
        let mut sizes = vec![base; blocks as usize];
        if let Some(last) = sizes.last_mut() {
            *last += rem;
        }
        Self::from_sizes(request, sizes)
    }

    /// The request this layout belongs to.
    pub fn request(&self) -> RequestId {
        self.request
    }

    /// Number of blocks in the response.
    pub fn num_blocks(&self) -> u32 {
        self.block_sizes.len() as u32
    }

    /// Size every block is padded to (the cache slot size for this response).
    pub fn padded_block_size(&self) -> Bytes {
        self.padded_size
    }

    /// Natural (unpadded) size of block `index`.
    pub fn natural_size(&self, index: u32) -> Option<Bytes> {
        self.block_sizes.get(index as usize).copied()
    }

    /// Total natural size of the response.
    pub fn total_size(&self) -> Bytes {
        self.block_sizes.iter().sum()
    }

    /// Metadata for block `index`, or `None` if out of range.
    pub fn block_meta(&self, index: u32) -> Option<BlockMeta> {
        if (index as usize) < self.block_sizes.len() {
            Some(BlockMeta {
                block: BlockRef::new(self.request, index),
                total_blocks: self.num_blocks(),
                size: self.padded_size,
            })
        } else {
            None
        }
    }

    /// Iterates over the metadata of all blocks in prefix order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = BlockMeta> + '_ {
        (0..self.num_blocks()).filter_map(move |i| self.block_meta(i))
    }

    /// Fraction of the response covered by a prefix of `blocks` blocks.
    pub fn prefix_fraction(&self, blocks: u32) -> f64 {
        (blocks.min(self.num_blocks())) as f64 / self.num_blocks() as f64
    }
}

/// Catalog of response layouts for an entire request space.
///
/// The scheduler and the cache need to know, for any request id, how many
/// blocks its response has and how big they are.  A `ResponseCatalog` is the
/// shared source of truth; application crates build one from their encoders.
#[derive(Debug, Clone)]
pub struct ResponseCatalog {
    layouts: Vec<ResponseLayout>,
    /// Maxima over `layouts`, computed once at construction: the catalog is
    /// immutable, and the pacing path reads them per block.
    max_blocks: u32,
    max_block_size: Bytes,
}

impl ResponseCatalog {
    /// Builds a catalog from per-request layouts.  Layout `i` must describe
    /// request `i`.
    pub fn new(layouts: Vec<ResponseLayout>) -> Self {
        for (i, l) in layouts.iter().enumerate() {
            assert_eq!(
                l.request().index(),
                i,
                "layout at position {i} describes {} — layouts must be dense and ordered",
                l.request()
            );
        }
        ResponseCatalog {
            max_blocks: layouts.iter().map(|l| l.num_blocks()).max().unwrap_or(0),
            max_block_size: layouts
                .iter()
                .map(|l| l.padded_block_size())
                .max()
                .unwrap_or(0),
            layouts,
        }
    }

    /// A catalog in which every one of `n` requests has the same uniform
    /// layout (`blocks` blocks of `block_size` bytes).
    pub fn uniform(n: usize, blocks: u32, block_size: Bytes) -> Self {
        let layouts = (0..n)
            .map(|i| ResponseLayout::uniform(RequestId::from(i), blocks, block_size))
            .collect();
        ResponseCatalog::new(layouts)
    }

    /// Number of requests in the catalog.
    pub fn num_requests(&self) -> usize {
        self.layouts.len()
    }

    /// Layout of `request`. Panics if the request is outside the catalog.
    pub fn layout(&self, request: RequestId) -> &ResponseLayout {
        &self.layouts[request.index()]
    }

    /// Layout of `request`, or `None` if the request is outside the catalog.
    pub fn get(&self, request: RequestId) -> Option<&ResponseLayout> {
        self.layouts.get(request.index())
    }

    /// Number of blocks for `request`.
    pub fn num_blocks(&self, request: RequestId) -> u32 {
        self.layout(request).num_blocks()
    }

    /// Maximum number of blocks over all requests.
    pub fn max_blocks(&self) -> u32 {
        self.max_blocks
    }

    /// Maximum padded block size over all requests — a safe fixed slot size
    /// for the client cache.
    pub fn max_block_size(&self) -> Bytes {
        self.max_block_size
    }

    /// Iterates over all layouts.
    pub fn iter(&self) -> impl Iterator<Item = &ResponseLayout> {
        self.layouts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layout() {
        let l = ResponseLayout::uniform(RequestId(3), 10, 4096);
        assert_eq!(l.num_blocks(), 10);
        assert_eq!(l.padded_block_size(), 4096);
        assert_eq!(l.total_size(), 40_960);
        assert_eq!(l.prefix_fraction(5), 0.5);
        assert_eq!(l.prefix_fraction(20), 1.0);
    }

    #[test]
    fn split_evenly_distributes_remainder() {
        let l = ResponseLayout::split_evenly(RequestId(0), 1003, 4);
        assert_eq!(l.num_blocks(), 4);
        assert_eq!(l.total_size(), 1003);
        // Last block absorbs the remainder, padding uses the maximum.
        assert_eq!(l.natural_size(3), Some(250 + 3));
        assert_eq!(l.padded_block_size(), 253);
    }

    #[test]
    fn from_sizes_pads_to_max() {
        let l = ResponseLayout::from_sizes(RequestId(1), vec![100, 300, 200]);
        assert_eq!(l.padded_block_size(), 300);
        assert_eq!(l.total_size(), 600);
        let m = l.block_meta(1).unwrap();
        assert_eq!(m.size, 300);
        assert_eq!(m.total_blocks, 3);
        assert!((m.prefix_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(l.block_meta(3).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_block_layout_panics() {
        ResponseLayout::uniform(RequestId(0), 0, 10);
    }

    #[test]
    fn catalog_uniform() {
        let c = ResponseCatalog::uniform(16, 5, 1024);
        assert_eq!(c.num_requests(), 16);
        assert_eq!(c.num_blocks(RequestId(7)), 5);
        assert_eq!(c.max_blocks(), 5);
        assert_eq!(c.max_block_size(), 1024);
        assert_eq!(c.layout(RequestId(2)).request(), RequestId(2));
        assert!(c.get(RequestId(100)).is_none());
    }

    #[test]
    fn catalog_iteration_covers_all_blocks() {
        let c = ResponseCatalog::uniform(4, 3, 10);
        let total: usize = c.iter().map(|l| l.iter_blocks().count()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn catalog_rejects_misordered_layouts() {
        ResponseCatalog::new(vec![ResponseLayout::uniform(RequestId(1), 1, 1)]);
    }

    #[test]
    fn block_constructors() {
        let b = Block::meta_only(BlockRef::new(RequestId(0), 2), 4, 100);
        assert!(b.payload.is_none());
        assert_eq!(b.meta.size, 100);
        let b2 = Block::with_payload(BlockRef::new(RequestId(0), 0), 4, 100, vec![1, 2, 3]);
        assert_eq!(b2.payload.as_ref().unwrap().len(), 3);
    }
    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The maxima cached at construction equal a scan of the layouts.
            #[test]
            fn cached_maxima_match_a_scan(
                sizes in proptest::collection::vec(
                    proptest::collection::vec(1u64..100_000, 1..9),
                    0..40,
                ),
            ) {
                let catalog = ResponseCatalog::new(
                    sizes
                        .iter()
                        .enumerate()
                        .map(|(i, s)| ResponseLayout::from_sizes(RequestId::from(i), s.clone()))
                        .collect(),
                );
                prop_assert_eq!(
                    catalog.max_blocks(),
                    catalog.iter().map(|l| l.num_blocks()).max().unwrap_or(0)
                );
                prop_assert_eq!(
                    catalog.max_block_size(),
                    catalog.iter().map(|l| l.padded_block_size()).max().unwrap_or(0)
                );
            }
        }
    }
}
