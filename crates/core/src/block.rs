//! Progressive response model.
//!
//! Khameleon requires every response to be *progressively encoded*: an ordered
//! list of (roughly) fixed-size blocks such that any prefix is sufficient to
//! render a lower-quality result and the full list renders the complete result
//! (§3.3 of the paper).  The framework itself is agnostic to block contents;
//! it only needs sizes and counts, which is what [`BlockMeta`] and
//! [`ResponseLayout`] capture.  Applications that want to ship real payloads
//! attach them through [`Block::payload`].
//!
//! A layout is at most two runs of equal-sized blocks — a head and a tail —
//! rather than a size per block.  That is exact for every encoder the
//! repository has (an even split leaves its remainder in the last block; a
//! strided split gives the first blocks one value more), and it makes a
//! layout a small `Copy` value: a [`ResponseCatalog`] of the paper's 10 000
//! images is one allocation of 32 bytes a request.

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
/// [`ResponseLayout::uniform`] captures that common case.  Encoders whose
/// natural block sizes differ produce two runs — a head of equal blocks and a
/// tail of equal blocks — which [`ResponseLayout::from_runs`] takes directly;
/// every block is padded to the larger of the two sizes.
///
/// Two runs are exact, not an approximation, for every encoder here: an even
/// split is `n − 1` blocks of the quotient and a last block carrying the
/// remainder, and a strided split of `v` values over `b` blocks gives the first
/// `v mod b` blocks one value more than the rest.  So the layout is a `Copy`
/// value with no heap, and a catalog of them is one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseLayout {
    request: RequestId,
    blocks: u32,
    /// Blocks `0..head_blocks` are `head_size` bytes, the rest `tail_size`.
    /// A single run is stored with `head_blocks == blocks` and both sizes
    /// equal, so equal block sizes mean equal layouts.
    head_blocks: u32,
    head_size: Bytes,
    tail_size: Bytes,
}

impl ResponseLayout {
    /// A layout of `blocks` equal-sized blocks of `block_size` bytes each.
    pub fn uniform(request: RequestId, blocks: u32, block_size: Bytes) -> Self {
        Self::from_runs(request, blocks, block_size, 0, block_size)
    }

    /// A layout of `head_blocks` blocks of `head_size` bytes followed by
    /// `tail_blocks` blocks of `tail_size` bytes.  Blocks are padded to the
    /// larger size so the client cache can use fixed-size slots.
    pub fn from_runs(
        request: RequestId,
        head_blocks: u32,
        head_size: Bytes,
        tail_blocks: u32,
        tail_size: Bytes,
    ) -> Self {
        let Some(blocks) = head_blocks.checked_add(tail_blocks).filter(|&b| b > 0) else {
            panic!("a response must have at least one block and at most u32::MAX");
        };
        let (head_blocks, head_size, tail_size) = if tail_blocks == 0 || head_size == tail_size {
            (blocks, head_size, head_size)
        } else if head_blocks == 0 {
            (blocks, tail_size, tail_size)
        } else {
            (head_blocks, head_size, tail_size)
        };
        ResponseLayout {
            request,
            blocks,
            head_blocks,
            head_size,
            tail_size,
        }
    }

    /// Splits a total response of `total_bytes` into `blocks` equal blocks
    /// (the last block absorbs the remainder, then all are padded).
    pub fn split_evenly(request: RequestId, total_bytes: Bytes, blocks: u32) -> Self {
        assert!(blocks > 0, "a response must have at least one block");
        let base = total_bytes / blocks as u64;
        let rem = total_bytes % blocks as u64;
        Self::from_runs(request, blocks - 1, base, 1, base + rem)
    }

    /// The request this layout belongs to.
    pub fn request(&self) -> RequestId {
        self.request
    }

    /// Number of blocks in the response.
    pub fn num_blocks(&self) -> u32 {
        self.blocks
    }

    /// Size every block is padded to (the cache slot size for this response).
    pub fn padded_block_size(&self) -> Bytes {
        self.head_size.max(self.tail_size)
    }

    /// Natural (unpadded) size of block `index`.
    pub fn natural_size(&self, index: u32) -> Option<Bytes> {
        if index >= self.blocks {
            None
        } else if index < self.head_blocks {
            Some(self.head_size)
        } else {
            Some(self.tail_size)
        }
    }

    /// Total natural size of the response.
    pub fn total_size(&self) -> Bytes {
        self.head_blocks as Bytes * self.head_size
            + (self.blocks - self.head_blocks) as Bytes * self.tail_size
    }

    /// Metadata for block `index`, or `None` if out of range.
    pub fn block_meta(&self, index: u32) -> Option<BlockMeta> {
        (index < self.blocks).then(|| BlockMeta {
            block: BlockRef::new(self.request, index),
            total_blocks: self.blocks,
            size: self.padded_block_size(),
        })
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
        let (mut max_blocks, mut max_block_size) = (0, 0);
        for (i, l) in layouts.iter().enumerate() {
            assert_eq!(
                l.request().index(),
                i,
                "layout at position {i} describes {} — layouts must be dense and ordered",
                l.request()
            );
            max_blocks = max_blocks.max(l.num_blocks());
            max_block_size = max_block_size.max(l.padded_block_size());
        }
        ResponseCatalog {
            layouts,
            max_blocks,
            max_block_size,
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
    fn from_runs_pads_to_max() {
        let l = ResponseLayout::from_runs(RequestId(1), 1, 100, 2, 300);
        assert_eq!(l.padded_block_size(), 300);
        assert_eq!(l.total_size(), 700);
        assert_eq!(l.natural_size(0), Some(100));
        let m = l.block_meta(1).unwrap();
        assert_eq!(m.size, 300);
        assert_eq!(m.total_blocks, 3);
        assert!((m.prefix_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(l.block_meta(3).is_none());
        // A layout whose runs describe one size equals the uniform one.
        let uniform = ResponseLayout::uniform(RequestId(1), 3, 300);
        assert_eq!(
            ResponseLayout::from_runs(RequestId(1), 0, 100, 3, 300),
            uniform
        );
        assert_eq!(
            ResponseLayout::from_runs(RequestId(1), 2, 300, 1, 300),
            uniform
        );
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
                runs in proptest::collection::vec(
                    ((0u32..5, 1u64..100_000), (1u32..5, 1u64..100_000)),
                    0..40,
                ),
            ) {
                let catalog = ResponseCatalog::new(
                    runs
                        .iter()
                        .enumerate()
                        .map(|(i, &((hb, hs), (tb, ts)))| {
                            ResponseLayout::from_runs(RequestId::from(i), hb, hs, tb, ts)
                        })
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
