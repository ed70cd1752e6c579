//! Progressive encoders: turning full responses into ordered block lists.
//!
//! Khameleon requires responses to be progressively encoded so that any
//! prefix of blocks renders a lower-quality result (§3.3).  The paper uses
//! progressive JPEG for images and, for Falcon, samples the rows of a query
//! result round-robin into blocks (§6.1, §6.4).  This module implements both
//! shapes over abstract value sequences:
//!
//! * [`RoundRobinEncoder`] — block `b` holds the values at positions
//!   `i ≡ b (mod B)`; decoding a prefix yields a strided sample of the full
//!   result whose density grows with each block.
//! * [`ByteRangeEncoder`] — splits an opaque byte payload into contiguous
//!   ranges (the shape of a progressive-JPEG scan sequence when block sizes
//!   are fixed).

use khameleon_core::block::ResponseLayout;
use khameleon_core::types::RequestId;

/// Round-robin (strided) progressive encoding of a value sequence.
#[derive(Debug, Clone, Copy)]
pub struct RoundRobinEncoder {
    blocks: u32,
}

impl RoundRobinEncoder {
    /// Creates an encoder producing `blocks` blocks per response.
    pub fn new(blocks: u32) -> Self {
        assert!(blocks > 0, "need at least one block");
        RoundRobinEncoder { blocks }
    }

    /// Number of blocks per response.
    pub fn blocks(&self) -> u32 {
        self.blocks
    }

    /// Encodes `values` into blocks.  Block `b` holds `(index, value)` pairs
    /// for every index congruent to `b` modulo the block count.
    pub fn encode(&self, values: &[u64]) -> Vec<EncodedBlock> {
        let b = self.blocks as usize;
        let mut out: Vec<EncodedBlock> = (0..b)
            .map(|_| EncodedBlock {
                entries: Vec::new(),
                total_len: values.len(),
            })
            .collect();
        for (i, &v) in values.iter().enumerate() {
            out[i % b].entries.push((i as u32, v));
        }
        out
    }

    /// Decodes a prefix of blocks into a sparse reconstruction: `Some(v)`
    /// where the value is known, `None` where it is not yet available.
    // lint:allow(unreferenced-pub) -- tests/falcon_stack.rs decodes a slice's block prefix with it
    pub fn decode_prefix(&self, blocks: &[EncodedBlock]) -> Vec<Option<u64>> {
        let total = blocks.first().map(|b| b.total_len).unwrap_or(0);
        let mut out = vec![None; total];
        for b in blocks {
            for &(i, v) in &b.entries {
                if (i as usize) < total {
                    out[i as usize] = Some(v);
                }
            }
        }
        out
    }

    /// The response layout (block sizes) for a result of `values_len` values
    /// of 12 bytes each (4-byte index + 8-byte value), padded to the largest
    /// block.
    pub fn layout(&self, request: RequestId, values_len: usize) -> ResponseLayout {
        let q = values_len / self.blocks as usize;
        // The first `r` blocks hold one value more than the rest.
        let r = (values_len % self.blocks as usize) as u32;
        ResponseLayout::from_runs(
            request,
            r,
            ((q + 1) * 12) as u64,
            self.blocks - r,
            (q.max(1) * 12) as u64,
        )
    }
}

/// One block of a round-robin-encoded result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedBlock {
    /// `(index, value)` pairs carried by this block.
    pub entries: Vec<(u32, u64)>,
    /// Length of the full result (so prefixes know the output size).
    pub total_len: usize,
}

/// Contiguous byte-range progressive encoding (progressive-JPEG-like).
#[derive(Debug, Clone, Copy)]
pub struct ByteRangeEncoder {
    block_size: u64,
}

impl ByteRangeEncoder {
    /// Creates an encoder with fixed `block_size` bytes per block.
    pub fn new(block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        ByteRangeEncoder { block_size }
    }

    /// The number of blocks a payload of `total_bytes` encodes into.
    pub fn num_blocks(&self, total_bytes: u64) -> u32 {
        (total_bytes.div_ceil(self.block_size)).max(1) as u32
    }

    /// The response layout for a payload of `total_bytes`.
    pub fn layout(&self, request: RequestId, total_bytes: u64) -> ResponseLayout {
        let n = self.num_blocks(total_bytes);
        let last = match total_bytes % self.block_size {
            0 => self.block_size,
            rem => rem,
        };
        ResponseLayout::from_runs(request, n - 1, self.block_size, 1, last)
    }

    /// Splits `payload` into per-block byte vectors.
    pub fn encode(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        if payload.is_empty() {
            return vec![Vec::new()];
        }
        payload
            .chunks(self.block_size as usize)
            .map(<[u8]>::to_vec)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reassembles a prefix of byte-range blocks into the payload prefix.
    fn reassemble(blocks: &[Vec<u8>]) -> Vec<u8> {
        blocks.iter().flatten().copied().collect()
    }

    #[test]
    fn round_robin_roundtrip() {
        let enc = RoundRobinEncoder::new(4);
        let values: Vec<u64> = (0..10).collect();
        let blocks = enc.encode(&values);
        assert_eq!(blocks.len(), 4);
        // Full decode reconstructs everything.
        let full = enc.decode_prefix(&blocks);
        assert_eq!(full, values.iter().map(|&v| Some(v)).collect::<Vec<_>>());
        // Block 0 holds indices 0, 4, 8.
        assert_eq!(blocks[0].entries, vec![(0, 0), (4, 4), (8, 8)]);
        assert_eq!(enc.blocks(), 4);
    }

    #[test]
    fn round_robin_prefix_density_grows() {
        let enc = RoundRobinEncoder::new(5);
        let values: Vec<u64> = (0..100).collect();
        let blocks = enc.encode(&values);
        let known = |k: usize| {
            enc.decode_prefix(&blocks[..k])
                .iter()
                .filter(|v| v.is_some())
                .count()
        };
        assert_eq!(known(0), 0);
        assert_eq!(known(1), 20);
        assert_eq!(known(3), 60);
        assert_eq!(known(5), 100);
    }

    #[test]
    fn round_robin_layout_sizes() {
        let enc = RoundRobinEncoder::new(4);
        let layout = enc.layout(RequestId(3), 10);
        assert_eq!(layout.num_blocks(), 4);
        // 10 values over 4 blocks: 3,3,2,2 entries → 36,36,24,24 bytes.
        assert_eq!(layout.natural_size(0), Some(36));
        assert_eq!(layout.natural_size(3), Some(24));
        assert_eq!(layout.padded_block_size(), 36);
        // Empty results still produce non-empty blocks.
        let l0 = enc.layout(RequestId(0), 0);
        assert!(l0.natural_size(0).unwrap() > 0);
    }

    #[test]
    fn byte_range_roundtrip() {
        let enc = ByteRangeEncoder::new(4);
        let payload: Vec<u8> = (0..10).collect();
        let blocks = enc.encode(&payload);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[2], vec![8, 9]);
        assert_eq!(reassemble(&blocks), payload);
        assert_eq!(reassemble(&blocks[..1]), vec![0, 1, 2, 3]);
        assert_eq!(enc.num_blocks(10), 3);
        assert_eq!(enc.num_blocks(0), 1);
        let layout = enc.layout(RequestId(1), 10);
        assert_eq!(layout.num_blocks(), 3);
        assert_eq!(layout.natural_size(2), Some(2));
        assert_eq!(layout.total_size(), 10);
        assert_eq!(enc.encode(&[]).len(), 1);
    }

    mod property {
        use super::*;
        use khameleon_core::block::BlockMeta;
        use khameleon_core::types::BlockRef;
        use proptest::prelude::*;

        /// Checks `layout` against per-block natural sizes kept as a vector,
        /// the way layouts were built before they became two runs.
        fn assert_exact(layout: &ResponseLayout, sizes: &[u64]) {
            let n = sizes.len() as u32;
            let padded = sizes.iter().copied().max().unwrap();
            assert_eq!(layout.num_blocks(), n);
            assert_eq!(layout.total_size(), sizes.iter().sum::<u64>());
            assert_eq!(layout.padded_block_size(), padded);
            for i in 0..=n {
                assert_eq!(layout.natural_size(i), sizes.get(i as usize).copied());
                let meta = (i < n).then(|| BlockMeta {
                    block: BlockRef::new(layout.request(), i),
                    total_blocks: n,
                    size: padded,
                });
                assert_eq!(layout.block_meta(i), meta);
            }
        }

        proptest! {
            /// Round-robin encode/decode is lossless for any value sequence and
            /// block count.
            #[test]
            fn round_robin_lossless(values in proptest::collection::vec(0u64..1_000_000, 0..200), blocks in 1u32..16) {
                let enc = RoundRobinEncoder::new(blocks);
                let encoded = enc.encode(&values);
                prop_assert_eq!(encoded.len(), blocks as usize);
                let decoded = enc.decode_prefix(&encoded);
                let expected: Vec<Option<u64>> = values.iter().map(|&v| Some(v)).collect();
                prop_assert_eq!(decoded, expected);
            }

            /// Byte-range encode/decode is lossless.
            #[test]
            fn byte_range_lossless(payload in proptest::collection::vec(any::<u8>(), 0..500), block in 1u64..64) {
                let enc = ByteRangeEncoder::new(block);
                let blocks = enc.encode(&payload);
                prop_assert_eq!(reassemble(&blocks), payload);
            }

            /// Every layout the repository builds is exactly the per-block
            /// sizes it was built from as a vector.  `uniform`; `split_evenly`
            /// with no remainder, a remainder, one block and fewer bytes than
            /// blocks; the strided split with fewer values than blocks, a
            /// divisible count and any count; the byte ranges with no
            /// remainder, a remainder, less than one block and nothing.
            #[test]
            fn layouts_are_exact(
                blocks in 1u32..16,
                block in 1u64..64,
                quotient in 0usize..50,
                extra in 0usize..1_000,
            ) {
                let r = RequestId(5);
                let b = blocks as usize;
                let (q, extra) = (quotient as u64, extra as u64);
                assert_exact(&ResponseLayout::uniform(r, blocks, q), &vec![q; b]);
                let (whole, rem) = (q * b as u64, extra % b as u64);
                for (total, n) in [(whole, blocks), (whole + rem, blocks), (q + extra, 1), (rem, blocks)] {
                    let mut sizes = vec![total / n as u64; n as usize];
                    *sizes.last_mut().unwrap() += total % n as u64;
                    assert_exact(&ResponseLayout::split_evenly(r, total, n), &sizes);
                }
                let rr = RoundRobinEncoder::new(blocks);
                for len in [rem as usize, quotient * b, quotient * b + rem as usize] {
                    let sizes: Vec<u64> = (0..b)
                        .map(|blk| ((len / b + usize::from(blk < len % b)).max(1) * 12) as u64)
                        .collect();
                    assert_exact(&rr.layout(r, len), &sizes);
                }
                let br = ByteRangeEncoder::new(block);
                let rem = extra % block;
                for total in [q * block, q * block + rem, rem, 0] {
                    let mut sizes = vec![block; br.num_blocks(total) as usize];
                    if total % block > 0 {
                        *sizes.last_mut().unwrap() = total % block;
                    }
                    assert_exact(&br.layout(r, total), &sizes);
                }
            }
        }
    }
}
