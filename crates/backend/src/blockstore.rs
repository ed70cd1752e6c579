//! Pre-computed progressive block store (the "file system" backend, §3.2).
//!
//! The image-exploration experiments pre-load every image's progressively
//! encoded blocks so the backend behaves like a scalable key-value store.
//! [`BlockStore`] holds (or lazily synthesizes) the per-block payloads for an
//! entire [`ResponseCatalog`] and implements
//! [`khameleon_core::server::Backend`] so it can be plugged directly into a
//! [`khameleon_core::session::SessionManager`] (or, for one client, a
//! [`khameleon_core::server::ServerBuilder`]).

use std::collections::HashMap;
use std::sync::Arc;

use khameleon_core::block::{Block, ResponseCatalog};
use khameleon_core::server::Backend;
use khameleon_core::types::{BlockRef, RequestId};

/// A block store backed by a response catalog, with optional real payloads.
pub struct BlockStore {
    catalog: Arc<ResponseCatalog>,
    /// Explicit payloads keyed by block; blocks without an entry are served
    /// as metadata-only (the simulator only needs sizes).
    payloads: HashMap<BlockRef, Vec<u8>>,
    /// Optional concurrency limit to emulate less scalable stores.
    concurrency_limit: Option<usize>,
    fetches: u64,
}

impl BlockStore {
    /// Creates a metadata-only store over `catalog`.
    pub fn new(catalog: Arc<ResponseCatalog>) -> Self {
        BlockStore {
            catalog,
            payloads: HashMap::new(),
            concurrency_limit: None,
            fetches: 0,
        }
    }

    /// Creates a store whose payloads are synthesized deterministic bytes of
    /// the catalog's natural block sizes — useful for the live example and
    /// for end-to-end tests that want to verify payload plumbing.
    pub fn with_synthetic_payloads(catalog: Arc<ResponseCatalog>) -> Self {
        let mut payloads = HashMap::new();
        for layout in catalog.iter() {
            for meta in layout.iter_blocks() {
                let natural = layout
                    .natural_size(meta.block.index)
                    .unwrap_or(meta.size)
                    .min(1 << 20);
                let fill = (meta.block.request.0 as u8) ^ (meta.block.index as u8);
                payloads.insert(meta.block, vec![fill; natural as usize]);
            }
        }
        BlockStore {
            catalog,
            payloads,
            concurrency_limit: None,
            fetches: 0,
        }
    }

    /// Emulates a store with a bounded concurrency (§5.4).
    pub fn with_concurrency_limit(mut self, limit: usize) -> Self {
        self.concurrency_limit = Some(limit);
        self
    }

    /// Number of fetches served.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// The catalog this store serves.
    pub fn catalog(&self) -> &Arc<ResponseCatalog> {
        &self.catalog
    }

    /// Total bytes a full response for `request` occupies.
    pub fn response_bytes(&self, request: RequestId) -> u64 {
        self.catalog.layout(request).total_size()
    }
}

impl Backend for BlockStore {
    fn fetch(&mut self, block: BlockRef) -> Option<Block> {
        let layout = self.catalog.get(block.request)?;
        let meta = layout.block_meta(block.index)?;
        self.fetches += 1;
        Some(Block {
            payload: self.payloads.get(&block).cloned(),
            meta,
        })
    }

    fn concurrency_limit(&self) -> Option<usize> {
        self.concurrency_limit
    }

    fn name(&self) -> &'static str {
        "block-store"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_only_store_serves_catalog() {
        let catalog = Arc::new(ResponseCatalog::uniform(4, 3, 1_000));
        let mut s = BlockStore::new(catalog);
        let b = s.fetch(BlockRef::new(RequestId(2), 1)).unwrap();
        assert_eq!(b.meta.size, 1_000);
        assert!(b.payload.is_none());
        assert!(s.fetch(BlockRef::new(RequestId(2), 3)).is_none());
        assert!(s.fetch(BlockRef::new(RequestId(9), 0)).is_none());
        assert_eq!(s.fetches(), 1);
        assert_eq!(s.response_bytes(RequestId(0)), 3_000);
        assert_eq!(s.name(), "block-store");
        assert_eq!(s.concurrency_limit(), None);
    }

    #[test]
    fn synthetic_payloads_match_natural_sizes() {
        let catalog = Arc::new(ResponseCatalog::uniform(3, 2, 64));
        let mut s = BlockStore::with_synthetic_payloads(catalog);
        let b = s.fetch(BlockRef::new(RequestId(1), 0)).unwrap();
        let payload = b.payload.unwrap();
        assert_eq!(payload.len(), 64);
        // Deterministic fill byte.
        assert!(payload.iter().all(|&x| x == 1));
    }

    #[test]
    fn explicit_payload_and_limit() {
        let catalog = Arc::new(ResponseCatalog::uniform(2, 1, 10));
        let mut s = BlockStore::with_synthetic_payloads(catalog).with_concurrency_limit(5);
        assert_eq!(s.concurrency_limit(), Some(5));
        let b = s.fetch(BlockRef::new(RequestId(1), 0)).unwrap();
        assert_eq!(b.payload.unwrap(), vec![1; 10]);
        let mut bare = BlockStore::new(s.catalog().clone()).with_concurrency_limit(5);
        assert!(bare
            .fetch(BlockRef::new(RequestId(1), 0))
            .unwrap()
            .payload
            .is_none());
    }
}
