//! Synthetic image corpus for the image-exploration application (§2, §6.1).
//!
//! The paper's gallery holds 10,000 thumbnails whose full-resolution images
//! are 1.3–2 MB each, progressively encoded (progressive JPEG) so that a
//! prefix of blocks renders a lower-resolution image whose structural
//! similarity (SSIM) to the full image follows the concave curve of Figure 3.
//! We do not ship the images themselves; [`ImageCorpus`] generates per-image
//! sizes and block layouts with the same distribution, and pairs them with
//! the SSIM-shaped utility curve.  Every reported metric depends only on
//! sizes, block counts, and the utility curve, all of which are preserved.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use khameleon_core::block::{ResponseCatalog, ResponseLayout};
use khameleon_core::types::{Bytes, RequestId};
use khameleon_core::utility::{PiecewiseUtility, UtilityModel};

/// Configuration of the synthetic image corpus.
#[derive(Debug, Clone)]
pub struct ImageCorpusConfig {
    /// Number of images (= number of possible requests).
    pub num_images: usize,
    /// Minimum full-resolution image size in bytes.
    pub min_bytes: Bytes,
    /// Maximum full-resolution image size in bytes.
    pub max_bytes: Bytes,
    /// Number of progressive blocks per image.
    pub blocks_per_image: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImageCorpusConfig {
    fn default() -> Self {
        ImageCorpusConfig {
            num_images: 10_000,
            min_bytes: 1_300_000,
            max_bytes: 2_000_000,
            blocks_per_image: 20,
            seed: 0xC0FFEE,
        }
    }
}

/// The synthetic image corpus: per-image sizes, progressive layouts, and the
/// SSIM utility curve.
#[derive(Debug, Clone)]
pub struct ImageCorpus {
    cfg: ImageCorpusConfig,
    catalog: Arc<ResponseCatalog>,
}

impl ImageCorpus {
    /// Generates a corpus from `cfg`.
    pub fn new(cfg: ImageCorpusConfig) -> Self {
        assert!(cfg.num_images > 0, "corpus must contain images");
        assert!(cfg.max_bytes >= cfg.min_bytes, "size range inverted");
        assert!(cfg.blocks_per_image > 0, "images need at least one block");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let layouts = (0..cfg.num_images)
            .map(|i| {
                let size = rng.gen_range(cfg.min_bytes..=cfg.max_bytes);
                ResponseLayout::split_evenly(RequestId::from(i), size, cfg.blocks_per_image)
            })
            .collect();
        ImageCorpus {
            catalog: Arc::new(ResponseCatalog::new(layouts)),
            cfg,
        }
    }

    /// The paper's configuration: 10,000 images of 1.3–2 MB.
    pub fn paper_scale(seed: u64) -> Self {
        Self::new(ImageCorpusConfig {
            seed,
            ..Default::default()
        })
    }

    /// A reduced corpus for tests and examples (`num_images` images with the
    /// same per-image statistics).
    pub fn small(num_images: usize, seed: u64) -> Self {
        Self::new(ImageCorpusConfig {
            num_images,
            seed,
            ..Default::default()
        })
    }

    /// The corpus configuration.
    pub fn config(&self) -> &ImageCorpusConfig {
        &self.cfg
    }

    /// Number of images.
    pub fn num_images(&self) -> usize {
        self.cfg.num_images
    }

    /// The response catalog (block layouts) for the corpus.
    pub fn catalog(&self) -> Arc<ResponseCatalog> {
        self.catalog.clone()
    }

    /// The SSIM-derived utility model for the corpus (Figure 3, red curve).
    pub fn utility(&self) -> UtilityModel {
        UtilityModel::homogeneous(&PiecewiseUtility::image_ssim(), self.cfg.blocks_per_image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full-resolution size of image `i`.
    fn image_bytes(c: &ImageCorpus, i: usize) -> Bytes {
        c.catalog().layout(RequestId::from(i)).total_size()
    }

    #[test]
    fn corpus_sizes_in_range() {
        let c = ImageCorpus::small(200, 1);
        assert_eq!(c.num_images(), 200);
        for i in 0..200 {
            let s = image_bytes(&c, i);
            assert!((1_300_000..=2_000_000).contains(&s), "image {i} size {s}");
        }
        let mean = (0..200).map(|i| image_bytes(&c, i)).sum::<u64>() as f64 / 200.0;
        assert!(mean > 1_400_000.0 && mean < 1_900_000.0);
    }

    #[test]
    fn catalog_matches_sizes() {
        let c = ImageCorpus::small(10, 2);
        let catalog = c.catalog();
        assert_eq!(catalog.num_requests(), 10);
        for i in 0..10usize {
            let layout = catalog.layout(RequestId::from(i));
            assert_eq!(layout.num_blocks(), c.config().blocks_per_image);
        }
    }

    #[test]
    fn utility_is_concave_ssim_like() {
        let c = ImageCorpus::small(4, 3);
        let u = c.utility();
        let quarter = u.step(0, c.config().blocks_per_image / 4);
        assert!(
            quarter > 0.6,
            "first 25% of blocks should carry most utility"
        );
        assert!((u.step(0, c.config().blocks_per_image) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ImageCorpus::small(50, 9);
        let b = ImageCorpus::small(50, 9);
        let c = ImageCorpus::small(50, 10);
        assert_eq!(image_bytes(&a, 25), image_bytes(&b, 25));
        assert_ne!(image_bytes(&a, 25), image_bytes(&c, 25));
    }

    #[test]
    #[should_panic(expected = "size range inverted")]
    fn inverted_size_range_rejected() {
        ImageCorpus::new(ImageCorpusConfig {
            min_bytes: 10,
            max_bytes: 5,
            ..Default::default()
        });
    }
}
