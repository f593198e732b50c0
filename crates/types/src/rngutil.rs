//! Deterministic seed derivation.
//!
//! Every source of randomness in the workspace flows from one `u64` run
//! seed. Components derive private sub-seeds with [`mix_seed`] so that, for
//! example, the loss model and the storage jitter draw independent streams
//! that are both reproducible for a given run seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The SplitMix64 mixing function.
///
/// A small, fast, well-dispersed 64-bit mixer (Steele et al., "Fast
/// Splittable Pseudorandom Number Generators"). Used for deriving sub-seeds
/// and for hashing `(seed, id)` pairs into deterministic per-sample values.
///
/// # Examples
///
/// ```
/// use icache_types::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// assert_eq!(splitmix64(42), splitmix64(42));
/// ```
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a sub-seed from a parent seed and a stream tag.
///
/// Different `tag` values produce statistically independent streams from the
/// same parent. Tags are short static strings such as `"loss-model"`.
///
/// # Examples
///
/// ```
/// use icache_types::mix_seed;
/// let a = mix_seed(7, "storage");
/// let b = mix_seed(7, "loss");
/// assert_ne!(a, b);
/// assert_eq!(a, mix_seed(7, "storage"));
/// ```
pub fn mix_seed(parent: u64, tag: &str) -> u64 {
    let mut h = splitmix64(parent);
    for &b in tag.as_bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// A deterministic factory of independent RNG streams.
///
/// # Examples
///
/// ```
/// use icache_types::SeedSequence;
/// use rand::Rng;
///
/// let seq = SeedSequence::new(99);
/// let mut a = seq.rng("alpha");
/// let mut b = seq.rng("beta");
/// let (x, y): (u64, u64) = (a.gen(), b.gen());
/// assert_ne!(x, y);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedSequence { root: seed }
    }

    /// The root seed this sequence was created with.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derive the raw sub-seed for `tag`.
    pub fn seed(&self, tag: &str) -> u64 {
        mix_seed(self.root, tag)
    }

    /// Derive the raw sub-seed for `tag` and a numeric discriminator
    /// (e.g. a job index).
    pub fn seed_indexed(&self, tag: &str, index: u64) -> u64 {
        splitmix64(mix_seed(self.root, tag) ^ splitmix64(index))
    }

    /// Build a [`StdRng`] for `tag`.
    pub fn rng(&self, tag: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed(tag))
    }

    /// A child sequence, useful for handing a component its own namespace.
    pub fn child(&self, tag: &str) -> SeedSequence {
        SeedSequence {
            root: self.seed(tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn splitmix_disperses_consecutive_inputs() {
        let outputs: HashSet<u64> = (0..10_000).map(splitmix64).collect();
        assert_eq!(outputs.len(), 10_000);
    }

    #[test]
    fn mix_seed_depends_on_tag_and_parent() {
        assert_ne!(mix_seed(1, "a"), mix_seed(1, "b"));
        assert_ne!(mix_seed(1, "a"), mix_seed(2, "a"));
        assert_eq!(mix_seed(1, "a"), mix_seed(1, "a"));
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let seq = SeedSequence::new(5);
        let x: u64 = seq.rng("t").gen();
        let y: u64 = seq.rng("t").gen();
        assert_eq!(x, y);
    }

    #[test]
    fn indexed_seeds_differ_per_index() {
        let seq = SeedSequence::new(5);
        let seeds: HashSet<u64> = (0..100).map(|i| seq.seed_indexed("job", i)).collect();
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn child_namespaces_are_independent() {
        let seq = SeedSequence::new(5);
        let a = seq.child("x").seed("same-tag");
        let b = seq.child("y").seed("same-tag");
        assert_ne!(a, b);
    }
}
