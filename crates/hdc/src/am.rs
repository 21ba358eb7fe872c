//! Associative memory (AM): prototype storage, nearest-prototype
//! classification, and online updates.
//!
//! During training, every encoded query hypervector of a class is added
//! into that class's component counters; the binary *prototype* is the
//! componentwise majority over all of them. During classification the AM
//! returns the label whose prototype has minimum Hamming distance to the
//! query. Because the counters are kept, the AM "can be continuously
//! updated for on-line learning" exactly as the paper notes.

use crate::bundle::{Bundler, TieBreak};
use crate::hv::BinaryHv;
use crate::rng::derive_seed;

/// Outcome of a nearest-prototype search.
///
/// # Examples
///
/// ```
/// use hdc::{AssociativeMemory, BinaryHv};
///
/// let mut am = AssociativeMemory::new(2, 313, 0);
/// let a = BinaryHv::random(313, 1);
/// let b = BinaryHv::random(313, 2);
/// am.train(0, &a);
/// am.train(1, &b);
/// let result = am.classify(&a.with_bit_flips(400, 9));
/// assert_eq!(result.class(), 0);
/// assert!(result.distance() < result.distances()[1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    class: usize,
    distances: Vec<u32>,
}

impl Classification {
    /// The winning class (minimum Hamming distance; ties go to the lowest
    /// index, matching the kernel's strict-less search).
    #[must_use]
    pub fn class(&self) -> usize {
        self.class
    }

    /// Hamming distance of the winning prototype.
    #[must_use]
    pub fn distance(&self) -> u32 {
        self.distances[self.class]
    }

    /// Hamming distance to every class prototype, indexed by class.
    #[must_use]
    pub fn distances(&self) -> &[u32] {
        &self.distances
    }

    /// Distance gap between the runner-up and the winner — a confidence
    /// proxy (0 means an exact tie).
    ///
    /// Returns `None` when only one class exists.
    #[must_use]
    pub fn margin(&self) -> Option<u32> {
        let best = self.distances[self.class];
        self.distances
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.class)
            .map(|(_, &d)| d)
            .min()
            .map(|second| second - best)
    }
}

/// The associative memory: one counter bundle and one finalized binary
/// prototype per class.
#[derive(Debug, Clone)]
pub struct AssociativeMemory {
    bundlers: Vec<Bundler>,
    prototypes: Vec<BinaryHv>,
    stale: Vec<bool>,
    tie_seed: u64,
}

impl AssociativeMemory {
    /// Creates an AM for `n_classes` classes of `n_words`-word
    /// hypervectors. Training ties are broken pseudo-randomly per class,
    /// derived from `tie_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes == 0` or `n_words == 0`.
    #[must_use]
    pub fn new(n_classes: usize, n_words: usize, tie_seed: u64) -> Self {
        assert!(n_classes > 0, "associative memory needs at least one class");
        Self {
            bundlers: (0..n_classes).map(|_| Bundler::new(n_words)).collect(),
            prototypes: (0..n_classes).map(|_| BinaryHv::zeros(n_words)).collect(),
            stale: vec![false; n_classes],
            tie_seed,
        }
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.prototypes.len()
    }

    /// Hypervector width in words.
    #[must_use]
    pub fn n_words(&self) -> usize {
        self.bundlers[0].n_words()
    }

    /// Number of training examples accumulated for `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[must_use]
    pub fn examples(&self, class: usize) -> u32 {
        self.bundlers[class].len()
    }

    /// Adds an encoded query hypervector to `class`'s accumulator and
    /// marks its prototype for re-thresholding.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or widths differ.
    pub fn train(&mut self, class: usize, query: &BinaryHv) {
        self.bundlers[class].add(query);
        self.stale[class] = true;
    }

    /// Re-thresholds all stale prototypes. Called automatically by
    /// [`classify`](Self::classify) via [`prototype`](Self::prototype);
    /// exposed so training cost can be paid eagerly.
    pub fn finalize(&mut self) {
        for class in 0..self.prototypes.len() {
            if self.stale[class] && !self.bundlers[class].is_empty() {
                let tie = derive_seed(self.tie_seed, class as u64);
                self.bundlers[class]
                    .majority_into(TieBreak::Seeded(tie), &mut self.prototypes[class]);
                self.stale[class] = false;
            }
        }
    }

    /// The binary prototype of `class` (re-thresholding first if stale).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[must_use]
    pub fn prototype(&mut self, class: usize) -> &BinaryHv {
        self.finalize();
        &self.prototypes[class]
    }

    /// All prototypes in class order (re-thresholding first if stale).
    #[must_use]
    pub fn prototypes(&mut self) -> &[BinaryHv] {
        self.finalize();
        &self.prototypes
    }

    /// Overwrites `class`'s prototype directly, discarding its counters —
    /// used when loading a model trained elsewhere (e.g. into/out of the
    /// simulated platform).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or widths differ.
    pub fn set_prototype(&mut self, class: usize, prototype: BinaryHv) {
        assert_eq!(
            prototype.n_words(),
            self.n_words(),
            "prototype width mismatch: expected {} words, got {}",
            self.n_words(),
            prototype.n_words()
        );
        self.bundlers[class].clear();
        self.stale[class] = false;
        self.prototypes[class] = prototype;
    }

    /// Nearest-prototype classification.
    ///
    /// Requires `&mut self` because stale prototypes are re-thresholded
    /// lazily; call [`finalize`](Self::finalize) after training and use
    /// [`classify_finalized`](Self::classify_finalized) for a shared-ref
    /// hot path.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn classify(&mut self, query: &BinaryHv) -> Classification {
        self.finalize();
        self.classify_finalized(query)
    }

    /// Nearest-prototype classification without re-thresholding.
    ///
    /// # Panics
    ///
    /// Panics if widths differ, or (in debug builds) if any prototype is
    /// stale.
    #[must_use]
    pub fn classify_finalized(&self, query: &BinaryHv) -> Classification {
        debug_assert!(
            self.stale.iter().all(|&s| !s),
            "classify_finalized called with stale prototypes"
        );
        let distances: Vec<u32> = self.prototypes.iter().map(|p| p.hamming(query)).collect();
        let class = distances
            .iter()
            .enumerate()
            .min_by_key(|&(_, &d)| d)
            .map(|(i, _)| i)
            .expect("associative memory has at least one class");
        Classification { class, distances }
    }

    /// Online update: adds `query` to `class` and re-thresholds only
    /// that prototype **incrementally** — the prototype is updated in
    /// place, touching only words whose majority actually crossed the
    /// threshold, and the seeded tie vector is materialized only when a
    /// component genuinely ties (never for an odd example count). The
    /// result is bit-identical to a full re-threshold
    /// ([`Bundler::majority`] with the class's seeded tie), which a
    /// property test pins.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or widths differ.
    pub fn update_online(&mut self, class: usize, query: &BinaryHv) {
        self.train(class, query);
        let tie = derive_seed(self.tie_seed, class as u64);
        self.bundlers[class].majority_into(TieBreak::Seeded(tie), &mut self.prototypes[class]);
        self.stale[class] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_am() -> (AssociativeMemory, Vec<BinaryHv>) {
        let centers: Vec<BinaryHv> = (0..5).map(|s| BinaryHv::random(313, 100 + s)).collect();
        let mut am = AssociativeMemory::new(5, 313, 0);
        for (class, center) in centers.iter().enumerate() {
            for trial in 0..9 {
                let noisy = center.with_bit_flips(800, trial);
                am.train(class, &noisy);
            }
        }
        (am, centers)
    }

    #[test]
    fn prototypes_converge_to_class_centers() {
        let (mut am, centers) = trained_am();
        for (class, center) in centers.iter().enumerate() {
            let d = am.prototype(class).normalized_hamming(center);
            assert!(d < 0.05, "class {class}: prototype drifted {d}");
        }
    }

    #[test]
    fn classification_recovers_noisy_queries() {
        let (mut am, centers) = trained_am();
        am.finalize();
        for (class, center) in centers.iter().enumerate() {
            let query = center.with_bit_flips(2000, 42);
            let result = am.classify(&query);
            assert_eq!(result.class(), class);
            assert!(result.margin().unwrap() > 0);
        }
    }

    #[test]
    fn distances_are_reported_for_all_classes() {
        let (mut am, centers) = trained_am();
        let result = am.classify(&centers[2]);
        assert_eq!(result.distances().len(), 5);
        assert_eq!(result.class(), 2);
        assert_eq!(result.distance(), result.distances()[2]);
    }

    #[test]
    fn tie_on_distance_goes_to_lowest_class() {
        let mut am = AssociativeMemory::new(3, 4, 0);
        let p = BinaryHv::random(4, 1);
        am.set_prototype(0, p.clone());
        am.set_prototype(1, p.clone());
        am.set_prototype(2, p.clone());
        assert_eq!(am.classify(&p).class(), 0);
    }

    #[test]
    fn set_prototype_discards_counters() {
        let mut am = AssociativeMemory::new(2, 8, 0);
        am.train(0, &BinaryHv::random(8, 1));
        let fresh = BinaryHv::random(8, 2);
        am.set_prototype(0, fresh.clone());
        assert_eq!(am.examples(0), 0);
        assert_eq!(am.prototype(0), &fresh);
    }

    #[test]
    fn online_update_moves_prototype_toward_new_data() {
        let a = BinaryHv::random(313, 1);
        let b = BinaryHv::random(313, 2);
        let mut am = AssociativeMemory::new(2, 313, 0);
        am.train(0, &a);
        am.train(1, &b);
        am.finalize();

        // Stream queries near a drifted version of class 0.
        let drifted = a.with_bit_flips(1500, 7);
        let before = am.prototype(0).hamming(&drifted);
        for s in 0..8 {
            am.update_online(0, &drifted.with_bit_flips(200, s));
        }
        let after = am.prototype(0).hamming(&drifted);
        assert!(
            after < before,
            "online update should track drift: {before} -> {after}"
        );
    }

    /// The incremental online update is pinned to the full re-threshold:
    /// after every single update — through even counts (seeded ties),
    /// odd counts, and interleavings with batch training — the prototype
    /// equals a from-scratch majority over the class counters.
    #[test]
    fn online_update_is_bit_identical_to_full_rethreshold() {
        let mut am = AssociativeMemory::new(3, 9, 0xA11E);
        let mut step = 0u64;
        for round in 0..12 {
            let class = round % 3;
            // Mix plain training (stale prototypes) into the stream so
            // updates start from unfinalized state too.
            if round % 4 == 3 {
                am.train(class, &BinaryHv::random(9, 10_000 + step));
                step += 1;
            }
            let query = BinaryHv::random(9, 20_000 + step);
            step += 1;
            am.update_online(class, &query);
            let tie = derive_seed(0xA11E, class as u64);
            let expected = am.bundlers[class].majority(TieBreak::Seeded(tie));
            assert_eq!(
                am.prototypes[class], expected,
                "round {round}: incremental update diverged from full majority"
            );
            assert!(!am.stale[class], "round {round}: class left stale");
        }
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (mut am1, _) = trained_am();
        let (mut am2, _) = trained_am();
        for class in 0..5 {
            assert_eq!(am1.prototype(class), am2.prototype(class));
        }
    }

    #[test]
    fn graceful_degradation_under_prototype_faults() {
        // The paper's robustness claim: classification survives faulty
        // components. Flip 10% of prototype bits and expect queries to
        // still resolve.
        let (mut am, centers) = trained_am();
        am.finalize();
        let dim = 313 * 32;
        for class in 0..5 {
            let faulty = am.prototype(class).with_bit_flips(dim / 10, 3);
            am.set_prototype(class, faulty);
        }
        let mut correct = 0;
        for (class, center) in centers.iter().enumerate() {
            let query = center.with_bit_flips(1000, 5);
            if am.classify(&query).class() == class {
                correct += 1;
            }
        }
        assert_eq!(correct, 5, "10% faults should not break classification");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn set_prototype_width_mismatch_panics() {
        let mut am = AssociativeMemory::new(2, 8, 0);
        am.set_prototype(0, BinaryHv::zeros(9));
    }
}
