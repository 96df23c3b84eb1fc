//! The [`Correction`] abstraction: anything that can refine a model
//! prediction into a local-search hint with one lookup.

/// Where the local search should look after correction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchHint {
    /// Position the local search starts from.
    pub start: usize,
    /// Guaranteed window length containing the result, when the correction
    /// layer can provide one (`<Δ, C>` range mode). `None` means the hint is
    /// a bare position — the raw prediction when no layer serves — and an
    /// unbounded search such as exponential search must be used (§3.8).
    pub window: Option<usize>,
}

impl SearchHint {
    /// A hint with a guaranteed window.
    #[inline]
    pub fn bounded(start: usize, window: usize) -> Self {
        Self {
            start,
            window: Some(window),
        }
    }

    /// A bare position hint without a window.
    #[inline]
    pub fn unbounded(start: usize) -> Self {
        Self {
            start,
            window: None,
        }
    }
}

/// A correction layer: maps a model prediction to a search hint with a single
/// array lookup.
pub trait Correction: Send + Sync {
    /// Correct a (clamped) model prediction.
    fn correct(&self, prediction: usize) -> SearchHint;

    /// Memory footprint of the layer in bytes.
    fn size_bytes(&self) -> usize;
}

/// The identity correction: the model's prediction, unbounded. It serves
/// lookups when an index has no layer or has it switched off.
pub(crate) struct Uncorrected;

impl Correction for Uncorrected {
    #[inline]
    fn correct(&self, prediction: usize) -> SearchHint {
        SearchHint::unbounded(prediction)
    }
    fn size_bytes(&self) -> usize {
        0
    }
}

impl<T: Correction + ?Sized> Correction for &T {
    fn correct(&self, prediction: usize) -> SearchHint {
        (**self).correct(prediction)
    }
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_constructors() {
        let b = SearchHint::bounded(10, 4);
        assert_eq!(b.start, 10);
        assert_eq!(b.window, Some(4));
        let u = SearchHint::unbounded(7);
        assert_eq!(u.start, 7);
        assert_eq!(u.window, None);
    }

    struct Fixed;
    impl Correction for Fixed {
        fn correct(&self, prediction: usize) -> SearchHint {
            SearchHint::bounded(prediction + 1, 2)
        }
        fn size_bytes(&self) -> usize {
            4
        }
    }

    #[test]
    fn trait_forwarding_through_ref() {
        let f = Fixed;
        let r: &dyn Correction = &f;
        assert_eq!(r.correct(3).start, 4);
        assert_eq!(r.size_bytes(), 4);
        assert_eq!((&r).correct(0), SearchHint::bounded(1, 2));
        assert_eq!(Correction::size_bytes(&&f), 4);
    }
}
