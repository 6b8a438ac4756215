//! Weighted empirical CDFs.

use serde::{Deserialize, Serialize};

/// A weighted empirical cumulative distribution function.
///
/// Built from `(value, weight)` pairs — e.g. `(importance, bytes)` for
/// Figure 7's "cumulative distribution of the importance values of the
/// stored bytes".
///
/// # Examples
///
/// ```
/// use analysis::WeightedCdf;
///
/// let cdf = WeightedCdf::from_pairs(vec![(1.0, 57.0), (0.5, 30.0), (0.25, 13.0)])
///     .expect("positive total weight");
/// assert!((cdf.fraction_at_most(0.5) - 0.43).abs() < 1e-12);
/// assert_eq!(cdf.fraction_at_most(1.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightedCdf {
    /// `(value, cumulative fraction)` steps, ascending in value.
    steps: Vec<(f64, f64)>,
}

impl WeightedCdf {
    /// Builds a CDF from unsorted `(value, weight)` pairs.
    ///
    /// Returns `None` if the total weight is zero, or any value/weight is
    /// NaN, or any weight is negative.
    pub fn from_pairs(mut pairs: Vec<(f64, f64)>) -> Option<WeightedCdf> {
        if pairs
            .iter()
            .any(|(v, w)| v.is_nan() || w.is_nan() || *w < 0.0)
        {
            return None;
        }
        pairs.retain(|(_, w)| *w > 0.0);
        let total: f64 = pairs.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return None;
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut steps: Vec<(f64, f64)> = Vec::new();
        let mut acc = 0.0;
        for (value, weight) in pairs {
            acc += weight;
            match steps.last_mut() {
                Some((v, frac)) if *v == value => *frac = acc / total,
                _ => steps.push((value, acc / total)),
            }
        }
        Some(WeightedCdf { steps })
    }

    /// The cumulative fraction of weight at values `<= value`.
    pub fn fraction_at_most(&self, value: f64) -> f64 {
        match self.steps.binary_search_by(|(v, _)| v.total_cmp(&value)) {
            Ok(i) => self.steps[i].1,
            Err(0) => 0.0,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// The smallest value whose cumulative fraction reaches `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile order out of range");
        for &(value, frac) in &self.steps {
            if frac + 1e-12 >= q {
                return value;
            }
        }
        self.steps.last().expect("non-empty").0
    }

    /// The `(value, cumulative fraction)` steps, ascending.
    pub fn steps(&self) -> &[(f64, f64)] {
        &self.steps
    }

    /// The smallest observed value.
    pub fn min_value(&self) -> f64 {
        self.steps.first().expect("non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_steps_and_merges_duplicates() {
        let cdf = WeightedCdf::from_pairs(vec![(0.5, 1.0), (0.2, 1.0), (0.5, 2.0)]).unwrap();
        assert_eq!(cdf.steps().len(), 2);
        assert_eq!(cdf.steps()[0].0, 0.2);
        assert!((cdf.fraction_at_most(0.2) - 0.25).abs() < 1e-12);
        assert_eq!(cdf.fraction_at_most(0.5), 1.0);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(WeightedCdf::from_pairs(vec![]).is_none());
        assert!(WeightedCdf::from_pairs(vec![(1.0, 0.0)]).is_none());
        assert!(WeightedCdf::from_pairs(vec![(1.0, -1.0)]).is_none());
        assert!(WeightedCdf::from_pairs(vec![(f64::NAN, 1.0)]).is_none());
    }

    #[test]
    fn fraction_below_min_is_zero() {
        let cdf = WeightedCdf::from_pairs(vec![(0.5, 1.0)]).unwrap();
        assert_eq!(cdf.fraction_at_most(0.4), 0.0);
        assert_eq!(cdf.fraction_at_most(0.6), 1.0);
        assert_eq!(cdf.min_value(), 0.5);
    }

    #[test]
    fn quantiles() {
        let cdf = WeightedCdf::from_pairs(vec![(0.25, 13.0), (0.5, 30.0), (1.0, 57.0)]).unwrap();
        assert_eq!(cdf.quantile(0.0), 0.25);
        assert_eq!(cdf.quantile(0.13), 0.25);
        assert_eq!(cdf.quantile(0.43), 0.5);
        assert_eq!(cdf.quantile(0.44), 1.0);
        assert_eq!(cdf.quantile(1.0), 1.0);
        // Figure 7's headline: 57% of bytes at importance one.
        assert!((1.0 - cdf.fraction_at_most(0.5) - 0.57).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_out_of_range_panics() {
        let cdf = WeightedCdf::from_pairs(vec![(1.0, 1.0)]).unwrap();
        let _ = cdf.quantile(1.5);
    }
}
