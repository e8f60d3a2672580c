//! Model-quality metrics used throughout the paper's evaluation:
//! RMSE, the paper's normalised RMSE% (`e * 100 / v` where `v` is the mean
//! actual value), R², MAE, and Pearson correlation.

/// Root-mean-square error between predictions and actuals.
///
/// Returns `0.0` for empty input.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "rmse: length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    let mse: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a) * (p - a))
        .sum::<f64>()
        / predicted.len() as f64;
    mse.sqrt()
}

/// The paper's error percentage: `RMSE * 100 / mean(actual)` (§7, Fig. 11b).
///
/// Returns `0.0` when the mean of the actuals is zero.
pub fn rmse_pct(predicted: &[f64], actual: &[f64]) -> f64 {
    if actual.is_empty() {
        return 0.0;
    }
    let mean = actual.iter().sum::<f64>() / actual.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    rmse(predicted, actual) * 100.0 / mean
}

/// Coefficient of determination R² = 1 - SS_res / SS_tot.
///
/// Matches the R² values the paper annotates on its scatter plots
/// (Figs. 11c/d, 12c/d, 13c–g). Returns `1.0` for a perfect fit on constant
/// data and can be negative for models worse than predicting the mean.
pub fn r2_score(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "r2: length mismatch");
    if actual.is_empty() {
        return 1.0;
    }
    let mean = actual.iter().sum::<f64>() / actual.len() as f64;
    let ss_tot: f64 = actual.iter().map(|a| (a - mean) * (a - mean)).sum();
    let ss_res: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (a - p) * (a - p))
        .sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        };
    }
    1.0 - ss_res / ss_tot
}

/// Pearson correlation coefficient between two samples.
///
/// Returns `0.0` when either sample has zero variance.
pub fn pearson_r(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch");
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rmse_of_perfect_prediction_is_zero() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn rmse_known_value() {
        // errors 1 and -1 -> mse 1 -> rmse 1
        assert!((rmse(&[2.0, 1.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_empty_is_zero() {
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn rmse_pct_normalises_by_mean_actual() {
        // rmse = 1, mean actual = 10 -> 10%
        let p = vec![11.0, 9.0];
        let a = vec![10.0, 10.0];
        assert!((rmse_pct(&p, &a) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_pct_zero_mean_is_zero() {
        assert_eq!(rmse_pct(&[1.0, -1.0], &[1.0, -1.0]), 0.0);
    }

    #[test]
    fn r2_perfect_fit_is_one() {
        assert_eq!(r2_score(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn r2_mean_prediction_is_zero() {
        let actual = [1.0, 2.0, 3.0];
        let mean_pred = [2.0, 2.0, 2.0];
        assert!(r2_score(&mean_pred, &actual).abs() < 1e-12);
    }

    #[test]
    fn r2_can_be_negative_for_bad_models() {
        assert!(r2_score(&[10.0, 10.0, 10.0], &[1.0, 2.0, 3.0]) < 0.0);
    }

    #[test]
    fn pearson_perfect_linear_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_r(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_anticorrelation_is_minus_one() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson_r(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_input_is_zero() {
        assert_eq!(pearson_r(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }

    proptest! {
        #[test]
        fn prop_rmse_nonnegative(
            p in proptest::collection::vec(-100.0f64..100.0, 1..50),
            shift in -10.0f64..10.0,
        ) {
            let a: Vec<f64> = p.iter().map(|v| v + shift).collect();
            prop_assert!(rmse(&p, &a) >= 0.0);
            prop_assert!((rmse(&p, &a) - shift.abs()).abs() < 1e-9);
        }

        #[test]
        fn prop_r2_at_most_one(
            pairs in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..50),
        ) {
            let (p, a): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            prop_assert!(r2_score(&p, &a) <= 1.0 + 1e-12);
        }

        #[test]
        fn prop_pearson_bounded(
            pairs in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..50),
        ) {
            let (x, y): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            let r = pearson_r(&x, &y);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }
}
