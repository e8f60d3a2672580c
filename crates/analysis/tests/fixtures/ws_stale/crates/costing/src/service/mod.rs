// A mini-workspace whose only defect is one deliberately stale allow:
// the `unused-allow` finding is marked `warning:` and the CLI exits 1.
// analysis:allow(panic-freedom): deliberately stale — nothing below panics
pub fn estimate(x: f64) -> f64 {
    x + 1.0
}
