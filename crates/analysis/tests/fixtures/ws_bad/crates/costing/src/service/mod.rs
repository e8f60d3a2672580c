// A deliberately violating mini-workspace: the CLI integration test
// points `--root` at `ws_bad` and asserts a non-zero exit plus
// file:line diagnostics.
pub fn estimate(x: Option<f64>) -> f64 {
    x.unwrap()
}
