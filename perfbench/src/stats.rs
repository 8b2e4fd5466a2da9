//! Order statistics for the reported metrics.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Throughput of a run as the median over `windows` equal time windows of
/// the operations completed in each, per second. A median of windows
/// keeps one stalled window, such as a neighbour's burst of load on the
/// host, from moving the figure.
pub fn windowed_rate(done_s: &[f64], seconds: f64, windows: usize) -> f64 {
    let width = seconds / windows as f64;
    let mut counts = vec![0u64; windows];
    for &t in done_s {
        let w = (t / width) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

/// The `q`-quantile of `values` as the median over `windows` equal time
/// windows (by completion time `done_s`) of each window's quantile.
pub fn windowed_quantile(
    values: &[f64],
    done_s: &[f64],
    seconds: f64,
    windows: usize,
    q: f64,
) -> f64 {
    let width = seconds / windows as f64;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (&v, &t) in values.iter().zip(done_s) {
        if let Some(w) = per.get_mut((t / width) as usize) {
            w.push(v);
        }
    }
    let qs: Vec<f64> = per
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q))
        .collect();
    median(&qs)
}

/// How much lower `after` is than `before`, in percent of `before` (0
/// when `before` is 0).
pub fn drop_pct(before: f64, after: f64) -> f64 {
    if before > 0.0 {
        100.0 * (before - after) / before
    } else {
        0.0
    }
}

/// Throughput of a single-caller closed loop as the median over blocks of
/// `block` consecutive operations of the block's operations per second of
/// operation time.
pub fn blocked_rate(durations_s: &[f64], block: usize) -> f64 {
    let rates: Vec<f64> = durations_s
        .chunks(block.max(1))
        .map(|c| c.len() as f64 / c.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// The `q`-quantile of `values` as the median over blocks of `block`
/// consecutive values of each block's quantile: the single-caller
/// counterpart of [`windowed_quantile`]. A trailing partial block is left
/// out, unless there is no whole block.
pub fn blocked_quantile(values: &[f64], block: usize, q: f64) -> f64 {
    let block = block.max(1);
    if values.len() < block {
        return quantile(values, q);
    }
    let qs: Vec<f64> = values.chunks_exact(block).map(|c| quantile(c, q)).collect();
    median(&qs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rates_use_medians() {
        let done: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        assert!((windowed_rate(&done, 1.0, 10) - 100.0).abs() < 1e-9);
        let lat: Vec<f64> = (0..100)
            .map(|i| if i < 30 { 9.0 } else { (i % 10) as f64 })
            .collect();
        assert_eq!(windowed_quantile(&lat, &done, 1.0, 10, 1.0), 9.0);
        assert_eq!(windowed_quantile(&lat, &done, 1.0, 10, 0.0), 0.0);
        assert_eq!(blocked_rate(&[0.5, 0.5, 0.25, 0.25, 10.0, 10.0], 2), 2.0);
        let slow_block = [1.0, 2.0, 3.0, 9.0, 9.0, 9.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(blocked_quantile(&slow_block, 3, 1.0), 6.0);
        assert_eq!(blocked_quantile(&slow_block[..2], 3, 1.0), 2.0);
    }
}
