//! Order statistics over samples.

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A tail that resists slow stretches of a run: consecutive blocks (the
/// run's epochs) are merged until each holds enough samples for the
/// `p`-th percentile to have at least ten beyond it, and the median of
/// the merged blocks' percentiles is returned.
pub fn median_of_blocks(blocks: &[Vec<f64>], p: f64) -> f64 {
    let needed = (1000.0 / (100.0 - p)).ceil() as usize;
    let mut merged: Vec<Vec<f64>> = vec![Vec::new()];
    for block in blocks {
        let last = merged.last_mut().expect("never empty");
        if last.len() >= needed {
            merged.push(block.clone());
        } else {
            last.extend(block);
        }
    }
    // A short remainder joins the block before it.
    if merged.len() > 1 && merged.last().map_or(0, Vec::len) < needed {
        let tail = merged.pop().expect("checked above");
        merged.last_mut().expect("checked above").extend(tail);
    }
    let tails: Vec<f64> = merged.iter().map(|block| percentile(block, p)).collect();
    median(&tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn blocks_merge_until_the_tail_is_supported() {
        // p50 needs 20 samples: ten 10-sample blocks merge into five.
        let blocks: Vec<Vec<f64>> = (0..10).map(|b| vec![b as f64; 10]).collect();
        assert_eq!(median_of_blocks(&blocks, 50.0), 4.0);
        // Too few samples overall: one block, the pooled percentile.
        assert_eq!(median_of_blocks(&[vec![1.0, 2.0, 3.0]], 99.0), 3.0);
    }
}
