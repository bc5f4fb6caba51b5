//! Portion-based adaptive allocation (§III-E, Eq. 9–10).
//!
//! At each timestamp the curator decides which *portion* `p_t` of the
//! available resource to spend — of the remaining window budget `ε_rm`
//! (budget division) or of the active user set (population division):
//!
//! ```text
//! Dev_t = Σ_s |f^{t−1}_s − mean_{κ previous}(f_s)|                  (Eq. 9)
//! p_t   = min{ (α/w)(1 − mean_κ |S*_i|/|S|) · ln(Dev_t + 1), p_max } (Eq. 10)
//! ```
//!
//! `Dev` uses the curator-side estimated frequencies (the only data legally
//! visible) with per-dimension absolute deviations, and grows `p` when the
//! stream becomes less uniform; the significant-transition ratio term
//! shrinks `p` when many dimensions are changing, preventing premature
//! budget exhaustion.
//!
//! The non-adaptive comparison strategies of §III-E are included: *Uniform*
//! (`p = 1/w`), *Sample* (everything at the first timestamp of each window)
//! and the *one-random-report-per-window* alternative (handled by the
//! engine's per-user scheduling; see `RetraSyn`).

use crate::wal::{Dec, Enc};
use std::collections::VecDeque;

/// The allocation strategies evaluated in the paper (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationKind {
    /// Data-dependent portions via Eq. 9–10 (the paper's main strategy).
    Adaptive,
    /// `p = 1/w` at every timestamp.
    Uniform,
    /// `p = 1` at the first timestamp of each window, `0` elsewhere.
    Sample,
    /// Each user reports at one uniformly random timestamp per window
    /// (population division only; mentioned in §III-E as the alternative
    /// with "less user wastage").
    RandomReport,
}

/// Stateful portion calculator.
#[derive(Debug, Clone)]
pub struct Allocator {
    kind: AllocationKind,
    w: usize,
    alpha: f64,
    kappa: usize,
    p_max: f64,
    /// Model frequency snapshots after each step (most recent last); at
    /// most κ+1 retained.
    freq_history: VecDeque<Vec<f64>>,
    /// Ratios |S*_i| / |S| for recent steps; at most κ retained.
    sig_history: VecDeque<f64>,
}

impl Allocator {
    /// Create an allocator.
    pub fn new(kind: AllocationKind, w: usize, alpha: f64, kappa: usize, p_max: f64) -> Self {
        assert!(w >= 1);
        assert!(kappa >= 1);
        assert!(p_max > 0.0 && p_max <= 1.0);
        Allocator {
            kind,
            w,
            alpha,
            kappa,
            p_max,
            freq_history: VecDeque::new(),
            sig_history: VecDeque::new(),
        }
    }

    /// The configured strategy.
    pub fn kind(&self) -> AllocationKind {
        self.kind
    }

    /// The deviation `Dev_t` of Eq. 9 from the recorded history (0 when
    /// fewer than two snapshots exist).
    pub fn deviation(&self) -> f64 {
        if self.freq_history.len() < 2 {
            return 0.0;
        }
        let last = self.freq_history.back().unwrap();
        let prev_count = self.freq_history.len() - 1;
        let dims = last.len();
        let mut dev = 0.0;
        for s in 0..dims {
            let mean: f64 = self.freq_history.iter().take(prev_count).map(|f| f[s]).sum::<f64>()
                / prev_count as f64;
            dev += (last[s] - mean).abs();
        }
        dev
    }

    /// The portion `p_t` for timestamp `t`.
    pub fn portion(&self, t: u64) -> f64 {
        match self.kind {
            AllocationKind::Uniform => 1.0 / self.w as f64,
            AllocationKind::Sample => {
                if t.is_multiple_of(self.w as u64) {
                    1.0
                } else {
                    0.0
                }
            }
            AllocationKind::RandomReport => 1.0 / self.w as f64, // engine-scheduled
            AllocationKind::Adaptive => {
                if t == 0 || self.freq_history.len() < 2 {
                    // Algorithm 1 line 2: bootstrap with 1/w.
                    return 1.0 / self.w as f64;
                }
                let sig_mean = if self.sig_history.is_empty() {
                    0.0
                } else {
                    self.sig_history.iter().sum::<f64>() / self.sig_history.len() as f64
                };
                let dev = self.deviation();
                let p = (self.alpha / self.w as f64) * (1.0 - sig_mean) * (dev + 1.0).ln();
                p.clamp(0.0, self.p_max)
            }
        }
    }

    /// Record the post-update model snapshot and this step's significant
    /// ratio `|S*_t| / |S|`.
    pub fn observe(&mut self, freqs: &[f64], sig_ratio: f64) {
        self.freq_history.push_back(freqs.to_vec());
        while self.freq_history.len() > self.kappa + 1 {
            self.freq_history.pop_front();
        }
        self.sig_history.push_back(sig_ratio.clamp(0.0, 1.0));
        while self.sig_history.len() > self.kappa {
            self.sig_history.pop_front();
        }
    }

    /// Drop all recorded history in place (configuration is untouched).
    pub fn reset(&mut self) {
        self.freq_history.clear();
        self.sig_history.clear();
    }

    /// Serialize the recorded histories for a checkpoint (configuration is
    /// not serialized — it is pinned by the session fingerprint).
    pub(crate) fn encode_into(&self, enc: &mut Enc) {
        enc.usize(self.freq_history.len());
        for snap in &self.freq_history {
            enc.usize(snap.len());
            for &f in snap {
                enc.f64(f);
            }
        }
        enc.usize(self.sig_history.len());
        for &s in &self.sig_history {
            enc.f64(s);
        }
    }

    /// Byte length of [`Self::encode_into`] output.
    pub(crate) fn encoded_len(&self) -> usize {
        let snaps: usize = self.freq_history.iter().map(|s| 8 + 8 * s.len()).sum();
        8 + snaps + 8 + 8 * self.sig_history.len()
    }

    /// Restore the histories from [`Self::encode_into`] output.
    pub(crate) fn decode_from(&mut self, dec: &mut Dec) -> Result<(), String> {
        self.reset();
        let snaps = dec.usize()?;
        if snaps > self.kappa + 1 {
            return Err(format!("allocator history of {snaps} exceeds kappa + 1"));
        }
        for _ in 0..snaps {
            let dims = dec.usize()?;
            let mut snap = Vec::with_capacity(dims.min(dec.remaining() / 8));
            for _ in 0..dims {
                snap.push(dec.f64()?);
            }
            self.freq_history.push_back(snap);
        }
        let sigs = dec.usize()?;
        if sigs > self.kappa {
            return Err(format!("allocator ratio history of {sigs} exceeds kappa"));
        }
        for _ in 0..sigs {
            self.sig_history.push_back(dec.f64()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adaptive(w: usize) -> Allocator {
        Allocator::new(AllocationKind::Adaptive, w, 8.0, 5, 0.6)
    }

    #[test]
    fn uniform_is_one_over_w() {
        let a = Allocator::new(AllocationKind::Uniform, 20, 8.0, 5, 0.6);
        for t in 0..50 {
            assert!((a.portion(t) - 0.05).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_fires_at_window_starts() {
        let a = Allocator::new(AllocationKind::Sample, 10, 8.0, 5, 0.6);
        assert_eq!(a.portion(0), 1.0);
        assert_eq!(a.portion(1), 0.0);
        assert_eq!(a.portion(9), 0.0);
        assert_eq!(a.portion(10), 1.0);
        assert_eq!(a.portion(25), 0.0);
        assert_eq!(a.portion(30), 1.0);
    }

    #[test]
    fn adaptive_bootstraps_with_uniform() {
        let a = adaptive(20);
        assert!((a.portion(0) - 0.05).abs() < 1e-12);
        assert!((a.portion(5) - 0.05).abs() < 1e-12); // no history yet
    }

    #[test]
    fn adaptive_static_stream_spends_nothing() {
        // Identical snapshots -> Dev = 0 -> ln(1) = 0 -> p = 0.
        let mut a = adaptive(10);
        let snap = vec![0.3, 0.2, 0.5];
        a.observe(&snap, 0.0);
        a.observe(&snap, 0.0);
        a.observe(&snap, 0.0);
        assert_eq!(a.deviation(), 0.0);
        assert_eq!(a.portion(3), 0.0);
    }

    #[test]
    fn adaptive_portion_grows_with_deviation() {
        let mut small = adaptive(10);
        small.observe(&[0.5, 0.5], 0.0);
        small.observe(&[0.52, 0.48], 0.0);
        let mut large = adaptive(10);
        large.observe(&[0.5, 0.5], 0.0);
        large.observe(&[0.9, 0.1], 0.0);
        assert!(large.deviation() > small.deviation());
        assert!(large.portion(2) > small.portion(2));
    }

    #[test]
    fn adaptive_capped_at_p_max() {
        let mut a = adaptive(2); // alpha/w = 4: easily saturates
        a.observe(&[0.0, 0.0, 0.0], 0.0);
        a.observe(&[1.0, 1.0, 1.0], 0.0);
        assert_eq!(a.portion(2), 0.6);
    }

    #[test]
    fn significant_ratio_shrinks_portion() {
        let mut calm = adaptive(10);
        calm.observe(&[0.5, 0.5], 0.0);
        calm.observe(&[0.7, 0.3], 0.0);
        let mut busy = adaptive(10);
        busy.observe(&[0.5, 0.5], 0.9);
        busy.observe(&[0.7, 0.3], 0.9);
        assert!(busy.portion(2) < calm.portion(2));
        // With every transition significant, p collapses toward 0.
        let mut all_sig = adaptive(10);
        all_sig.observe(&[0.5, 0.5], 1.0);
        all_sig.observe(&[0.7, 0.3], 1.0);
        assert_eq!(all_sig.portion(2), 0.0);
    }

    #[test]
    fn history_is_bounded_by_kappa() {
        let mut a = Allocator::new(AllocationKind::Adaptive, 10, 8.0, 3, 0.6);
        for i in 0..20 {
            a.observe(&[i as f64], i as f64 / 20.0);
        }
        assert!(a.freq_history.len() <= 4);
        assert!(a.sig_history.len() <= 3);
        // Deviation computed from the last 3 previous snapshots:
        // last = 19, prev mean = (16+17+18)/3 = 17 -> dev = 2.
        assert!((a.deviation() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn larger_window_reduces_portion() {
        let mut small_w = adaptive(10);
        let mut large_w = adaptive(40);
        for a in [&mut small_w, &mut large_w] {
            a.observe(&[0.5, 0.5], 0.1);
            a.observe(&[0.6, 0.4], 0.1);
        }
        assert!(large_w.portion(2) < small_w.portion(2));
    }
}
