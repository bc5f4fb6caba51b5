//! Parameter ranges of Table II, with the paper's defaults in bold there
//! and encoded here as `Params::default()`.

/// The experimental parameter set (Table II).
#[derive(Debug, Clone)]
pub struct Params {
    /// Privacy budget ε (default 1.0; range 0.5–2.0).
    pub eps: f64,
    /// Window size w (default 20; range 10–50).
    pub w: usize,
    /// Evaluation time range size φ (default 10; range 5–100).
    pub phi: u64,
    /// Discretization granularity K (default 6; range 2–18). Not checked
    /// here: `UniformGrid::new` rejects a K outside `[1, 65535]`, naming it.
    pub k: u32,
    /// Dataset scale relative to Table I (harness default 0.05 — see
    /// EXPERIMENTS.md; the paper's 100% needs a large server).
    pub scale: f64,
    /// Base seed for generation and mechanisms.
    pub seed: u64,
    /// Number of random queries / time ranges per metric.
    pub workload: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params { eps: 1.0, w: 20, phi: 10, k: 6, scale: 0.05, seed: 42, workload: 60 }
    }
}

impl Params {
    /// Table II sweep values for ε.
    pub const EPS_RANGE: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
    /// Table II sweep values for w.
    pub const W_RANGE: [usize; 5] = [10, 20, 30, 40, 50];
    /// Table II sweep values for φ.
    pub const PHI_RANGE: [u64; 5] = [5, 10, 20, 50, 100];
    /// Table II sweep values for K.
    pub const K_RANGE: [u32; 5] = [2, 6, 10, 14, 18];
    /// Table II dataset-size sweep (fractions of the configured scale).
    pub const SIZE_RANGE: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

    /// Build from CLI flags, starting at the defaults.
    pub fn from_args(args: &crate::cli::Args) -> Self {
        let d = Params::default();
        let k = args.get_u64("k", d.k as u64);
        Params {
            eps: args.get_f64("eps", d.eps),
            w: args.get_usize("w", d.w),
            phi: args.get_u64("phi", d.phi),
            k: u32::try_from(k)
                .unwrap_or_else(|_| panic!("grid granularity k={k} out of range [1, 65535]")),
            scale: args.get_f64("scale", d.scale),
            seed: args.get_u64("seed", d.seed),
            workload: args.get_usize("queries", d.workload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Args;

    #[test]
    fn defaults_match_table2_bold() {
        let p = Params::default();
        assert_eq!(p.eps, 1.0);
        assert_eq!(p.w, 20);
        assert_eq!(p.phi, 10);
        assert_eq!(p.k, 6);
    }

    #[test]
    fn from_args_overrides() {
        let args =
            Args::parse("--eps 2.0 --w 30 --k 10 --scale 0.2".split_whitespace().map(String::from));
        let p = Params::from_args(&args);
        assert_eq!(p.eps, 2.0);
        assert_eq!(p.w, 30);
        assert_eq!(p.k, 10);
        assert_eq!(p.scale, 0.2);
        assert_eq!(p.phi, 10); // untouched default
    }

    #[test]
    #[should_panic(expected = "k=70000 out of range")]
    fn out_of_range_k_is_named_not_truncated() {
        // K reaches the grid range check as given, not truncated to fit.
        let args = Args::parse(["--k", "70000"].map(String::from));
        let _ = retrasyn_geo::UniformGrid::unit(Params::from_args(&args).k);
    }

    #[test]
    fn ranges_contain_defaults() {
        assert!(Params::EPS_RANGE.contains(&1.0));
        assert!(Params::W_RANGE.contains(&20));
        assert!(Params::PHI_RANGE.contains(&10));
        assert!(Params::K_RANGE.contains(&6));
    }
}
