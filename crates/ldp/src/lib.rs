//! Local differential privacy primitives used by RetraSyn.
//!
//! This crate implements the building blocks from §II of the paper:
//!
//! - [`Oue`]: the Optimized Unary Encoding frequency oracle (Wang et al.,
//!   USENIX Security 2017) used for all transition-state collection. It has
//!   the optimal variance `4·e^ε / (n·(e^ε − 1)²)` among unary-encoding
//!   mechanisms (paper Eq. 3).
//! - [`Grr`]: generalized randomized response (k-RR), provided as an
//!   alternative oracle for the frequency-oracle-choice ablation.
//! - [`WEventLedger`]: runtime accounting of the *w-event ε-LDP* guarantee
//!   (Definition 3) for both budget-division (per-timestamp ε split) and
//!   population-division (per-user report spacing) strategies.
//! - [`binomial`]: a fast, dependency-free binomial sampler enabling the
//!   O(|domain|) aggregate simulation of n independent per-user reports.
//! - [`postprocess`]: standard LDP post-processing (clamping,
//!   norm-sub) — free of privacy cost by Theorem 2 (post-processing).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod binomial;
pub mod budget;
pub mod error;
pub mod grr;
pub mod oracle;
pub mod oue;
pub mod philox;
pub mod postprocess;

pub use audit::{audit_grr, audit_oue, AuditReport};
pub use budget::{PrivacyBudget, WEventLedger};
pub use error::LdpError;
pub use grr::Grr;
pub use oracle::{Estimate, FrequencyOracle, ReportMode};
pub use oue::{BitReport, Oue};
pub use philox::{Philox, PhiloxRng};
