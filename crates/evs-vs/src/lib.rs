//! # evs-vs — virtual synchrony on top of extended virtual synchrony
//!
//! Part of the reproduction of *Extended Virtual Synchrony* (Moser, Amir,
//! Melliar-Smith, Agarwal; ICDCS 1994). The paper's §5 demonstrates that
//! extended virtual synchrony genuinely *extends* Isis-style virtual
//! synchrony by constructing a filter that reduces the one to the other.
//! This crate reproduces that reduction, machine-checkably:
//!
//! * [`MajorityPrimary`] / [`PrimaryPolicy`] — the "simple primary
//!   component algorithm" (§5): a configuration is primary iff it holds a
//!   majority of the universe, which yields the §2.2 Uniqueness and
//!   Continuity properties ([`PrimaryHistory::check`] verifies them).
//! * [`filter_trace`] — the §5 filter, Rules 1–4: mask transitional
//!   configurations, block non-primary components, split merges into
//!   per-process view events, re-identify resumed processes.
//! * [`check_vs`] — Birman's model (§4): completeness C1–C3 and legality
//!   L1–L5, checked on the filtered [`VsRun`].
//!
//! The headline theorem of §5.1 — every filtered EVS run is an acceptable
//! virtual synchrony execution — becomes an executable test:
//!
//! ```
//! use evs_core::{EvsCluster, Service};
//! use evs_sim::ProcessId;
//! use evs_vs::{check_vs, filter_trace, MajorityPrimary};
//!
//! let mut cluster = EvsCluster::<u8>::builder(3).build();
//! cluster.run_until_settled(200_000);
//! cluster.submit(ProcessId::new(1), Service::Safe, 7);
//! cluster.run_for(5_000);
//!
//! let run = filter_trace(&cluster.trace(), &MajorityPrimary::new(3));
//! check_vs(&run).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod filter;
mod model;
mod primary;

pub use filter::{filter_trace, VsRun};
pub use model::{check_vs, VsEvent, VsProcId, VsView, VsViewId, VsViolation};
pub use primary::{DynamicPrimary, MajorityPrimary, PrimaryHistory, PrimaryPolicy};
