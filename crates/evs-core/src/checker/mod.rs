//! Machine-checkable form of the paper's specifications.
//!
//! The extended virtual synchrony model (§2.1 of the paper) is a set of
//! first-order conditions — Specifications 1.1 through 7.2 — over the
//! events `deliver_conf_p(c)`, `send_p(m,c)`, `deliver_p(m,c)` and
//! `fail_p(c)`, a precedes relation `→` and a logical total order `ord`.
//! This module turns each specification into a predicate over an execution
//! [`Trace`] and reports every violation it finds. The §2.2 primary
//! component model (Uniqueness, Continuity) is checked by
//! [`check_primary`].
//!
//! `→` and `ord` are constructed as witnesses from the trace (see
//! [`EventGraph`]): if construction fails (a cycle), the corresponding
//! specifications are unsatisfiable for this trace and a violation is
//! reported; if it succeeds, the remaining specifications are checked
//! against the constructed relations.
//!
//! ```
//! use evs_core::{EvsCluster, Service};
//! use evs_sim::ProcessId;
//!
//! let mut cluster = EvsCluster::<u8>::builder(2).build();
//! cluster.run_until_settled(200_000);
//! cluster.submit(ProcessId::new(0), Service::Safe, 42);
//! cluster.run_for(5_000);
//! evs_core::checker::check_all(&cluster.trace()).unwrap();
//! ```

mod graph;
mod primary;
mod specs;

pub use graph::{EvRef, EventGraph};
pub use primary::check_primary;

use crate::{Configuration, EvsEvent, Trace};
use core::fmt;
use evs_membership::ConfigId;
use evs_order::{MessageId, Service};
use evs_sim::ProcessId;
use std::collections::{BTreeMap, HashSet};

/// A single specification violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which specification failed (e.g. `"1.3"`, `"7.1"`, `"primary-1"`).
    pub spec: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[Spec {}] {}", self.spec, self.detail)
    }
}

/// A send event's whereabouts.
#[derive(Clone, Copy, Debug)]
pub struct SendInfo {
    /// Where in the trace.
    pub r: EvRef,
    /// Originating process.
    pub sender: ProcessId,
    /// Configuration of origination.
    pub config: ConfigId,
    /// Requested service.
    pub service: Service,
}

/// A delivery event's whereabouts.
#[derive(Clone, Copy, Debug)]
pub struct DeliverInfo {
    /// Where in the trace.
    pub r: EvRef,
    /// Configuration of delivery.
    pub config: ConfigId,
    /// Service of the message.
    pub service: Service,
    /// Ordinal in the regular configuration's total order.
    pub seq: u64,
}

/// Pre-digested view of a trace: indexes over events plus the constructed
/// `→`/`ord` witnesses. Built once by [`Analysis::build`] and shared by all
/// specification checks.
pub struct Analysis<'t> {
    /// The trace under scrutiny.
    pub trace: &'t Trace,
    /// The precedes/ord structure.
    pub graph: EventGraph,
    /// Every configuration seen, by id (membership consistency verified).
    pub configs: BTreeMap<ConfigId, Configuration>,
    /// The regular configuration underlying each configuration id
    /// (identity for regular configurations; the immediately preceding
    /// regular configuration for transitional ones).
    pub reg_of: BTreeMap<ConfigId, ConfigId>,
    /// The (unique) send event per message.
    pub sends: BTreeMap<MessageId, SendInfo>,
    /// All deliveries per message.
    pub delivers: BTreeMap<MessageId, Vec<DeliverInfo>>,
    /// All configuration-change deliveries per configuration.
    pub conf_delivs: BTreeMap<ConfigId, Vec<EvRef>>,
    /// All failures: (event ref, configuration failed in).
    pub fails: Vec<(EvRef, ConfigId)>,
    /// The first send of each message sent more than once.
    first_sends: BTreeMap<MessageId, EvRef>,
    /// `(process, regular configuration)` per failure.
    failed_in: HashSet<(usize, ConfigId)>,
    /// Violations detected while indexing (identity-level breakage).
    registry_violations: Vec<Violation>,
}

impl<'t> Analysis<'t> {
    /// Indexes a trace and constructs the `→`/`ord` witnesses.
    pub fn build(trace: &'t Trace) -> Self {
        let mut a = Analysis {
            trace,
            graph: EventGraph::default(),
            configs: BTreeMap::new(),
            reg_of: BTreeMap::new(),
            sends: BTreeMap::new(),
            delivers: BTreeMap::new(),
            conf_delivs: BTreeMap::new(),
            fails: Vec::new(),
            first_sends: BTreeMap::new(),
            failed_in: HashSet::new(),
            registry_violations: Vec::new(),
        };
        let identity = |detail| Violation {
            spec: "identity",
            detail,
        };
        for (pid, log) in trace.events.iter().enumerate() {
            let mut last_regular = None;
            for (idx, (_, ev)) in log.iter().enumerate() {
                let (r, v) = (EvRef { pid, idx }, &mut a.registry_violations);
                match *ev {
                    EvsEvent::DeliverConf(ref c) => {
                        let known = a.configs.entry(c.id).or_insert_with(|| c.clone());
                        if known != c {
                            v.push(identity(format!(
                                "configuration {} delivered with two memberships: {:?} vs {:?}",
                                c.id, known.members, c.members
                            )));
                        }
                        a.conf_delivs.entry(c.id).or_default().push(r);
                        if c.id.is_regular() {
                            a.reg_of.insert(c.id, c.id);
                            last_regular = Some(c.id);
                        } else if let Some(reg) = last_regular {
                            let prev = *a.reg_of.entry(c.id).or_insert(reg);
                            if prev != reg {
                                v.push(identity(format!(
                                    "transitional {} follows {reg} at P{pid} but {prev} elsewhere",
                                    c.id
                                )));
                            }
                        } else {
                            v.push(identity(format!(
                                "transitional {} delivered at P{pid} with no preceding regular configuration",
                                c.id
                            )));
                        }
                    }
                    EvsEvent::Send {
                        id,
                        config,
                        service,
                    } => {
                        let sender = ProcessId::new(pid as u32);
                        let info = SendInfo {
                            r,
                            sender,
                            config,
                            service,
                        };
                        if let Some(prev) = a.sends.insert(id, info) {
                            a.first_sends.entry(id).or_insert(prev.r);
                            v.push(Violation {
                                spec: "1.4",
                                detail: format!(
                                    "message {id} sent twice: by P{} in {} and by P{pid} in {config}",
                                    prev.sender, prev.config
                                ),
                            });
                        }
                    }
                    EvsEvent::Deliver {
                        id,
                        config,
                        service,
                        seq,
                    } => {
                        let info = DeliverInfo {
                            r,
                            config,
                            service,
                            seq,
                        };
                        a.delivers.entry(id).or_default().push(info);
                    }
                    EvsEvent::Fail { config } => a.fails.push((r, config)),
                }
            }
        }
        a.failed_in = (a.fails.iter())
            .filter_map(|&(r, c)| Some((r.pid, a.reg(c)?)))
            .collect();
        a.graph = EventGraph::new(&a);
        a
    }

    /// Every violation of Specs 1.1–7.2 in the trace.
    fn violations(&self) -> Vec<Violation> {
        let mut v = self.registry_violations.clone();
        v.extend(specs::check_spec1(self));
        v.extend(specs::check_spec2(self));
        v.extend(specs::check_spec3(self));
        v.extend(specs::check_spec4(self));
        v.extend(specs::check_spec5(self));
        v.extend(specs::check_spec6(self));
        v.extend(specs::check_spec7(self));
        v
    }

    /// The regular configuration underlying `c` (identity for regular
    /// configurations), or `None` if the trace never establishes it.
    pub fn reg(&self, c: ConfigId) -> Option<ConfigId> {
        if c.is_regular() {
            Some(c)
        } else {
            self.reg_of.get(&c).copied()
        }
    }

    /// `com`-compatibility: two configurations share the same underlying
    /// regular configuration. This is the equivalence Specifications 5, 6.3
    /// and 7.1 quantify over via `com_q(c)` — a process may deliver a
    /// message either in the regular configuration or in *its own*
    /// transitional configuration following it (see the note below
    /// Spec 6.3 in the paper).
    pub fn com_compatible(&self, a: ConfigId, b: ConfigId) -> bool {
        self.reg(a).is_some_and(|x| self.reg(b) == Some(x))
    }

    /// Every message sent or delivered, in id order, with its send and its
    /// deliveries: one merge of `sends` and `delivers`, no lookups.
    fn messages(&self) -> impl Iterator<Item = (MessageId, Option<&SendInfo>, &[DeliverInfo])> {
        let mut sends = self.sends.iter().peekable();
        let mut delivers = self.delivers.iter().peekable();
        std::iter::from_fn(move || {
            let m = [sends.peek().map(|s| *s.0), delivers.peek().map(|d| *d.0)];
            let m = m.into_iter().flatten().min()?;
            let send = sends.next_if(|s| *s.0 == m).map(|s| s.1);
            let delivs = delivers.next_if(|d| *d.0 == m).map_or(&[][..], |d| d.1);
            Some((m, send, delivs))
        })
    }

    /// True if one of `delivs` is by process `q`, in a configuration
    /// com-compatible with `c`.
    fn delivered_in_com(&self, delivs: &[DeliverInfo], q: usize, c: ConfigId) -> bool {
        delivs
            .iter()
            .any(|d| d.r.pid == q && self.com_compatible(d.config, c))
    }

    /// True if process `q` has a failure event in a configuration
    /// com-compatible with `c`.
    pub fn failed_in_com(&self, q: ProcessId, c: ConfigId) -> bool {
        self.reg(c)
            .is_some_and(|reg| self.failed_in.contains(&(q.as_usize(), reg)))
    }
}

/// Runs every specification check (1.1–7.2) and returns all violations.
///
/// # Errors
///
/// Returns the full list of violations if the trace breaks any
/// specification of the extended virtual synchrony model.
pub fn check_all(trace: &Trace) -> Result<(), Vec<Violation>> {
    let v = Analysis::build(trace).violations();
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

/// Like [`check_all`], but panics with a readable report on violation —
/// convenient in tests.
///
/// # Panics
///
/// Panics if the trace violates the model.
pub fn assert_evs(trace: &Trace) {
    if let Err(violations) = check_all(trace) {
        let mut report = String::from("extended virtual synchrony violated:\n");
        for v in &violations {
            report.push_str(&format!("  {v}\n"));
        }
        panic!("{report}\ntrace:\n{trace}");
    }
}

/// Aggregate statistics plus the verdict of a full specification check —
/// a one-call summary for tools and examples.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// Number of processes in the trace.
    pub processes: usize,
    /// Total events.
    pub events: usize,
    /// Distinct regular configurations installed.
    pub regular_configurations: usize,
    /// Distinct transitional configurations installed.
    pub transitional_configurations: usize,
    /// Messages originated.
    pub messages_sent: usize,
    /// Message delivery events.
    pub deliveries: usize,
    /// Messages requesting the safe service.
    pub safe_messages: usize,
    /// Process failure events.
    pub failures: usize,
    /// All specification violations (empty = conformant).
    pub violations: Vec<Violation>,
}

impl ConformanceReport {
    /// True if the trace satisfies every specification.
    pub fn conformant(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} processes, {} events: {} regular + {} transitional configurations, \
             {} messages sent ({} safe), {} deliveries, {} failures",
            self.processes,
            self.events,
            self.regular_configurations,
            self.transitional_configurations,
            self.messages_sent,
            self.safe_messages,
            self.deliveries,
            self.failures
        )?;
        if self.violations.is_empty() {
            write!(f, "all extended virtual synchrony specifications hold")
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Runs the full check and summarizes the trace.
///
/// ```
/// use evs_core::{EvsCluster, Service};
/// use evs_sim::ProcessId;
///
/// let mut cluster = EvsCluster::<u8>::builder(2).build();
/// cluster.run_until_settled(200_000);
/// cluster.submit(ProcessId::new(0), Service::Safe, 1);
/// cluster.run_for(5_000);
/// let report = evs_core::checker::report(&cluster.trace());
/// assert!(report.conformant());
/// assert_eq!(report.processes, 2);
/// assert!(report.safe_messages >= 1);
/// ```
pub fn report(trace: &Trace) -> ConformanceReport {
    let a = Analysis::build(trace);
    let violations = a.violations();
    ConformanceReport {
        processes: trace.num_processes(),
        events: trace.len(),
        regular_configurations: a.configs.values().filter(|c| c.is_regular()).count(),
        transitional_configurations: a.configs.values().filter(|c| !c.is_regular()).count(),
        messages_sent: a.sends.len(),
        deliveries: a.delivers.values().map(Vec::len).sum(),
        safe_messages: a
            .sends
            .values()
            .filter(|s| s.service == Service::Safe)
            .count(),
        failures: a.fails.len(),
        violations,
    }
}
