//! A convenience harness: a whole EVS group under the simulator.

use crate::{Configuration, Delivery, EvsParams, EvsProcess, Trace};
use evs_order::Service;
use evs_sim::{Action, NetConfig, ProcessId, Sim, SimTime};
use evs_telemetry::{Exposition, Telemetry};
use std::fmt;

/// Builder for [`EvsCluster`].
#[derive(Clone, Debug)]
pub struct EvsClusterBuilder<P> {
    n: usize,
    net: NetConfig,
    params: EvsParams,
    telemetry: bool,
    _payload: std::marker::PhantomData<fn() -> P>,
}

impl<P: Clone + fmt::Debug + 'static> EvsClusterBuilder<P> {
    /// Sets the network configuration (latency, loss, seed).
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Sets the protocol parameters.
    pub fn params(mut self, params: EvsParams) -> Self {
        self.params = params;
        self
    }

    /// Sets only the simulation seed, keeping other network defaults.
    pub fn seed(mut self, seed: u64) -> Self {
        self.net.seed = seed;
        self
    }

    /// Sets only the packet-loss probability.
    pub fn drop_prob(mut self, drop_prob: f64) -> Self {
        self.net.drop_prob = drop_prob;
        self
    }

    /// Enables per-process telemetry (metrics, flight recorder). Off by
    /// default so that benchmarks measure the detached fast path.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> EvsCluster<P> {
        let params = self.params;
        let mut sim = Sim::new(self.n, self.net, |p| EvsProcess::new(p, params.clone()));
        if self.telemetry {
            sim.enable_telemetry();
        }
        EvsCluster { sim }
    }
}

/// A group of [`EvsProcess`]es running under the deterministic simulator —
/// the one-import way to run EVS scenarios in tests, examples and
/// benchmarks.
///
/// # Examples
///
/// ```
/// use evs_core::{EvsCluster, Service};
/// use evs_sim::ProcessId;
///
/// let mut cluster = EvsCluster::<&str>::builder(3).build();
/// assert!(cluster.run_until_settled(200_000));
/// cluster.submit(ProcessId::new(0), Service::Safe, "hello");
/// cluster.run_for(5_000);
/// // Every process delivered the message.
/// for p in cluster.processes() {
///     assert!(cluster
///         .deliveries(p)
///         .iter()
///         .any(|d| d.payload() == Some(&"hello")));
/// }
/// ```
pub struct EvsCluster<P: Clone + fmt::Debug + 'static> {
    sim: Sim<EvsProcess<P>>,
}

impl<P: Clone + fmt::Debug + Send + 'static> EvsCluster<P> {
    /// Starts building a cluster of `n` processes.
    pub fn builder(n: usize) -> EvsClusterBuilder<P> {
        EvsClusterBuilder {
            n,
            net: NetConfig::default(),
            params: EvsParams::default(),
            telemetry: false,
            _payload: std::marker::PhantomData,
        }
    }

    /// The process identifiers of the cluster.
    pub fn processes(&self) -> Vec<ProcessId> {
        evs_sim::all_ids(self.sim.len())
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Submits an application message at process `p` right now.
    ///
    /// # Panics
    ///
    /// Panics if `p` is crashed.
    pub fn submit(&mut self, p: ProcessId, service: Service, payload: P) {
        self.sim
            .invoke(p, move |node, ctx| node.submit(ctx, service, payload));
    }

    /// Runs the simulation for `ticks` more ticks.
    pub fn run_for(&mut self, ticks: u64) {
        let deadline = self.sim.now() + ticks;
        self.sim.run_until(deadline);
    }

    /// Runs until every live process is settled (stable regular
    /// configuration covering exactly the live members of its network
    /// component, nothing pending, everything delivered), or until
    /// `max_ticks` have elapsed. Returns true if the cluster settled.
    pub fn run_until_settled(&mut self, max_ticks: u64) -> bool {
        self.sim.start();
        let deadline = self.sim.now() + max_ticks;
        loop {
            if self.settled() {
                // A settled snapshot can race a message still in flight
                // (a sender delivers its own stamped message instantly,
                // the broadcast lands a few ticks later). Confirm across a
                // grace window longer than any in-flight latency plus a
                // token rotation before declaring quiescence.
                let confirm = self.sim.now() + 2_000;
                self.sim.run_until(confirm);
                if self.settled() {
                    return true;
                }
                continue;
            }
            if self.sim.now() >= deadline {
                return false;
            }
            let step = (deadline - self.sim.now()).min(500);
            let target = self.sim.now() + step;
            self.sim.run_until(target);
        }
    }

    /// True if every live process is settled and configurations match the
    /// current topology components (restricted to live processes).
    pub fn settled(&self) -> bool {
        self.processes().into_iter().all(|p| {
            if !self.sim.is_alive(p) {
                return true;
            }
            let node = self.sim.node(p);
            if !node.is_settled() {
                return false;
            }
            let expect: Vec<ProcessId> = self
                .sim
                .topology()
                .component_of(p)
                .into_iter()
                .filter(|&q| self.sim.is_alive(q))
                .collect();
            node.current_config().members == expect
        })
    }

    /// Partitions the network now. Each group becomes its own component.
    pub fn partition(&mut self, groups: &[&[ProcessId]]) {
        let groups: Vec<Vec<ProcessId>> = groups.iter().map(|g| g.to_vec()).collect();
        self.sim.apply(Action::Partition(groups));
    }

    /// Reconnects the whole network now.
    pub fn merge_all(&mut self) {
        self.sim.apply(Action::MergeAll);
    }

    /// Crashes process `p` now (volatile state lost, stable storage kept).
    pub fn crash(&mut self, p: ProcessId) {
        self.sim.crash(p);
    }

    /// Recovers process `p` now, under the same identifier.
    pub fn recover(&mut self, p: ProcessId) {
        self.sim.recover(p);
    }

    /// Kills process `p` now (`kill -9`): unlike [`EvsCluster::crash`] the
    /// engine gets no farewell callback, so only state it already wrote to
    /// its write-ahead log survives to a later recover.
    pub fn kill(&mut self, p: ProcessId) {
        self.sim.kill(p);
    }

    /// Returns true if `p` is currently up.
    pub fn is_alive(&self, p: ProcessId) -> bool {
        self.sim.is_alive(p)
    }

    /// The configuration most recently delivered at `p`.
    pub fn config(&self, p: ProcessId) -> &Configuration {
        self.sim.node(p).current_config()
    }

    /// Everything delivered to the application at `p` so far.
    pub fn deliveries(&self, p: ProcessId) -> &[Delivery<P>] {
        self.sim.node(p).deliveries()
    }

    /// Direct access to a process's engine (assertions in tests).
    pub fn node(&self, p: ProcessId) -> &EvsProcess<P> {
        self.sim.node(p)
    }

    /// Collects the full execution trace for the specification checker.
    pub fn trace(&self) -> Trace {
        Trace::new(
            self.processes()
                .into_iter()
                .map(|p| self.sim.trace(p).to_vec())
                .collect(),
        )
    }

    /// The telemetry handle of process `p` (detached unless the cluster was
    /// built with [`EvsClusterBuilder::telemetry`]).
    pub fn telemetry(&self, p: ProcessId) -> &Telemetry {
        self.sim.telemetry(p)
    }

    /// Clones of every process's telemetry handle, in process order.
    pub fn telemetry_handles(&self) -> Vec<Telemetry> {
        self.sim.telemetry_handles()
    }

    /// One snapshot per process, in process order; sum them with
    /// [`evs_telemetry::counter_totals`]. Empty when the cluster was built
    /// without telemetry.
    pub fn snapshots(&self) -> Vec<Exposition> {
        self.sim
            .telemetry_handles()
            .iter()
            .filter_map(Telemetry::snapshot)
            .collect()
    }

    /// Low-level access to the simulator for advanced schedules.
    pub fn sim_mut(&mut self) -> &mut Sim<EvsProcess<P>> {
        &mut self.sim
    }
}
