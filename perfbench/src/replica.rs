//! The traced replica: the benchmark's own copy of `FatTreeSim`'s flow
//! loop, built from each layer's public functions, with a span around
//! every call into a layer.
//!
//! Spans are a chain of timestamps: the time between two consecutive
//! stamps is charged to the layer called in between, so a flow's span is
//! the sum of its layers' self times plus the loop's own glue. Two layers
//! are measured by replaying a call as a probe and are treated as nested
//! children of the layer that contains the real call:
//!
//! * `wire.icrc`: `icrc::verify` on every frame the NIC received. The
//!   probe's own time is kept out of the flow span; its time is taken
//!   out of `rdma.nic`'s self time, whose receive path runs the same
//!   verification once per frame.
//! * `core.store`: the primary collector's `query_with_policy` after
//!   each cluster query; its time is taken out of `collector.cluster`'s
//!   self time.
//!
//! Set-up, seeds and call order mirror the simulator's, so on a
//! fault-free workload the replica reproduces its NIC write count and
//! outcome classes exactly. The switches live in a `Vec` indexed by ID,
//! so fan-out over switches runs in ascending-ID order on every run.

use std::hint::black_box;
use std::time::Instant;

use dta_collector::{CollectorCluster, CollectorHealth, QueryError, RereplStats};
use dta_core::config::DartConfig;
use dta_core::hash::MappingKind;
use dta_core::primitive::{seq_newest, PrimitiveSpec};
use dta_core::query::{classify, QueryClass, QueryOutcome};
use dta_obs::{EventKind, Obs};
use dta_rdma::link::{link, LinkRx, LinkTx};
use dta_rdma::nic::{DropReason, RxAction};
use dta_switch::control_plane::{ControlPlane, HealthMonitor};
use dta_switch::egress::EgressConfig;
use dta_switch::int_transit::{IntPacket, IntRole, IntSwitch};
use dta_switch::SwitchIdentity;
use dta_telemetry::int_path::PATH_HOPS;
use dta_topology::fattree::FatTree;
use dta_topology::flowgen::FlowGenerator;
use dta_topology::sim::{CollectorFault, FaultKind, ReportMode, SimConfig, SimReport};
use dta_wire::roce::{icrc, Psn};
use dta_wire::{ethernet, ipv4, udp, FiveTuple};

/// The layers a traced flow or query is split into, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Flowgen,
    Fattree,
    IntTransit,
    Egress,
    Icrc,
    Link,
    Nic,
    ControlPlane,
    Rerepl,
    Cluster,
    Store,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::Flowgen,
        Layer::Fattree,
        Layer::IntTransit,
        Layer::Egress,
        Layer::Icrc,
        Layer::Link,
        Layer::Nic,
        Layer::ControlPlane,
        Layer::Rerepl,
        Layer::Cluster,
        Layer::Store,
    ];

    /// The module the layer's calls go into.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Flowgen => "topology.flowgen",
            Layer::Fattree => "topology.fattree",
            Layer::IntTransit => "switch.int_transit",
            Layer::Egress => "switch.egress",
            Layer::Icrc => "wire.icrc",
            Layer::Link => "rdma.link",
            Layer::Nic => "rdma.nic",
            Layer::ControlPlane => "switch.control_plane",
            Layer::Rerepl => "collector.rerepl",
            Layer::Cluster => "collector.cluster",
            Layer::Store => "core.store",
        }
    }
}

/// Span totals and counts at each layer boundary, summed over a run.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// Span time per layer, indexed like [`Layer::ALL`] (before the
    /// nested probes are taken out of their parents).
    pub span_ns: [u64; 11],
    /// Flow time not inside any layer span (the loop's own bookkeeping).
    pub glue_ns: u64,
    /// Traced flow time (probes excluded).
    pub flow_ns: u64,
    pub flows: u64,
    pub hops: u64,
    pub reports: u64,
    pub appends: u64,
    pub frames_sent: u64,
    pub frames_dropped: u64,
    /// Frames the link delivered to the collector fabric.
    pub frames_delivered: u64,
    /// Delivered frames that reached a NIC (not dropped by a fault).
    pub frames_at_nic: u64,
    /// `wire.icrc` probe time over the frames that reached a NIC.
    pub icrc_at_nic_ns: u64,
    pub fresh_writes: u64,
    pub drops: [u64; DropReason::ALL.len()],
    pub ticks: u64,
    pub probes: u64,
    pub liveness_flips: u64,
    pub queries: u64,
    pub store_queries: u64,
    pub window_reads: u64,
    pub probes_examined: u64,
    pub probes_matched: u64,
}

impl Profile {
    fn add(&mut self, layer: Layer, ns: u64) {
        self.span_ns[layer as usize] += ns;
    }

    /// Fold another simulator lifetime's profile into this one.
    pub fn merge(&mut self, o: &Profile) {
        for (a, b) in self.span_ns.iter_mut().zip(o.span_ns) {
            *a += b;
        }
        for (a, b) in self.drops.iter_mut().zip(o.drops) {
            *a += b;
        }
        self.glue_ns += o.glue_ns;
        self.flow_ns += o.flow_ns;
        self.flows += o.flows;
        self.hops += o.hops;
        self.reports += o.reports;
        self.appends += o.appends;
        self.frames_sent += o.frames_sent;
        self.frames_dropped += o.frames_dropped;
        self.frames_delivered += o.frames_delivered;
        self.frames_at_nic += o.frames_at_nic;
        self.icrc_at_nic_ns += o.icrc_at_nic_ns;
        self.fresh_writes += o.fresh_writes;
        self.ticks += o.ticks;
        self.probes += o.probes;
        self.liveness_flips += o.liveness_flips;
        self.queries += o.queries;
        self.store_queries += o.store_queries;
        self.window_reads += o.window_reads;
        self.probes_examined += o.probes_examined;
        self.probes_matched += o.probes_matched;
    }

    pub fn span(&self, layer: Layer) -> u64 {
        self.span_ns[layer as usize]
    }

    /// Self time: the span minus the nested probe child, if any.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        match layer {
            Layer::Nic => self.span(Layer::Nic).saturating_sub(self.icrc_at_nic_ns),
            Layer::Icrc => self.icrc_at_nic_ns,
            Layer::Cluster => self
                .span(Layer::Cluster)
                .saturating_sub(self.span(Layer::Store)),
            _ => self.span(layer),
        }
    }

    /// Flow plus query time: the base of every self share.
    pub fn total_ns(&self) -> u64 {
        self.flow_ns + self.span(Layer::Cluster)
    }
}

/// The stopwatch a traced flow runs on.
struct Chain {
    last: Instant,
}

impl Chain {
    fn start() -> Chain {
        Chain {
            last: Instant::now(),
        }
    }

    /// Nanoseconds since the previous stamp; restarts the chain.
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        ns
    }
}

/// The benchmark-owned flow loop.
pub struct Replica {
    tree: FatTree,
    config: SimConfig,
    /// Switch `id` at index `id - 1`.
    switches: Vec<IntSwitch>,
    cluster: CollectorCluster,
    tx: LinkTx,
    rx: LinkRx,
    flowgen: FlowGenerator,
    truths: Vec<(FiveTuple, Vec<u8>)>,
    monitor: HealthMonitor,
    pending_faults: Vec<CollectorFault>,
    pending_recoveries: Vec<(u64, u32)>,
    obs: Obs,
    link_dropped_seen: u64,
    pub profile: Profile,
}

impl Replica {
    pub fn new(config: SimConfig, obs: Obs) -> Result<Replica, String> {
        if config.mode != ReportMode::AllCopies
            || matches!(config.primitive, PrimitiveSpec::KeyIncrement)
        {
            return Err("the replica covers Key-Write (all copies) and Append".into());
        }
        let tree = FatTree::new(config.k).map_err(|e| e.to_string())?;
        let dart_config = DartConfig::builder()
            .slots(config.slots)
            .copies(config.copies)
            .checksum(config.checksum)
            .value_len(PATH_HOPS * 4)
            .collectors(config.collectors)
            .mapping(MappingKind::Crc)
            .policy(config.policy)
            .primitive(config.primitive)
            .build()
            .map_err(|e| e.to_string())?;
        let layout = dart_config.layout;
        let copies = dart_config.copies;
        let mut cluster = CollectorCluster::with_fault_seed(dart_config, config.seed ^ 0xFA17)
            .map_err(|e| e.to_string())?;
        cluster.attach_obs(&obs);
        let egress_config = EgressConfig {
            primitive: config.primitive,
            copies,
            slots: config.slots,
            layout,
            collectors: config.collectors,
            udp_src_port: 49152,
        };
        let mut switches = Vec::new();
        for (index, id) in tree.all_switch_ids().into_iter().enumerate() {
            assert_eq!(id as usize, index + 1, "switch IDs are dense from 1");
            let mut sw = IntSwitch::new(
                SwitchIdentity::derived(id),
                egress_config,
                PATH_HOPS,
                config.seed ^ u64::from(id),
            )
            .map_err(|e| e.to_string())?;
            let directory = cluster.directory_for_switch_from(Psn::new(config.initial_psn));
            ControlPlane::new()
                .install_directory(sw.egress_mut(), &directory)
                .map_err(|e| e.to_string())?;
            sw.egress_mut().attach_obs(&obs);
            switches.push(sw);
        }
        let (tx, rx) = link(config.fault, config.seed ^ 0x11A);
        let flowgen = FlowGenerator::new(tree, config.skew, config.seed ^ 0xF10);
        let mut monitor = HealthMonitor::new(config.collectors, config.probe);
        monitor.attach_obs(&obs);
        Ok(Replica {
            tree,
            pending_faults: config.faults.clone(),
            config,
            switches,
            cluster,
            tx,
            rx,
            flowgen,
            truths: Vec::new(),
            monitor,
            pending_recoveries: Vec::new(),
            obs,
            link_dropped_seen: 0,
            profile: Profile::default(),
        })
    }

    fn switch(&mut self, id: u32) -> &mut IntSwitch {
        &mut self.switches[id as usize - 1]
    }

    /// One traced flow: route, INT transit, sink reporting, the link,
    /// the collectors' NICs and the control plane's clock step.
    pub fn run_flow(&mut self) -> Result<FiveTuple, String> {
        let mut chain = Chain::start();
        let flow_start = chain.last;
        let mut probe_ns = 0u64;

        let flow = self.flowgen.next_flow();
        self.profile.add(Layer::Flowgen, chain.lap());

        let route = self
            .tree
            .route(flow.src, flow.dst, &flow.tuple)
            .map_err(|e| e.to_string())?;
        self.profile.add(Layer::Fattree, chain.lap());

        let mut packet = IntPacket::new(flow.tuple);
        for (i, &hop) in route.iter().enumerate() {
            let role = if i == 0 {
                IntRole::Source
            } else {
                IntRole::Transit
            };
            self.switch(hop)
                .process(&mut packet, role)
                .map_err(|e| e.to_string())?;
        }
        let truth = packet
            .stack
            .to_padded_value_bytes(PATH_HOPS)
            .map_err(|e| e.to_string())?;
        self.profile.hops += route.len() as u64;
        self.profile.add(Layer::IntTransit, chain.lap());

        let sink_id = *route.last().expect("routes are non-empty");
        let primitive = self.config.primitive;
        let sink = self.switch(sink_id);
        let reports = match primitive {
            PrimitiveSpec::Append { .. } => sink
                .egress_mut()
                .craft(&flow.tuple.to_bytes(), &truth)
                .map_err(|e| e.to_string())?,
            _ => sink
                .report_all_copies(&flow.tuple, &packet.stack)
                .map_err(|e| e.to_string())?,
        };
        self.profile.reports += reports.len() as u64;
        if matches!(primitive, PrimitiveSpec::Append { .. }) {
            self.profile.appends += reports.len() as u64;
        }
        self.profile.add(Layer::Egress, chain.lap());

        for report in reports {
            self.tx.send(report.frame);
        }
        self.profile.add(Layer::Link, chain.lap());
        self.truths.push((flow.tuple, truth));
        self.profile.glue_ns += chain.lap();

        self.drain_link(&mut chain, &mut probe_ns);
        self.advance_faults(&mut chain);

        self.profile.glue_ns += chain.lap();
        let span = chain.last.duration_since(flow_start).as_nanos() as u64;
        self.profile.flow_ns += span.saturating_sub(probe_ns);
        self.profile.flows += 1;
        Ok(flow.tuple)
    }

    fn drain_link(&mut self, chain: &mut Chain, probe_ns: &mut u64) {
        self.tx.flush();
        self.profile.add(Layer::Link, chain.lap());
        loop {
            let frame = self.rx.try_recv();
            if frame.is_some() && self.obs.is_enabled() {
                self.obs.event(EventKind::LinkFrame { delivered: true });
            }
            self.profile.add(Layer::Link, chain.lap());
            let Some(frame) = frame else { break };
            self.profile.frames_delivered += 1;

            let outcome = self.cluster.deliver(&frame);
            self.profile.add(Layer::Nic, chain.lap());

            let at_nic = match outcome.action {
                RxAction::WriteExecuted { fresh, .. } => {
                    self.profile.fresh_writes += u64::from(fresh);
                    true
                }
                RxAction::Dropped(reason) => {
                    let index = DropReason::ALL
                        .iter()
                        .position(|&r| r == reason)
                        .expect("DropReason::ALL lists every reason");
                    self.profile.drops[index] += 1;
                    !matches!(
                        reason,
                        DropReason::CollectorDown
                            | DropReason::Blackholed
                            | DropReason::DegradedLink
                    )
                }
                _ => true,
            };
            self.profile.glue_ns += chain.lap();
            let verify_ns = icrc_probe(&frame);
            if at_nic {
                self.profile.frames_at_nic += 1;
                self.profile.icrc_at_nic_ns += verify_ns;
            }
            // The probe (parse and verify) is charged to no layer and is
            // kept out of the flow span.
            *probe_ns += chain.lap();
        }
        let stats = self.tx.stats();
        if self.obs.is_enabled() {
            for _ in self.link_dropped_seen..stats.dropped {
                self.obs.event(EventKind::LinkFrame { delivered: false });
            }
            let registry = self.obs.registry();
            registry.gauge("dta_link_sent").set(stats.sent as i64);
            registry
                .gauge("dta_link_delivered")
                .set(stats.delivered as i64);
            registry.gauge("dta_link_dropped").set(stats.dropped as i64);
        }
        self.link_dropped_seen = stats.dropped;
        self.obs.set_tick(stats.sent);
        self.profile.frames_sent = stats.sent;
        self.profile.frames_dropped = stats.dropped;
        self.profile.add(Layer::Link, chain.lap());
    }

    /// The simulator's fault and control-plane clock step, with the
    /// health monitor and liveness pushes charged to the control plane
    /// and the recovery sweep to `collector.rerepl`.
    fn advance_faults(&mut self, chain: &mut Chain) {
        self.profile.ticks += 1;
        let now = self.tx.stats().sent;
        let mut i = 0;
        while i < self.pending_faults.len() {
            if self.pending_faults[i].after_frames <= now {
                let fault = self.pending_faults.remove(i);
                let health = match fault.kind {
                    FaultKind::Crash => CollectorHealth::Crashed,
                    FaultKind::Blackhole => CollectorHealth::Blackholed,
                    FaultKind::Degrade { loss } => CollectorHealth::Degraded { loss },
                };
                self.cluster.set_health(fault.index, health);
                if let Some(after) = fault.recover_after {
                    self.pending_recoveries.push((now + after, fault.index));
                }
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.pending_recoveries.len() {
            if self.pending_recoveries[i].0 <= now {
                let (_, index) = self.pending_recoveries.remove(i);
                self.cluster.recover(index);
            } else {
                i += 1;
            }
        }
        let prev = self.monitor.mask();
        let cluster = &mut self.cluster;
        let mut probes = 0u64;
        let flipped = self.monitor.tick(now, |id| {
            probes += 1;
            cluster.probe_rtt(id)
        });
        self.profile.probes += probes;
        if let Some(mask) = flipped {
            for sw in &mut self.switches {
                for id in 0..mask.total() {
                    sw.egress_mut()
                        .set_collector_liveness(id, mask.is_live(id))
                        .expect("mask sized to the directory");
                }
            }
            self.cluster.set_liveness_mask(mask);
            for id in 0..mask.total() {
                if mask.is_live(id) == prev.is_live(id) {
                    continue;
                }
                self.profile.liveness_flips += 1;
                if !mask.is_live(id) {
                    continue;
                }
                let mut records = Vec::new();
                for sw in &mut self.switches {
                    records.extend(sw.egress_mut().drain_failover_records(id));
                }
                let mut tails: Vec<(u64, u32)> = Vec::new();
                if matches!(self.config.primitive, PrimitiveSpec::Append { .. }) {
                    for ring in 0..self.config.primitive.rings(self.config.slots) {
                        let mut newest = 0u32;
                        for sw in &self.switches {
                            if let Some(tail) = sw.egress().ring_tail(id, ring) {
                                newest = seq_newest(newest, tail);
                            }
                        }
                        if newest != 0 {
                            tails.push((ring, newest));
                        }
                    }
                }
                self.profile.add(Layer::ControlPlane, chain.lap());
                self.cluster
                    .schedule_rerepl(id, prev, records, &tails, self.config.sweep, now);
                self.profile.add(Layer::Rerepl, chain.lap());
            }
        }
        self.profile.add(Layer::ControlPlane, chain.lap());
        for rec in self.cluster.rerepl_tick(now) {
            for sw in &mut self.switches {
                sw.egress_mut()
                    .set_ring_tail(rec.collector, rec.ring, rec.stored_seq)
                    .expect("reconciled ring within geometry");
            }
        }
        self.profile.add(Layer::Rerepl, chain.lap());
    }

    /// One traced query, plus the untimed store-level probes.
    pub fn query(&mut self, tuple: &FiveTuple) -> Result<QueryOutcome, QueryError> {
        let key = tuple.to_bytes();
        let start = Instant::now();
        let outcome = self.cluster.try_query(&key);
        self.profile
            .add(Layer::Cluster, start.elapsed().as_nanos() as u64);
        self.profile.queries += 1;

        let primary = self.cluster.collector_of(&key);
        if self.cluster.health(primary).reachable() {
            let policy = self.config.policy;
            let collector = self
                .cluster
                .collector_mut(primary)
                .expect("collector_of names a cluster member");
            let start = Instant::now();
            black_box(collector.query_with_policy(&key, policy));
            self.profile
                .add(Layer::Store, start.elapsed().as_nanos() as u64);
            let explain = collector.query_explain_with_policy(&key, policy);
            self.profile.store_queries += 1;
            if matches!(self.config.primitive, PrimitiveSpec::Append { .. }) {
                self.profile.window_reads += 1;
            }
            self.profile.probes_examined += explain.probes.len() as u64;
            self.profile.probes_matched += explain.matched() as u64;
        }
        outcome
    }

    /// Cumulative recovery-sweep statistics.
    pub fn rerepl_stats(&self) -> RereplStats {
        self.cluster.rerepl_stats()
    }

    /// Classify every reported key, as `FatTreeSim::query_all` does.
    pub fn classify_all(&mut self) -> SimReport {
        let mut report = SimReport {
            correct: 0,
            empty: 0,
            error: 0,
            unreachable: 0,
            age_buckets: Vec::new(),
            link: self.tx.stats(),
            nic_writes: self.cluster.total_writes(),
            nic_atomics: self.cluster.total_atomics(),
            drop_histograms: Vec::new(),
            fault_drops: Vec::new(),
        };
        for (tuple, truth) in &self.truths {
            match self.cluster.try_query(&tuple.to_bytes()) {
                Err(_) => report.unreachable += 1,
                Ok(outcome) => match classify(&outcome, truth) {
                    QueryClass::Correct => report.correct += 1,
                    QueryClass::EmptyReturn => report.empty += 1,
                    QueryClass::ReturnError => report.error += 1,
                },
            }
        }
        report
    }
}

/// Replay the NIC's iCRC verification on one frame; returns its time.
fn icrc_probe(frame: &[u8]) -> u64 {
    let Ok(eth) = ethernet::Frame::new_checked(frame) else {
        return 0;
    };
    let Ok(ip) = ipv4::Packet::new_checked(eth.payload()) else {
        return 0;
    };
    let Ok(dgram) = udp::Datagram::new_checked(ip.payload()) else {
        return 0;
    };
    let udp_header = &ip.payload()[..udp::HEADER_LEN];
    let start = Instant::now();
    let verdict = icrc::verify(ip.header_bytes(), udp_header, dgram.payload());
    let ns = start.elapsed().as_nanos() as u64;
    black_box(verdict.is_ok());
    ns
}
