//! [`MaqsNode`]: one node's worth of the MAQS stack, wired together.

use crate::error::Error;
use crate::heal::{AdaptationEngine, SelfHealingPolicy};
use netsim::Network;
use orb::{Ior, MetricsSnapshot, Orb, OrbError, Servant, WireTransport};
use parking_lot::RwLock;
use qidl::InterfaceRepository;
use services::introspection::{BindingInfo, IntrospectionServant, Introspector, INTROSPECTION_KEY};
use services::monitoring::Monitor;
use services::naming::{NamingService, NAMING_KEY};
use services::negotiation::{NegotiationServant, NEGOTIATOR_KEY};
use services::trading::{Trader, TRADER_KEY};
use services::Negotiator;
use std::collections::HashMap;
use std::sync::Arc;
use weaver::{ClientStub, QosImplementation, WovenServant};

/// Whether [`MaqsNode::serve`] refuses deployments the static analysis
/// can prove broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Run the deployment lints (`QL101`–`QL107`) before activating and
    /// refuse (with JSON diagnostics in the error) on lint errors.
    Enforce,
    /// Activate without gating (the default); lints stay available
    /// through [`MaqsNode::lint_deployment`].
    #[default]
    Skip,
}

/// Options for [`MaqsNode::serve`]: which QIDL interface the servant
/// implements, plus the optional QoS machinery to weave around it.
pub struct ServeOptions {
    interface: String,
    qos_impls: Vec<Arc<dyn QosImplementation>>,
    capacity: HashMap<String, usize>,
    lint: LintPolicy,
}

impl ServeOptions {
    /// Options for a servant implementing QIDL interface `interface`,
    /// with no QoS implementations, no negotiation capacities, and the
    /// default [`LintPolicy`].
    pub fn interface(interface: impl Into<String>) -> ServeOptions {
        ServeOptions {
            interface: interface.into(),
            qos_impls: Vec::new(),
            capacity: HashMap::new(),
            lint: LintPolicy::default(),
        }
    }

    /// Install a QoS implementation on the woven servant (may be called
    /// repeatedly; order is irrelevant).
    pub fn qos_impl(mut self, qos_impl: Arc<dyn QosImplementation>) -> ServeOptions {
        self.qos_impls.push(qos_impl);
        self
    }

    /// Bound concurrent agreements for `characteristic` to `slots` and
    /// register the object for negotiation under that bound.
    pub fn capacity(mut self, characteristic: impl Into<String>, slots: usize) -> ServeOptions {
        self.capacity.insert(characteristic.into(), slots);
        self
    }

    /// Override the deployment-lint gate.
    pub fn lint_policy(mut self, policy: LintPolicy) -> ServeOptions {
        self.lint = policy;
        self
    }
}

/// Where a node's ORB gets its bytes moved: the deterministic
/// simulator (the default for tests and benches) or a real
/// socket-backed [`WireTransport`] (TCP / Unix sockets).
enum NetSource<'a> {
    Sim(&'a Network),
    Wire(Arc<dyn WireTransport>),
}

/// Builder for a [`MaqsNode`].
pub struct MaqsNodeBuilder<'a> {
    source: NetSource<'a>,
    name: String,
    config: orb::OrbConfig,
    specs: Vec<String>,
    standard_qos: bool,
}

impl<'a> MaqsNodeBuilder<'a> {
    /// Add a QIDL compilation unit (may reference the standard QoS
    /// characteristics, which are preloaded unless disabled).
    pub fn spec(mut self, source: &str) -> Self {
        self.specs.push(source.to_string());
        self
    }

    /// Override the ORB configuration.
    pub fn orb_config(mut self, config: orb::OrbConfig) -> Self {
        self.config = config;
        self
    }

    /// Skip preloading [`qosmech::specs::QOS_SPECS`].
    pub fn without_standard_qos(mut self) -> Self {
        self.standard_qos = false;
        self
    }

    /// Start the node: ORB threads, negotiation servant, trader.
    ///
    /// # Errors
    ///
    /// Fails if any provided spec does not compile or load.
    pub fn build(self) -> Result<MaqsNode, qidl::QidlError> {
        let mut repo = if self.standard_qos {
            qosmech::specs::standard_repository()
        } else {
            InterfaceRepository::new()
        };
        for src in &self.specs {
            let tokens = qidl::lexer::lex(src)?;
            let spec = qidl::parser::parse(&tokens)?;
            repo.load(&spec)?;
        }
        let orb = match self.source {
            NetSource::Sim(net) => Orb::start_with(net, &self.name, self.config),
            NetSource::Wire(wire) => Orb::start_wire(wire, &self.name, self.config),
        };
        let negotiation = Arc::new(NegotiationServant::new());
        let trader = Arc::new(Trader::new());
        let naming = Arc::new(NamingService::new());
        let monitor = Arc::new(Monitor::new(64));
        negotiation.set_monitor(Arc::clone(&monitor));
        orb.adapter().activate(NEGOTIATOR_KEY, Arc::clone(&negotiation) as Arc<dyn Servant>);
        orb.adapter().activate(TRADER_KEY, Arc::clone(&trader) as Arc<dyn Servant>);
        orb.adapter().activate(NAMING_KEY, Arc::clone(&naming) as Arc<dyn Servant>);
        let woven: Arc<RwLock<HashMap<String, Arc<WovenServant>>>> =
            Arc::new(RwLock::new(HashMap::new()));
        let introspection = Arc::new(IntrospectionServant::new(orb.clone()));
        let bindings_view = Arc::clone(&woven);
        introspection.set_bindings_provider(Arc::new(move || {
            let mut infos: Vec<BindingInfo> = bindings_view
                .read()
                .iter()
                .map(|(key, w)| BindingInfo {
                    object: key.clone(),
                    interface: w.interface_id().to_string(),
                    characteristics: w.installed_characteristics(),
                })
                .collect();
            infos.sort_by(|a, b| a.object.cmp(&b.object));
            infos
        }));
        // Expose the live agreement set over introspection so a cluster
        // telemetry aggregator can derive SLO objectives from it.
        let agreements_view = Arc::clone(&negotiation);
        introspection.set_agreements_provider(Arc::new(move || agreements_view.agreements()));
        orb.adapter().activate(INTROSPECTION_KEY, Arc::clone(&introspection) as Arc<dyn Servant>);
        Ok(MaqsNode {
            orb,
            repo: Arc::new(repo),
            negotiation,
            trader,
            naming,
            monitor,
            woven,
            capacities: RwLock::new(HashMap::new()),
            healing: RwLock::new(None),
        })
    }
}

/// A MAQS runtime node: ORB + interface repository + infrastructure
/// services, with helpers for weaving servants and negotiating QoS.
pub struct MaqsNode {
    orb: Orb,
    repo: Arc<InterfaceRepository>,
    negotiation: Arc<NegotiationServant>,
    trader: Arc<Trader>,
    naming: Arc<NamingService>,
    monitor: Arc<Monitor>,
    woven: Arc<RwLock<HashMap<String, Arc<WovenServant>>>>,
    capacities: RwLock<HashMap<String, Vec<String>>>,
    healing: RwLock<Option<Arc<AdaptationEngine>>>,
}

impl MaqsNode {
    /// Start building a node attached to `net`.
    pub fn builder<'a>(net: &'a Network, name: &str) -> MaqsNodeBuilder<'a> {
        MaqsNodeBuilder {
            source: NetSource::Sim(net),
            name: name.to_string(),
            config: orb::OrbConfig::default(),
            specs: Vec::new(),
            standard_qos: true,
        }
    }

    /// Start building a node whose ORB runs over an already-bound wire
    /// transport (e.g. [`orb::TcpTransport`] or [`orb::UdsTransport`])
    /// instead of the simulator — the entry point for real two-process
    /// deployments.
    pub fn builder_wire(wire: Arc<dyn WireTransport>, name: &str) -> MaqsNodeBuilder<'static> {
        MaqsNodeBuilder {
            source: NetSource::Wire(wire),
            name: name.to_string(),
            config: orb::OrbConfig::default(),
            specs: Vec::new(),
            standard_qos: true,
        }
    }

    /// The node's ORB.
    pub fn orb(&self) -> &Orb {
        &self.orb
    }

    /// The node's (frozen) interface repository.
    pub fn repository(&self) -> &Arc<InterfaceRepository> {
        &self.repo
    }

    /// The node's negotiation servant (server-side agreement control).
    pub fn negotiation(&self) -> &Arc<NegotiationServant> {
        &self.negotiation
    }

    /// The node's trader.
    pub fn trader(&self) -> &Arc<Trader> {
        &self.trader
    }

    /// The node's naming service.
    pub fn naming(&self) -> &Arc<NamingService> {
        &self.naming
    }

    /// A client-side [`Negotiator`] speaking through this node's ORB.
    pub fn negotiator(&self) -> Negotiator {
        Negotiator::new(self.orb.clone())
    }

    /// A client-side [`Introspector`] speaking through this node's ORB:
    /// pulls metrics snapshots, flight-recorder tails, health counters
    /// and the woven-deployment shape from any peer node.
    pub fn introspector(&self) -> Introspector {
        Introspector::new(self.orb.clone())
    }

    /// Weave `servant` per `options`, activate it under `key`, and start
    /// observing it: every application request through the woven
    /// skeleton feeds `latency_us` and `availability` measurements into
    /// this node's [`Monitor`], so negotiated bounds (deadline,
    /// availability) are checked against real traffic.
    ///
    /// The returned IOR carries the interface's assigned characteristics
    /// as QoS tags.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadParam`] for unknown interfaces;
    /// [`OrbError::QosViolation`] if an implementation's characteristic
    /// is not assigned to the interface, or (under
    /// [`LintPolicy::Enforce`]) if the deployment lints report errors —
    /// the violation message is then the JSON diagnostics.
    pub fn serve(
        &self,
        key: &str,
        servant: Arc<dyn Servant>,
        options: ServeOptions,
    ) -> Result<Ior, Error> {
        let interface_name = options.interface.as_str();
        let iface = self
            .repo
            .interface(interface_name)
            .ok_or_else(|| {
                OrbError::BadParam(format!("interface `{interface_name}` not in repository"))
            })?
            .clone();
        let woven = Arc::new(WovenServant::new(servant, Arc::clone(&self.repo), interface_name));
        for qi in options.qos_impls {
            woven.install_qos(qi)?;
        }
        let mut capacity_tags: Vec<String> = options.capacity.keys().cloned().collect();
        capacity_tags.sort();
        if options.lint == LintPolicy::Enforce {
            // Refuse to serve a deployment the static analysis can prove
            // broken (e.g. negotiation capacity for a characteristic that
            // can never be negotiated).
            let candidate = qoslint::deploy::DeploymentView {
                servants: vec![qoslint::deploy::ServantView {
                    key: key.to_string(),
                    interface: interface_name.to_string(),
                    installed: woven.installed_characteristics(),
                    capacities: capacity_tags.clone(),
                }],
                ..qoslint::deploy::DeploymentView::default()
            };
            let diags = qoslint::deploy::lint_deployment(&self.repo, &candidate);
            if diags.has_errors() {
                return Err(Error::Orb(OrbError::QosViolation(qoslint::render::render_json(
                    None, &diags,
                ))));
            }
        }
        let monitor = Arc::clone(&self.monitor);
        let object = key.to_string();
        // Per-object series for the telemetry plane, names prebuilt so
        // the hot path never formats strings.
        let metrics = self.orb.metrics().clone();
        let requests_series = format!("object.{key}.requests");
        let errors_series = format!("object.{key}.errors");
        let latency_series = format!("object.{key}.latency_us");
        woven.set_request_observer(Some(Arc::new(move |_op: &str, us: u64, ok: bool| {
            monitor.record_call(&object, us, ok);
            metrics.incr(&requests_series);
            if !ok {
                metrics.incr(&errors_series);
            }
            metrics.observe_us(&latency_series, us);
        })));
        self.negotiation.register_object(key, Arc::clone(&woven), options.capacity);
        self.orb.adapter().activate(key, Arc::clone(&woven) as Arc<dyn Servant>);
        self.woven.write().insert(key.to_string(), woven);
        self.capacities.write().insert(key.to_string(), capacity_tags);
        let mut ior = Ior::new(iface.repository_id(), self.orb.node(), key);
        for tag in &iface.qos {
            ior = ior.with_qos_tag(tag.clone());
        }
        // Socket-backed nodes need the listener in the reference so it
        // survives a trip to another process.
        Ok(self.orb.attach_endpoint(ior))
    }

    /// The node's QoS monitor: agreement bounds installed by the
    /// negotiation servant are checked against the measurements
    /// [`MaqsNode::serve`] feeds in.
    pub fn monitor(&self) -> &Arc<Monitor> {
        &self.monitor
    }

    /// A point-in-time snapshot of the per-layer metrics this node's
    /// ORB, transports, and QoS mechanisms have recorded. Render it with
    /// [`crate::report::render_metrics_human`] or
    /// [`crate::report::render_metrics_json`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.orb.metrics().snapshot()
    }

    /// The woven servant under `key`, if any.
    pub fn woven(&self, key: &str) -> Option<Arc<WovenServant>> {
        self.woven.read().get(key).cloned()
    }

    /// Snapshot this node's woven servants as a
    /// [`qoslint::deploy::DeploymentView`] (server side only — merge in
    /// client state with the [`crate::lint`] helpers).
    pub fn deployment_view(&self) -> qoslint::deploy::DeploymentView {
        let woven = self.woven.read();
        let caps = self.capacities.read();
        let mut servants: Vec<qoslint::deploy::ServantView> = woven
            .iter()
            .map(|(key, w)| qoslint::deploy::ServantView {
                key: key.clone(),
                interface: w.interface().to_string(),
                installed: w.installed_characteristics(),
                capacities: caps.get(key).cloned().unwrap_or_default(),
            })
            .collect();
        servants.sort_by(|a, b| a.key.cmp(&b.key));
        // A node with self-healing enabled reports its resilience
        // coverage, turning on the QL107 unguarded-binding check.
        let resilience = self.healing.read().as_ref().map(|engine| {
            qoslint::deploy::ResilienceView { guarded: engine.guarded_objects() }
        });
        qoslint::deploy::DeploymentView {
            servants,
            resilience,
            ..qoslint::deploy::DeploymentView::default()
        }
    }

    /// Run the deployment-level lints (`QL101`–`QL107`) over this
    /// node's current weaving state.
    pub fn lint_deployment(&self) -> qidl::Diagnostics {
        qoslint::deploy::lint_deployment(&self.repo, &self.deployment_view())
    }

    /// A dynamic client stub for `target`, invoking through this node.
    pub fn stub(&self, target: &Ior) -> ClientStub {
        ClientStub::new(self.orb.clone(), target.clone())
    }

    /// Turn on self-healing: an [`AdaptationEngine`] subscribes to this
    /// node's [`Monitor`] and, for every binding later put under
    /// [`AdaptationEngine::guard`], walks `policy`'s degradation ladder
    /// when an agreement violation fires. Calling it again replaces the
    /// stored engine (existing guards keep their old engine alive).
    pub fn enable_self_healing(&self, policy: SelfHealingPolicy) -> Arc<AdaptationEngine> {
        let engine =
            AdaptationEngine::install(self.orb.clone(), Arc::clone(&self.monitor), policy);
        *self.healing.write() = Some(Arc::clone(&engine));
        engine
    }

    /// The self-healing engine, if [`enable_self_healing`] was called.
    ///
    /// [`enable_self_healing`]: MaqsNode::enable_self_healing
    pub fn self_healing(&self) -> Option<Arc<AdaptationEngine>> {
        self.healing.read().clone()
    }

    /// Shut the node's ORB down.
    pub fn shutdown(&self) {
        self.orb.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orb::Any;
    use qosmech::actuality::FreshnessStampQosImpl;
    use qosmech::replication::ReplicationQosImpl;
    use services::{ContractHierarchy, ContractNode, Offer};

    struct Kv(parking_lot::Mutex<HashMap<String, i64>>);
    impl Servant for Kv {
        fn interface_id(&self) -> &str {
            "IDL:Kv:1.0"
        }
        fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "put" => {
                    let k = args[0].as_str().unwrap_or("").to_string();
                    let v = args[1].as_i64().unwrap_or(0);
                    self.0.lock().insert(k, v);
                    Ok(Any::Void)
                }
                "get" => {
                    let k = args[0].as_str().unwrap_or("");
                    Ok(Any::LongLong(self.0.lock().get(k).copied().unwrap_or(0)))
                }
                _ => Err(OrbError::BadOperation(op.to_string())),
            }
        }
    }

    const SPEC: &str = r#"
        interface Kv with qos Replication, Actuality {
            void put(in string key, in long long value);
            long long get(in string key);
        };
    "#;

    fn kv() -> Arc<dyn Servant> {
        Arc::new(Kv(parking_lot::Mutex::new(HashMap::new())))
    }

    #[test]
    fn builder_loads_specs_and_rejects_bad_ones() {
        let net = Network::new(1);
        let node = MaqsNode::builder(&net, "n").spec(SPEC).build().unwrap();
        assert!(node.repository().interface("Kv").is_some());
        assert!(node.repository().qos("Replication").is_some());
        node.shutdown();
        assert!(MaqsNode::builder(&net, "bad").spec("interface {").build().is_err());
        let no_std = MaqsNode::builder(&net, "nostd").without_standard_qos().build().unwrap();
        assert!(no_std.repository().qos("Replication").is_none());
        no_std.shutdown();
    }

    #[test]
    fn woven_service_end_to_end_with_negotiation() {
        let net = Network::new(1);
        let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
        let client = MaqsNode::builder(&net, "client").build().unwrap();

        let ior = server
            .serve(
                "kv",
                kv(),
                ServeOptions::interface("Kv")
                    .qos_impl(Arc::new(ReplicationQosImpl::new()))
                    .qos_impl(Arc::new(FreshnessStampQosImpl::new()))
                    .capacity("Replication", 1),
            )
            .unwrap();
        assert!(ior.offers("Replication") && ior.offers("Actuality"));

        // Plain application traffic works unwoven.
        client.orb().invoke(&ior, "put", &[Any::from("a"), Any::LongLong(5)]).unwrap();
        assert_eq!(client.orb().invoke(&ior, "get", &[Any::from("a")]).unwrap(), Any::LongLong(5));

        // QoS ops require negotiation first (Fig. 2 exception).
        assert!(matches!(
            client.orb().invoke(&ior, "export_state", &[]),
            Err(OrbError::QosNotNegotiated(_))
        ));

        // Negotiate via preferences.
        let prefs = ContractHierarchy::new(
            "p",
            ContractNode::Any(vec![
                ContractNode::Leaf(Offer::new("Replication", 5.0)),
                ContractNode::Leaf(Offer::new("Actuality", 1.0)),
            ]),
        );
        let (agreements, utility) =
            client.negotiator().negotiate_preferences(server.orb().node(), "kv", &prefs).unwrap();
        assert_eq!(utility, 5.0);
        assert_eq!(agreements[0].characteristic, "Replication");
        assert_eq!(
            server.woven("kv").unwrap().active_characteristic().as_deref(),
            Some("Replication")
        );

        // Now the Replication QoS ops answer.
        assert_eq!(
            client.orb().invoke(&ior, "replica_role", &[]).unwrap(),
            Any::Str("follower".into())
        );
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn deployment_lint_flags_missing_impls_but_not_as_errors() {
        let net = Network::new(1);
        let node = MaqsNode::builder(&net, "n").spec(SPEC).build().unwrap();
        node.serve("kv", kv(), ServeOptions::interface("Kv")).unwrap();
        let diags = node.lint_deployment();
        // Replication and Actuality are assigned but not installed.
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == qoslint::codes::MISSING_QOS_IMPL));
        assert!(!diags.has_errors());
        let view = node.deployment_view();
        assert_eq!(view.servants.len(), 1);
        assert_eq!(view.servants[0].interface, "Kv");
        node.shutdown();
    }

    #[test]
    fn complete_deployment_lints_clean() {
        let net = Network::new(1);
        let node = MaqsNode::builder(&net, "n").spec(SPEC).build().unwrap();
        node.serve(
            "kv",
            kv(),
            ServeOptions::interface("Kv")
                .qos_impl(Arc::new(ReplicationQosImpl::new()))
                .qos_impl(Arc::new(FreshnessStampQosImpl::new()))
                .capacity("Replication", 2),
        )
        .unwrap();
        assert!(node.lint_deployment().is_empty());
        assert_eq!(node.deployment_view().servants[0].capacities, vec!["Replication"]);
        node.shutdown();
    }

    #[test]
    fn lint_gate_refuses_unusable_capacity_with_json_diagnostics() {
        let net = Network::new(1);
        let node = MaqsNode::builder(&net, "n").spec(SPEC).build().unwrap();
        // Capacity for an assigned-but-uninstalled characteristic:
        // negotiations would be admitted and then always fail.
        let err = node
            .serve(
                "kv",
                kv(),
                ServeOptions::interface("Kv")
                    .capacity("Replication", 1)
                    .lint_policy(LintPolicy::Enforce),
            )
            .unwrap_err();
        match err {
            Error::Orb(OrbError::QosViolation(json)) => {
                assert!(json.contains("\"code\":\"QL106\""), "{json}");
                assert!(json.contains("never installed"), "{json}");
            }
            other => panic!("expected QosViolation, got {other:?}"),
        }
        // The refused servant was not activated.
        assert!(node.woven("kv").is_none());
        // The same deployment activates when the gate is skipped...
        node.serve(
            "kv-unlinted",
            kv(),
            ServeOptions::interface("Kv")
                .capacity("Replication", 1)
                .lint_policy(LintPolicy::Skip),
        )
        .unwrap();
        // ...and a well-formed one passes the gate.
        node.serve(
            "kv",
            kv(),
            ServeOptions::interface("Kv")
                .qos_impl(Arc::new(ReplicationQosImpl::new()))
                .qos_impl(Arc::new(FreshnessStampQosImpl::new()))
                .capacity("Replication", 1)
                .lint_policy(LintPolicy::Enforce),
        )
        .unwrap();
        node.shutdown();
    }

    #[test]
    fn serve_unknown_interface_fails() {
        let net = Network::new(1);
        let node = MaqsNode::builder(&net, "n").build().unwrap();
        assert!(node.serve("x", kv(), ServeOptions::interface("Ghost")).is_err());
        node.shutdown();
    }

    #[test]
    fn served_requests_feed_the_monitor() {
        let net = Network::new(1);
        let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
        let client = MaqsNode::builder(&net, "client").build().unwrap();
        let ior = server.serve("kv", kv(), ServeOptions::interface("Kv")).unwrap();
        client.orb().invoke(&ior, "put", &[Any::from("k"), Any::LongLong(1)]).unwrap();
        client.orb().invoke(&ior, "get", &[Any::from("k")]).unwrap();
        assert!(server.monitor().mean("kv", "latency_us").is_some());
        assert_eq!(server.monitor().mean("kv", "availability"), Some(1.0));
        // The same observer feeds the per-object telemetry series.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("object.kv.requests"), 2);
        assert_eq!(snap.counter("object.kv.errors"), 0);
        assert_eq!(snap.histogram("object.kv.latency_us").unwrap().count, 2);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn stub_helper_builds_working_stub() {
        let net = Network::new(1);
        let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
        let client = MaqsNode::builder(&net, "client").build().unwrap();
        let ior = server.serve("kv", kv(), ServeOptions::interface("Kv")).unwrap();
        let stub = client.stub(&ior);
        stub.invoke("put", &[Any::from("k"), Any::LongLong(9)]).unwrap();
        let reply = stub.invoke("get", &[Any::from("k")]).unwrap();
        assert_eq!(reply, Any::LongLong(9));
        assert!(reply.trace.is_some(), "stub replies carry a trace");
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn metrics_snapshot_reflects_traffic() {
        let net = Network::new(1);
        let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
        let client = MaqsNode::builder(&net, "client").build().unwrap();
        let ior = server.serve("kv", kv(), ServeOptions::interface("Kv")).unwrap();
        let before = client.metrics_snapshot();
        client.orb().invoke(&ior, "put", &[Any::from("k"), Any::LongLong(3)]).unwrap();
        let after = client.metrics_snapshot();
        assert!(after.counter("orb.requests_sent") > before.counter("orb.requests_sent"));
        assert!(after.dominates(&before));
        server.shutdown();
        client.shutdown();
    }
}
