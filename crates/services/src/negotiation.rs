//! QoS negotiation: establishing, renegotiating and releasing agreements.
//!
//! §3 of the paper: "each QoS agreement has to be negotiated
//! independently. Moreover, varying resource availability should be
//! addressed through adaption, i.e. renegotiations if the resource
//! availability in- or decreases." The negotiation servant runs next to
//! the application objects; a successful negotiation performs the Fig. 2
//! *delegate exchange* on the woven servant. A capacity model per
//! characteristic makes rejection — and therefore preference-driven
//! adaptation — observable.
//!
//! Because negotiation requests travel as plain GIOP (Fig. 3's unbound
//! fallback path), no QoS machinery is needed to bootstrap QoS.

use orb::sync::{LockRank, OrderedRwLock};
use crate::contract::{ContractHierarchy, Offer};
use crate::monitoring::Monitor;
use orb::giop::QosContext;
use orb::{Any, FlightEventKind, Orb, OrbError, Servant};
use netsim::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use weaver::WovenServant;

/// Conventional object key the negotiation servant is activated under.
pub const NEGOTIATOR_KEY: &str = "negotiator";

/// Repository id of the negotiation interface.
pub const NEGOTIATOR_INTERFACE: &str = "IDL:maqs/Negotiator:1.0";

/// An established QoS agreement.
#[derive(Debug, Clone, PartialEq)]
pub struct Agreement {
    /// Server-assigned agreement id.
    pub id: u64,
    /// The object the agreement covers.
    pub object: String,
    /// The negotiated characteristic.
    pub characteristic: String,
    /// The agreed parameter values.
    pub params: Vec<(String, Any)>,
    /// Version, bumped by each renegotiation.
    pub version: u64,
}

impl Agreement {
    /// The wire [`QosContext`] clients attach to calls under this
    /// agreement.
    pub fn to_context(&self) -> QosContext {
        QosContext::with_params(self.characteristic.clone(), &self.params)
            .with_param("_agreement_id", Any::ULongLong(self.id))
    }

    /// Encode as a self-describing [`Any`] — the wire form returned by
    /// the negotiation and introspection servants.
    pub fn to_any(&self) -> Any {
        Any::Struct(
            "Agreement".to_string(),
            vec![
                ("id".to_string(), Any::ULongLong(self.id)),
                ("object".to_string(), Any::Str(self.object.clone())),
                ("characteristic".to_string(), Any::Str(self.characteristic.clone())),
                ("version".to_string(), Any::ULongLong(self.version)),
                (
                    "params".to_string(),
                    Any::Struct("Params".to_string(), self.params.clone()),
                ),
            ],
        )
    }

    /// Decode the [`Agreement::to_any`] wire form.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on missing fields or a malformed params
    /// struct.
    pub fn from_any(v: &Any) -> Result<Agreement, OrbError> {
        let field = |name: &str| {
            v.field(name)
                .cloned()
                .ok_or_else(|| OrbError::Marshal(format!("Agreement missing field {name}")))
        };
        let params = match field("params")? {
            Any::Struct(_, fields) => fields,
            _ => return Err(OrbError::Marshal("Agreement params must be a struct".to_string())),
        };
        Ok(Agreement {
            id: field("id")?.as_i64().unwrap_or(0) as u64,
            object: field("object")?.as_str().unwrap_or_default().to_string(),
            characteristic: field("characteristic")?.as_str().unwrap_or_default().to_string(),
            version: field("version")?.as_i64().unwrap_or(0) as u64,
            params,
        })
    }
}

struct ObjectEntry {
    woven: Arc<WovenServant>,
    /// Capacity (max concurrent agreements) per characteristic.
    capacity: HashMap<String, usize>,
    /// Live agreement count per characteristic.
    active: HashMap<String, usize>,
}

/// The server-side negotiation servant.
///
/// Wire operations:
///
/// * `offer(object)` → `sequence<string>` of characteristics with free
///   capacity that are compatible with the object's current state
/// * `negotiate(object, characteristic, params-struct)` → `Agreement`
/// * `renegotiate(agreement_id, params-struct)` → `Agreement` (version+1)
/// * `release(agreement_id)` → `void`
/// * `capacity(object, characteristic)` → remaining slots
pub struct NegotiationServant {
    objects: OrderedRwLock<HashMap<String, ObjectEntry>>,
    agreements: OrderedRwLock<HashMap<u64, Agreement>>,
    next_id: AtomicU64,
    monitor: OrderedRwLock<Option<Arc<Monitor>>>,
}

impl Default for NegotiationServant {
    fn default() -> NegotiationServant {
        NegotiationServant {
            objects: OrderedRwLock::new(LockRank::NegotiationObjects, HashMap::new()),
            agreements: OrderedRwLock::new(LockRank::NegotiationAgreements, HashMap::new()),
            next_id: AtomicU64::new(0),
            monitor: OrderedRwLock::new(LockRank::NegotiationMonitor, None),
        }
    }
}

impl NegotiationServant {
    /// An empty negotiator.
    pub fn new() -> NegotiationServant {
        NegotiationServant { next_id: AtomicU64::new(1), ..NegotiationServant::default() }
    }

    /// Put `object` under negotiation control. `capacity` bounds
    /// concurrent agreements per characteristic; characteristics absent
    /// from the map are unlimited (if installed on the woven servant).
    pub fn register_object(
        &self,
        object: impl Into<String>,
        woven: Arc<WovenServant>,
        capacity: HashMap<String, usize>,
    ) {
        self.objects.write().insert(
            object.into(),
            ObjectEntry { woven, capacity, active: HashMap::new() },
        );
    }

    /// Shrink a characteristic's capacity at runtime (resource decrease).
    /// Existing agreements stay valid; new ones see the lower bound.
    pub fn set_capacity(&self, object: &str, characteristic: &str, capacity: usize) {
        if let Some(entry) = self.objects.write().get_mut(object) {
            entry.capacity.insert(characteristic.to_string(), capacity);
        }
    }

    /// Number of live agreements.
    pub fn live_agreements(&self) -> usize {
        self.agreements.read().len()
    }

    /// Every live agreement, sorted by id. This is what the
    /// introspection servant's `agreements` operation ships to the
    /// telemetry plane, where each agreement's parameters become SLO
    /// objectives.
    pub fn agreements(&self) -> Vec<Agreement> {
        let mut out: Vec<Agreement> = self.agreements.read().values().cloned().collect();
        out.sort_by_key(|a| a.id);
        out
    }

    /// Attach a [`Monitor`]: from now on every concluded or renegotiated
    /// agreement [installs](Monitor::install) the bounds its parameters
    /// state, and releasing it removes them.
    pub fn set_monitor(&self, monitor: Arc<Monitor>) {
        *self.monitor.write() = Some(monitor);
    }

    /// Make `params` the monitored bounds on `object` (none when empty).
    fn install_bounds(&self, object: &str, params: &[(String, Any)]) {
        if let Some(monitor) = self.monitor.read().clone() {
            monitor.install(object, params);
        }
    }

    fn offers_for(&self, object: &str) -> Result<Vec<String>, OrbError> {
        let objects = self.objects.read();
        let entry = objects
            .get(object)
            .ok_or_else(|| OrbError::ObjectNotExist(format!("negotiable object {object}")))?;
        let installed = entry.woven.installed_characteristics();
        let active_char = entry.woven.active_characteristic();
        Ok(installed
            .into_iter()
            .filter(|c| {
                // One active characteristic per object: offers are the
                // active one (if capacity remains) or, when idle, all.
                match &active_char {
                    Some(a) if a != c && total_active(&entry.active) > 0 => false,
                    _ => remaining(entry, c) > 0,
                }
            })
            .collect())
    }

    fn negotiate(
        &self,
        object: &str,
        characteristic: &str,
        params: Vec<(String, Any)>,
    ) -> Result<Agreement, OrbError> {
        let mut objects = self.objects.write();
        let entry = objects
            .get_mut(object)
            .ok_or_else(|| OrbError::ObjectNotExist(format!("negotiable object {object}")))?;
        if !entry.woven.installed_characteristics().iter().any(|c| c == characteristic) {
            return Err(OrbError::QosViolation(format!(
                "`{characteristic}` is not available on `{object}`"
            )));
        }
        if let Some(active) = entry.woven.active_characteristic() {
            if active != characteristic && total_active(&entry.active) > 0 {
                return Err(OrbError::QosViolation(format!(
                    "`{object}` is operating under `{active}`; release those agreements first"
                )));
            }
        }
        if remaining(entry, characteristic) == 0 {
            return Err(OrbError::QosViolation(format!(
                "no capacity left for `{characteristic}` on `{object}`"
            )));
        }
        entry.woven.negotiate(characteristic)?;
        *entry.active.entry(characteristic.to_string()).or_insert(0) += 1;
        let agreement = Agreement {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            object: object.to_string(),
            characteristic: characteristic.to_string(),
            params,
            version: 1,
        };
        self.agreements.write().insert(agreement.id, agreement.clone());
        self.install_bounds(&agreement.object, &agreement.params);
        Ok(agreement)
    }

    fn renegotiate(&self, id: u64, params: Vec<(String, Any)>) -> Result<Agreement, OrbError> {
        let updated = {
            let mut agreements = self.agreements.write();
            let agreement = agreements
                .get_mut(&id)
                .ok_or_else(|| OrbError::ObjectNotExist(format!("agreement {id}")))?;
            agreement.params = params;
            agreement.version += 1;
            agreement.clone()
        };
        self.install_bounds(&updated.object, &updated.params);
        Ok(updated)
    }

    fn release(&self, id: u64) -> Result<(), OrbError> {
        let agreement = self
            .agreements
            .write()
            .remove(&id)
            .ok_or_else(|| OrbError::ObjectNotExist(format!("agreement {id}")))?;
        let mut objects = self.objects.write();
        if let Some(entry) = objects.get_mut(&agreement.object) {
            if let Some(n) = entry.active.get_mut(&agreement.characteristic) {
                *n = n.saturating_sub(1);
            }
            if total_active(&entry.active) == 0 {
                entry.woven.release();
            }
        }
        self.install_bounds(&agreement.object, &[]);
        Ok(())
    }
}

fn total_active(active: &HashMap<String, usize>) -> usize {
    active.values().sum()
}

fn remaining(entry: &ObjectEntry, characteristic: &str) -> usize {
    let used = entry.active.get(characteristic).copied().unwrap_or(0);
    match entry.capacity.get(characteristic) {
        Some(cap) => cap.saturating_sub(used),
        None => usize::MAX,
    }
}

fn params_from_any(v: Option<&Any>) -> Vec<(String, Any)> {
    match v {
        Some(Any::Struct(_, fields)) => fields.clone(),
        _ => Vec::new(),
    }
}

impl Servant for NegotiationServant {
    fn interface_id(&self) -> &str {
        NEGOTIATOR_INTERFACE
    }

    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        let str_arg = |i: usize| {
            args.get(i)
                .and_then(Any::as_str)
                .map(str::to_string)
                .ok_or_else(|| OrbError::BadParam(format!("{op}: argument {i} must be a string")))
        };
        let id_arg = |i: usize| {
            args.get(i)
                .and_then(Any::as_i64)
                .map(|v| v as u64)
                .ok_or_else(|| OrbError::BadParam(format!("{op}: argument {i} must be an id")))
        };
        match op {
            "offer" => {
                let object = str_arg(0)?;
                Ok(Any::Sequence(
                    self.offers_for(&object)?.into_iter().map(Any::Str).collect(),
                ))
            }
            "negotiate" => {
                let object = str_arg(0)?;
                let characteristic = str_arg(1)?;
                let params = params_from_any(args.get(2));
                Ok(self.negotiate(&object, &characteristic, params)?.to_any())
            }
            "renegotiate" => {
                let id = id_arg(0)?;
                let params = params_from_any(args.get(1));
                Ok(self.renegotiate(id, params)?.to_any())
            }
            "release" => {
                self.release(id_arg(0)?)?;
                Ok(Any::Void)
            }
            "capacity" => {
                let object = str_arg(0)?;
                let characteristic = str_arg(1)?;
                let objects = self.objects.read();
                let entry = objects
                    .get(&object)
                    .ok_or_else(|| OrbError::ObjectNotExist(object.clone()))?;
                let r = remaining(entry, &characteristic);
                Ok(Any::ULongLong(r.min(u64::MAX as usize) as u64))
            }
            other => Err(OrbError::BadOperation(other.to_string())),
        }
    }
}

/// The client-side negotiation helper.
#[derive(Debug, Clone)]
pub struct Negotiator {
    orb: Orb,
}

impl Negotiator {
    /// A negotiator invoking through `orb`.
    pub fn new(orb: Orb) -> Negotiator {
        Negotiator { orb }
    }

    fn negotiator_ior(server: NodeId) -> orb::Ior {
        orb::Ior::new(NEGOTIATOR_INTERFACE, server, NEGOTIATOR_KEY)
    }

    /// Characteristics currently offered for `object` on `server`.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn offers(&self, server: NodeId, object: &str) -> Result<Vec<String>, OrbError> {
        let reply =
            self.orb.invoke(&Self::negotiator_ior(server), "offer", &[Any::from(object)])?;
        Ok(reply
            .as_sequence()
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect())
    }

    /// Negotiate one concrete offer.
    ///
    /// # Errors
    ///
    /// [`OrbError::QosViolation`] when the server rejects (no capacity,
    /// conflicting active characteristic, not installed).
    pub fn negotiate_offer(
        &self,
        server: NodeId,
        object: &str,
        offer: &Offer,
    ) -> Result<Agreement, OrbError> {
        let params = Any::Struct("Params".to_string(), offer.params.clone());
        let reply = self.orb.invoke(
            &Self::negotiator_ior(server),
            "negotiate",
            &[Any::from(object), Any::from(offer.characteristic.as_str()), params],
        );
        self.note_outcome("negotiate", object, &offer.characteristic, reply.is_ok());
        Agreement::from_any(&reply?)
    }

    /// Negotiate the best satisfiable alternative of a client preference
    /// hierarchy, adapting when the server rejects: rejected
    /// characteristics are marked infeasible and the hierarchy is
    /// re-resolved, until agreement or exhaustion.
    ///
    /// Returns the concluded agreements and the achieved utility.
    ///
    /// # Errors
    ///
    /// [`OrbError::QosViolation`] if no alternative can be satisfied.
    pub fn negotiate_preferences(
        &self,
        server: NodeId,
        object: &str,
        preferences: &ContractHierarchy,
    ) -> Result<(Vec<Agreement>, f64), OrbError> {
        let offered = self.offers(server, object)?;
        let mut rejected: Vec<String> = Vec::new();
        loop {
            let feasible = |o: &Offer| {
                offered.iter().any(|c| c == &o.characteristic)
                    && !rejected.contains(&o.characteristic)
            };
            let Some((offers, utility)) = preferences.resolve(&feasible) else {
                return Err(OrbError::QosViolation(format!(
                    "no satisfiable alternative in `{}` for `{object}`",
                    preferences.name
                )));
            };
            let mut agreements = Vec::new();
            let mut failed = None;
            for offer in &offers {
                match self.negotiate_offer(server, object, offer) {
                    Ok(a) => agreements.push(a),
                    Err(_) => {
                        failed = Some(offer.characteristic.clone());
                        break;
                    }
                }
            }
            match failed {
                None => return Ok((agreements, utility)),
                Some(characteristic) => {
                    // Roll back partial progress, mark and re-resolve.
                    for a in agreements {
                        let _ = self.release(server, &a);
                    }
                    rejected.push(characteristic);
                }
            }
        }
    }

    /// Renegotiate an agreement's parameters (adaptation).
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn renegotiate(
        &self,
        server: NodeId,
        agreement: &Agreement,
        params: Vec<(String, Any)>,
    ) -> Result<Agreement, OrbError> {
        let reply = self.orb.invoke(
            &Self::negotiator_ior(server),
            "renegotiate",
            &[Any::ULongLong(agreement.id), Any::Struct("Params".to_string(), params)],
        );
        self.note_outcome("renegotiate", &agreement.object, &agreement.characteristic, reply.is_ok());
        Agreement::from_any(&reply?)
    }

    /// Release an agreement.
    ///
    /// # Errors
    ///
    /// Propagates remote failures.
    pub fn release(&self, server: NodeId, agreement: &Agreement) -> Result<(), OrbError> {
        let reply = self
            .orb
            .invoke(&Self::negotiator_ior(server), "release", &[Any::ULongLong(agreement.id)]);
        self.note_outcome("release", &agreement.object, &agreement.characteristic, reply.is_ok());
        reply?;
        Ok(())
    }

    /// Land the negotiation outcome in the client ORB's flight recorder,
    /// so black-box dumps show which agreements were in force when a
    /// failure hit.
    fn note_outcome(&self, verb: &str, object: &str, characteristic: &str, ok: bool) {
        self.orb.flight().record_detail(
            FlightEventKind::Negotiation,
            "negotiation",
            None,
            format!("{verb} {characteristic}@{object}: {}", if ok { "ok" } else { "rejected" }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::ContractNode;
    use netsim::Network;
    use qosmech::replication::ReplicationQosImpl;
    use qosmech::actuality::FreshnessStampQosImpl;

    struct Value;
    impl Servant for Value {
        fn interface_id(&self) -> &str {
            "IDL:Store:1.0"
        }
        fn dispatch(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "get" => Ok(Any::Long(7)),
                _ => Err(OrbError::BadOperation(op.to_string())),
            }
        }
    }

    const SPEC: &str = r#"
        interface Store with qos Replication, Actuality {
            long get();
        };
    "#;

    fn woven() -> Arc<WovenServant> {
        let mut repo = qosmech::specs::standard_repository();
        repo.load(&qidl::parser::parse(&qidl::lexer::lex(SPEC).unwrap()).unwrap()).unwrap();
        let woven = WovenServant::new(Arc::new(Value), Arc::new(repo), "Store");
        woven.install_qos(Arc::new(ReplicationQosImpl::new())).unwrap();
        woven.install_qos(Arc::new(FreshnessStampQosImpl::new())).unwrap();
        Arc::new(woven)
    }

    fn setup(capacity: usize) -> (Network, Orb, Orb, Arc<WovenServant>, Arc<NegotiationServant>) {
        let net = Network::new(1);
        let server = Orb::start(&net, "server");
        let client = Orb::start(&net, "client");
        let w = woven();
        let negotiator = Arc::new(NegotiationServant::new());
        negotiator.register_object(
            "store",
            Arc::clone(&w),
            HashMap::from([("Replication".to_string(), capacity)]),
        );
        server
            .adapter()
            .activate(NEGOTIATOR_KEY, Arc::clone(&negotiator) as Arc<dyn Servant>);
        (net, server, client, w, negotiator)
    }

    #[test]
    fn negotiate_activates_delegate_and_release_clears_it() {
        let (_net, server, client, w, negotiator) = setup(2);
        let n = Negotiator::new(client.clone());
        assert_eq!(n.offers(server.node(), "store").unwrap().len(), 2);
        let a = n
            .negotiate_offer(server.node(), "store", &Offer::new("Replication", 1.0))
            .unwrap();
        assert_eq!(w.active_characteristic().as_deref(), Some("Replication"));
        assert_eq!(a.version, 1);
        assert_eq!(negotiator.live_agreements(), 1);
        n.release(server.node(), &a).unwrap();
        assert_eq!(w.active_characteristic(), None);
        assert_eq!(negotiator.live_agreements(), 0);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn capacity_exhaustion_rejects() {
        let (_net, server, client, _w, _neg) = setup(1);
        let n = Negotiator::new(client.clone());
        let offer = Offer::new("Replication", 1.0);
        let _a = n.negotiate_offer(server.node(), "store", &offer).unwrap();
        let err = n.negotiate_offer(server.node(), "store", &offer).unwrap_err();
        assert!(matches!(err, OrbError::QosViolation(_)));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn conflicting_characteristic_rejected_while_active() {
        let (_net, server, client, _w, _neg) = setup(5);
        let n = Negotiator::new(client.clone());
        let a = n
            .negotiate_offer(server.node(), "store", &Offer::new("Replication", 1.0))
            .unwrap();
        // Actuality conflicts with the active Replication agreements.
        let err = n
            .negotiate_offer(server.node(), "store", &Offer::new("Actuality", 1.0))
            .unwrap_err();
        assert!(matches!(err, OrbError::QosViolation(_)));
        // Offers shrink to the active characteristic.
        assert_eq!(n.offers(server.node(), "store").unwrap(), vec!["Replication"]);
        // After release, the other characteristic becomes negotiable.
        n.release(server.node(), &a).unwrap();
        n.negotiate_offer(server.node(), "store", &Offer::new("Actuality", 1.0)).unwrap();
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn preference_hierarchy_adapts_on_rejection() {
        let (_net, server, client, w, negotiator) = setup(0); // Replication capacity 0
        let n = Negotiator::new(client.clone());
        let prefs = ContractHierarchy::new(
            "availability-then-freshness",
            ContractNode::Any(vec![
                ContractNode::Leaf(Offer::new("Replication", 10.0)),
                ContractNode::Leaf(Offer::new("Actuality", 4.0)),
            ]),
        );
        let (agreements, utility) =
            n.negotiate_preferences(server.node(), "store", &prefs).unwrap();
        assert_eq!(agreements.len(), 1);
        assert_eq!(agreements[0].characteristic, "Actuality");
        assert_eq!(utility, 4.0);
        assert_eq!(w.active_characteristic().as_deref(), Some("Actuality"));
        // Nothing satisfiable => error.
        negotiator.set_capacity("store", "Actuality", 0);
        let n2 = Negotiator::new(client.clone());
        let lone = ContractHierarchy::new(
            "only-replication",
            ContractNode::Leaf(Offer::new("Replication", 1.0)),
        );
        assert!(n2.negotiate_preferences(server.node(), "store", &lone).is_err());
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn renegotiation_bumps_version() {
        let (_net, server, client, _w, _neg) = setup(2);
        let n = Negotiator::new(client.clone());
        let a = n
            .negotiate_offer(
                server.node(),
                "store",
                &Offer::new("Replication", 1.0).with_param("replicas", Any::ULong(3)),
            )
            .unwrap();
        assert_eq!(a.params[0].1, Any::ULong(3));
        let a2 = n
            .renegotiate(server.node(), &a, vec![("replicas".to_string(), Any::ULong(5))])
            .unwrap();
        assert_eq!(a2.version, 2);
        assert_eq!(a2.params[0].1, Any::ULong(5));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn agreement_any_roundtrip_and_context() {
        let a = Agreement {
            id: 9,
            object: "store".to_string(),
            characteristic: "Actuality".to_string(),
            params: vec![("validity_ms".to_string(), Any::ULongLong(100))],
            version: 3,
        };
        let back = Agreement::from_any(&a.to_any()).unwrap();
        assert_eq!(back, a);
        let ctx = a.to_context();
        assert_eq!(ctx.characteristic, "Actuality");
        assert_eq!(ctx.param("validity_ms"), Some(&Any::ULongLong(100)));
        assert_eq!(ctx.param("_agreement_id"), Some(&Any::ULongLong(9)));
    }

    #[test]
    fn agreement_params_drive_monitor_rules() {
        let (_net, server, client, _w, negotiator) = setup(2);
        let monitor = Arc::new(Monitor::new(8));
        negotiator.set_monitor(Arc::clone(&monitor));
        let n = Negotiator::new(client.clone());
        let a = n
            .negotiate_offer(
                server.node(),
                "store",
                &Offer::new("Replication", 1.0)
                    .with_param("deadline_ms", Any::ULongLong(2))
                    .with_param("availability", Any::Double(0.9)),
            )
            .unwrap();
        // Measured latency above the agreed 2 ms deadline violates.
        assert!(monitor.record("store", "latency_us", 1_500.0).is_empty());
        assert_eq!(monitor.record("store", "latency_us", 5_000.0).len(), 1);
        // Availability floor: three failures drag the mean below 0.9.
        monitor.record("store", "availability", 1.0);
        assert!(!monitor.record("store", "availability", 0.0).is_empty());

        // Renegotiating replaces the bounds: a looser deadline silences
        // the previous rule.
        n.renegotiate(
            server.node(),
            &a,
            vec![("deadline_ms".to_string(), Any::ULongLong(100))],
        )
        .unwrap();
        assert!(monitor.record("store", "latency_us", 5_000.0).is_empty());
        // ...and the availability rule is gone (not part of the new terms).
        assert!(monitor.record("store", "availability", 0.0).is_empty());
        // No rule of version 1 lingers beside the new one: a sample past
        // both deadlines violates exactly once, against the 100 ms bound.
        let past_both = monitor.record("store", "latency_us", 200_000.0);
        assert_eq!(past_both.len(), 1, "{past_both:?}");
        assert_eq!(past_both[0].threshold, 100_000.0);

        // Release removes all agreed bounds.
        n.release(server.node(), &a).unwrap();
        assert!(monitor.record("store", "latency_us", 1_000_000.0).is_empty());
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn unknown_objects_and_agreements_error() {
        let (_net, server, client, _w, _neg) = setup(1);
        let n = Negotiator::new(client.clone());
        assert!(n.offers(server.node(), "ghost").is_err());
        assert!(n
            .negotiate_offer(server.node(), "ghost", &Offer::new("Replication", 1.0))
            .is_err());
        let fake = Agreement {
            id: 999,
            object: "store".to_string(),
            characteristic: "Replication".to_string(),
            params: vec![],
            version: 1,
        };
        assert!(n.release(server.node(), &fake).is_err());
        assert!(n.renegotiate(server.node(), &fake, vec![]).is_err());
        server.shutdown();
        client.shutdown();
    }
}
