//! Capstone integration: the complete MAQS story in one test file.
//!
//! Name resolution → trading discovery → preference-driven negotiation →
//! mediator set as the stub's delegate → woven QoS traffic →
//! monitoring → accounting → violation-driven renegotiation → release.
//! Every §2.2 infrastructure service participates.

use maqs::prelude::*;
use parking_lot::Mutex;
use qosmech::actuality::{ActualityMediator, FreshnessStampQosImpl};
use services::accounting::{Accountant, PriceModel};
use services::monitoring::{Bound, Monitor, Statistic};
use services::naming::{bind_name, resolve_name};
use services::trading::query_trader;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const SPEC: &str = r#"
    interface Quotes with qos Actuality {
        double price(in string symbol);
        void set_price(in string symbol, in double value);
    };
"#;

struct Quotes(Mutex<HashMap<String, f64>>);
impl Servant for Quotes {
    fn interface_id(&self) -> &str {
        "IDL:Quotes:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "price" => {
                let sym = args[0].as_str().unwrap_or("");
                Ok(Any::Double(self.0.lock().get(sym).copied().unwrap_or(100.0)))
            }
            "set_price" => {
                let sym = args[0].as_str().unwrap_or("").to_string();
                self.0.lock().insert(sym, args[1].as_double().unwrap_or(0.0));
                Ok(Any::Void)
            }
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

#[test]
fn full_qos_lifecycle() {
    let net = Network::new(99);
    let server = MaqsNode::builder(&net, "exchange").spec(SPEC).build().unwrap();
    let client = MaqsNode::builder(&net, "trader-desk").build().unwrap();

    // --- deploy: weave, register for negotiation, advertise ------------
    let ior = server
        .serve(
            "quotes",
            Arc::new(Quotes(Mutex::new(HashMap::new()))),
            ServeOptions::interface("Quotes")
                .qos_impl(Arc::new(FreshnessStampQosImpl::new()))
                .capacity("Actuality", 4),
        )
        .unwrap();
    bind_name(server.orb(), server.orb().node(), "markets/quotes", &ior).unwrap();
    server.trader().export(services::trading::ServiceOffer {
        type_id: ior.type_id.clone(),
        ior: ior.clone(),
        qos: ior.qos_tags.clone(),
    });

    // --- discover: by name and by required QoS --------------------------
    let by_name = resolve_name(client.orb(), server.orb().node(), "markets/quotes").unwrap();
    assert_eq!(by_name, ior);
    let by_qos =
        query_trader(client.orb(), server.orb().node(), "IDL:Quotes:1.0", &["Actuality"]).unwrap();
    assert_eq!(by_qos, vec![ior.clone()]);

    // --- negotiate via preferences --------------------------------------
    let prefs = ContractHierarchy::new(
        "fresh-quotes",
        ContractNode::Leaf(
            Offer::new("Actuality", 8.0).with_param("validity_ms", Any::ULongLong(50)),
        ),
    );
    let (agreements, utility) = client
        .negotiator()
        .negotiate_preferences(server.orb().node(), "quotes", &prefs)
        .unwrap();
    assert_eq!(utility, 8.0);
    let agreement = agreements.into_iter().next().unwrap();
    assert_eq!(agreement.characteristic, "Actuality");

    // --- set the mediator as the stub's delegate (§3.3) ------------------
    let install = |stub: &ClientStub, agreement: &Agreement| {
        let validity_ms = agreement
            .params
            .iter()
            .find(|(n, _)| n == "validity_ms")
            .and_then(|(_, v)| v.as_i64())
            .unwrap_or(1000) as u64;
        stub.set_mediator(Arc::new(ActualityMediator::new(
            Duration::from_millis(validity_ms),
            vec!["price".to_string()],
        )));
        stub.set_qos_context(Some(agreement.to_context()));
    };
    let stub = client.stub(&ior);
    install(&stub, &agreement);
    assert_eq!(stub.mediator_chain(), vec!["Actuality"]);

    // --- woven traffic with monitoring and accounting -------------------
    let monitor = Monitor::new(32);
    monitor.add_rule("quotes", "latency_us", Statistic::P95, Bound::Max, 500_000.0);
    let accountant = Accountant::new();
    accountant.set_tariff("Actuality", PriceModel { per_call: 0.01, per_byte: 0.0, per_second: 0.0 });

    for _ in 0..20 {
        let start = std::time::Instant::now();
        let price = stub.invoke("price", &[Any::from("ACME")]).unwrap();
        assert!(price.as_double().is_some());
        monitor.record("quotes", "latency_us", start.elapsed().as_secs_f64() * 1e6);
        accountant.record_call(agreement.id, &agreement.characteristic, 16);
    }
    // The cache must have absorbed most reads (50 ms validity, tight loop).
    let hit_ratio = stub
        .qos_op("Actuality", "hit_ratio", &[])
        .unwrap()
        .as_double()
        .unwrap();
    assert!(hit_ratio > 0.8, "hit ratio {hit_ratio}");
    assert!(monitor.p95("quotes", "latency_us").unwrap() < 500_000.0);
    assert_eq!(accountant.invoice(agreement.id).calls, 20);

    // --- adaptation: staleness demand tightens → renegotiate ------------
    let tightened = client
        .negotiator()
        .renegotiate(
            server.orb().node(),
            &agreement,
            vec![("validity_ms".to_string(), Any::ULongLong(1))],
        )
        .unwrap();
    assert_eq!(tightened.version, 2);
    // Reinstall the mediator from the renegotiated parameters.
    install(&stub, &tightened);
    // With 1 ms validity and a write in between, reads hit the server.
    stub.invoke("set_price", &[Any::from("ACME"), Any::Double(42.0)]).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let price = stub.invoke("price", &[Any::from("ACME")]).unwrap();
    assert_eq!(price, Any::Double(42.0));

    // --- teardown: release + final invoice ------------------------------
    client.negotiator().release(server.orb().node(), &tightened).unwrap();
    assert_eq!(server.woven("quotes").unwrap().active_characteristic(), None);
    let invoice = accountant.close(agreement.id);
    assert!((invoice.total - 0.20).abs() < 1e-9);
    assert_eq!(server.negotiation().live_agreements(), 0);

    // QoS ops are locked again after release.
    assert!(matches!(
        client.orb().invoke(&ior, "now_us", &[]),
        Err(OrbError::QosNotNegotiated(_))
    ));
    server.shutdown();
    client.shutdown();
}

#[test]
fn capacity_full_lifecycle_with_queueing_clients() {
    // Four clients compete for capacity 2; two succeed, two degrade to
    // nothing, then releases free capacity for the waiters.
    let net = Network::new(98);
    let server = MaqsNode::builder(&net, "exchange").spec(SPEC).build().unwrap();
    let client = MaqsNode::builder(&net, "desk").build().unwrap();
    server
        .serve(
            "quotes",
            Arc::new(Quotes(Mutex::new(HashMap::new()))),
            ServeOptions::interface("Quotes")
                .qos_impl(Arc::new(FreshnessStampQosImpl::new()))
                .capacity("Actuality", 2),
        )
        .unwrap();
    let offer = Offer::new("Actuality", 1.0);
    let node = server.orb().node();
    let n = client.negotiator();
    let a1 = n.negotiate_offer(node, "quotes", &offer).unwrap();
    let a2 = n.negotiate_offer(node, "quotes", &offer).unwrap();
    assert!(n.negotiate_offer(node, "quotes", &offer).is_err());
    n.release(node, &a1).unwrap();
    let a3 = n.negotiate_offer(node, "quotes", &offer).unwrap();
    assert!(a3.id > a2.id);
    server.shutdown();
    client.shutdown();
}
