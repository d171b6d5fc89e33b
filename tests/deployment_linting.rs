//! Integration: deployment-level static analysis across crates.
//!
//! A live client/server deployment — woven servants with installed QoS
//! implementations, negotiation capacities, client-side bindings and
//! mediator chains — is snapshotted into a
//! [`qoslint::deploy::DeploymentView`] and cross-checked against the
//! interface repository by `qoslint`'s `QL1xx` lints.

use maqs::lint::{binding_views, stub_view};
use maqs::prelude::*;
use maqs::qoslint::deploy::lint_deployment;
use maqs::qoslint::render::render_json;
use maqs::qoslint::{codes, Severity};
use std::sync::Arc;

const SPEC: &str = r#"
    interface Counter with qos Replication, Actuality {
        void bump();
        long long total();
    };
"#;

struct Counter(parking_lot::Mutex<i64>);

impl Servant for Counter {
    fn interface_id(&self) -> &str {
        "IDL:Counter:1.0"
    }
    fn dispatch(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "bump" => {
                *self.0.lock() += 1;
                Ok(Any::Void)
            }
            "total" => Ok(Any::LongLong(*self.0.lock())),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

fn counter() -> Arc<dyn Servant> {
    Arc::new(Counter(parking_lot::Mutex::new(0)))
}

/// The client's agreement on `characteristic` for the `counter` object.
fn agreement(characteristic: &str, params: Vec<(String, Any)>) -> Agreement {
    Agreement {
        id: 1,
        object: "counter".into(),
        characteristic: characteristic.into(),
        params,
        version: 1,
    }
}

/// A mediator that only names a characteristic; behaviour is irrelevant
/// to the lints.
struct Named(&'static str);

impl Mediator for Named {
    fn characteristic(&self) -> &str {
        self.0
    }
    fn around(&self, call: Call, next: Next<'_>) -> Result<Any, OrbError> {
        next(call)
    }
}

#[test]
fn healthy_deployment_lints_clean() {
    let net = netsim::Network::new(1);
    let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
    let client = MaqsNode::builder(&net, "client").build().unwrap();

    let ior = server
        .serve(
            "counter",
            counter(),
            ServeOptions::interface("Counter")
                .qos_impl(Arc::new(qosmech::replication::ReplicationQosImpl::new()))
                .qos_impl(Arc::new(qosmech::actuality::FreshnessStampQosImpl::new()))
                .capacity("Replication", 2),
        )
        .unwrap();

    // Client side: a binding plus a matching mediator chain.
    let agreement = agreement("Replication", vec![("replicas".into(), Any::ULong(3))]);
    let stub = client.stub(&ior);
    stub.push_mediator(Arc::new(Named("Replication")));
    stub.set_qos_context(Some(agreement.to_context()));

    let mut view = server.deployment_view();
    view.bindings = binding_views(&[agreement]);
    view.stubs = vec![stub_view("counter", &stub)];

    let diags = lint_deployment(server.repository(), &view);
    assert!(diags.is_empty(), "{:?}", diags.into_vec());

    // The deployment is not just lint-clean, it works.
    stub.invoke("bump", &[]).unwrap();
    assert_eq!(stub.invoke("total", &[]).unwrap(), Any::LongLong(1));

    server.shutdown();
    client.shutdown();
}

#[test]
fn broken_client_state_is_caught() {
    let net = netsim::Network::new(1);
    let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
    let client = MaqsNode::builder(&net, "client").build().unwrap();

    // Server installs only Replication; Actuality stays un-negotiable.
    let ior = server
        .serve(
            "counter",
            counter(),
            ServeOptions::interface("Counter")
                .qos_impl(Arc::new(qosmech::replication::ReplicationQosImpl::new())),
        )
        .unwrap();

    // Unknown characteristic, and a param Replication does not declare.
    let stub = client.stub(&ior);
    stub.push_mediator(Arc::new(Named("Actuality")));

    let mut view = server.deployment_view();
    view.bindings = binding_views(&[agreement("Teleportation", vec![])]);
    view.bindings.push(maqs::qoslint::deploy::BindingView {
        object_key: "counter".into(),
        characteristic: "Replication".into(),
        params: vec!["voters".into()],
    });
    view.stubs = vec![stub_view("counter", &stub)];

    let diags = lint_deployment(server.repository(), &view);
    let codes_seen: Vec<&str> = diags.iter().map(|d| d.code.0).collect();
    assert!(codes_seen.contains(&codes::BINDING_UNKNOWN.0), "{codes_seen:?}");
    assert!(codes_seen.contains(&codes::BINDING_PARAM_UNKNOWN.0), "{codes_seen:?}");
    assert!(codes_seen.contains(&codes::NOT_NEGOTIABLE.0), "{codes_seen:?}");
    assert!(codes_seen.contains(&codes::MISSING_QOS_IMPL.0), "{codes_seen:?}");
    assert!(diags.has_errors());
    assert!(diags.count(Severity::Warn) >= 2);

    // The JSON rendering is what an operator tool would consume.
    let json = render_json(None, &diags);
    assert!(json.contains("\"code\":\"QL105\""), "{json}");
    assert!(json.contains("\"severity\":\"warning\""), "{json}");

    server.shutdown();
    client.shutdown();
}

#[test]
fn node_level_lint_tracks_serving_state() {
    let net = netsim::Network::new(1);
    let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
    assert!(server.lint_deployment().is_empty(), "nothing served, nothing to lint");

    server.serve("counter", counter(), ServeOptions::interface("Counter")).unwrap();
    let diags = server.lint_deployment();
    assert_eq!(diags.len(), 2, "both assigned characteristics lack implementations");
    assert!(diags.iter().all(|d| d.code == codes::MISSING_QOS_IMPL));
    assert!(diags.iter().all(|d| d.severity == Severity::Warn));

    server.shutdown();
}
