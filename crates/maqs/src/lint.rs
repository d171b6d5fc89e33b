//! Deployment-linting glue: snapshot live weaving state into a
//! [`qoslint::deploy::DeploymentView`].
//!
//! [`crate::MaqsNode::deployment_view`] covers the server side (woven
//! servants, installed implementations, negotiation capacities); the
//! helpers here convert the *client* side — struck
//! [`services::Agreement`]s and stub mediator chains — so a test or an
//! operator tool can lint a whole client/server deployment with
//! [`qoslint::deploy::lint_deployment`].

use qoslint::deploy::{BindingView, StubView};
use services::Agreement;
use weaver::ClientStub;

/// Views of the bindings the client holds `agreements` for, in order.
pub fn binding_views(agreements: &[Agreement]) -> Vec<BindingView> {
    agreements
        .iter()
        .map(|a| BindingView {
            object_key: a.object.clone(),
            characteristic: a.characteristic.clone(),
            params: a.params.iter().map(|(n, _)| n.clone()).collect(),
        })
        .collect()
}

/// View of one client stub's mediator chain, targeting `object_key`.
pub fn stub_view(object_key: &str, stub: &ClientStub) -> StubView {
    StubView { object_key: object_key.to_string(), mediators: stub.mediator_chain() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orb::Any;

    #[test]
    fn binding_views_carry_keys_characteristics_and_param_names() {
        let agreement = |id, object: &str, characteristic: &str, params| Agreement {
            id,
            object: object.into(),
            characteristic: characteristic.into(),
            params,
            version: 1,
        };
        let views = binding_views(&[
            agreement(1, "cam", "Actuality", vec![]),
            agreement(2, "kv", "Replication", vec![("replicas".into(), Any::ULong(3))]),
        ]);
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].object_key, "cam");
        assert_eq!(views[1].characteristic, "Replication");
        assert_eq!(views[1].params, vec!["replicas"]);
    }
}
