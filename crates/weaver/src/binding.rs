//! QoS binding: assigning a characteristic to a client/server relation.
//!
//! §3 of the paper: "in order to attribute the interactions between
//! client and service with a distinct QoS provision an assignment of a
//! QoS characteristic to the client/server relationship has to be
//! established. This assignment can vary in time … and in granularity."
//! QIDL fixes the granularity at *interfaces only*; this registry manages
//! the time dimension: bindings are created, looked up and replaced
//! (renegotiated) at runtime.

use orb::sync::{LockRank, OrderedRwLock};
use orb::giop::QosContext;
use orb::ior::ObjectKey;
use orb::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One established QoS binding.
#[derive(Debug, Clone, PartialEq)]
pub struct QosBinding {
    /// The bound object.
    pub object: ObjectKey,
    /// The negotiated characteristic.
    pub characteristic: String,
    /// The agreed parameter values.
    pub params: Vec<(String, Any)>,
    /// Monotonically increasing version; bumped on renegotiation.
    pub version: u64,
}

impl QosBinding {
    /// The wire-level [`QosContext`] equivalent of this binding.
    pub fn to_context(&self) -> QosContext {
        QosContext::with_params(self.characteristic.clone(), &self.params)
    }

    /// Look up an agreed parameter value.
    pub fn param(&self, name: &str) -> Option<&Any> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// Tracks the current QoS binding per object relationship.
#[derive(Clone)]
pub struct QosBindingRegistry {
    bindings: Arc<OrderedRwLock<HashMap<ObjectKey, QosBinding>>>,
}

impl Default for QosBindingRegistry {
    fn default() -> QosBindingRegistry {
        QosBindingRegistry {
            bindings: Arc::new(OrderedRwLock::new(LockRank::BindingRegistry, HashMap::new())),
        }
    }
}

impl fmt::Debug for QosBindingRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QosBindingRegistry").field("bindings", &self.bindings.read().len()).finish()
    }
}

impl QosBindingRegistry {
    /// An empty registry.
    pub fn new() -> QosBindingRegistry {
        QosBindingRegistry::default()
    }

    /// Establish (or renegotiate) the binding for `object`. Returns the
    /// new binding, with `version` bumped if one existed before.
    pub fn bind(
        &self,
        object: impl Into<ObjectKey>,
        characteristic: impl Into<String>,
        params: Vec<(String, Any)>,
    ) -> QosBinding {
        let object = object.into();
        let mut map = self.bindings.write();
        let version = map.get(&object).map(|b| b.version + 1).unwrap_or(1);
        let binding = QosBinding {
            object: object.clone(),
            characteristic: characteristic.into(),
            params,
            version,
        };
        map.insert(object, binding.clone());
        binding
    }

    /// Remove the binding for `object`, returning it if present.
    pub fn unbind(&self, object: &ObjectKey) -> Option<QosBinding> {
        self.bindings.write().remove(object)
    }

    /// Current binding for `object`.
    pub fn binding(&self, object: &ObjectKey) -> Option<QosBinding> {
        self.bindings.read().get(object).cloned()
    }

    /// Snapshot of all live bindings, sorted by object key (stable
    /// order for reporting and deployment linting).
    pub fn bindings(&self) -> Vec<QosBinding> {
        let mut v: Vec<QosBinding> = self.bindings.read().values().cloned().collect();
        v.sort_by(|a, b| a.object.0.cmp(&b.object.0));
        v
    }

    /// Number of live bindings.
    pub fn len(&self) -> usize {
        self.bindings.read().len()
    }

    /// Whether no bindings exist.
    pub fn is_empty(&self) -> bool {
        self.bindings.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_lookup_unbind() {
        let reg = QosBindingRegistry::new();
        let key = ObjectKey("bank".into());
        let b = reg.bind("bank", "Replication", vec![("replicas".into(), Any::ULong(3))]);
        assert_eq!(b.version, 1);
        assert_eq!(reg.binding(&key).unwrap().characteristic, "Replication");
        assert_eq!(reg.len(), 1);
        let removed = reg.unbind(&key).unwrap();
        assert_eq!(removed.version, 1);
        assert!(reg.is_empty());
        assert!(reg.binding(&key).is_none());
    }

    #[test]
    fn bindings_snapshot_is_sorted_by_key() {
        let reg = QosBindingRegistry::new();
        reg.bind("b", "Encryption", vec![]);
        reg.bind("a", "Replication", vec![]);
        reg.bind("c", "Compression", vec![]);
        let keys: Vec<String> = reg.bindings().into_iter().map(|b| b.object.0).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
        assert!(QosBindingRegistry::new().bindings().is_empty());
    }

    #[test]
    fn renegotiation_bumps_version() {
        let reg = QosBindingRegistry::new();
        reg.bind("o", "Compression", vec![("level".into(), Any::Octet(3))]);
        let b2 = reg.bind("o", "Compression", vec![("level".into(), Any::Octet(9))]);
        assert_eq!(b2.version, 2);
        assert_eq!(
            reg.binding(&ObjectKey("o".into())).unwrap().param("level"),
            Some(&Any::Octet(9))
        );
    }

    #[test]
    fn binding_converts_to_wire_context() {
        let reg = QosBindingRegistry::new();
        let b = reg.bind("o", "Encryption", vec![("seed".into(), Any::ULongLong(7))]);
        let ctx = b.to_context();
        assert_eq!(ctx.characteristic, "Encryption");
        assert_eq!(ctx.param("seed"), Some(&Any::ULongLong(7)));
    }
}
