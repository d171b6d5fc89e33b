//! `qoslint` — static analysis for QIDL specifications and woven QoS
//! deployments.
//!
//! The QIDL front-end ([`qidl::sema`]) rejects specs that are *wrong*;
//! this crate additionally flags specs and deployments that are *legal
//! but broken in practice*. It has two halves:
//!
//! * **Spec-level lints** ([`lint_spec`], codes `QL010`–`QL014`):
//!   properties of a single compilation unit that the paper's separation
//!   of concerns makes easy to get silently wrong — e.g. assigning two
//!   characteristics of the same QoS *category* to one interface, or
//!   declaring a characteristic nobody assigns.
//! * **Deployment-level lints** ([`deploy::lint_deployment`], codes
//!   `QL101`–`QL107`): cross-checks of the static [`InterfaceRepository`]
//!   against a snapshot of the *runtime* weaving state — client bindings
//!   and mediator chains versus the implementations a server actually
//!   installed.
//!
//! Every finding is a [`qidl::Diagnostic`] with a stable code and, for
//! spec-level lints, a source span; [`render`] turns reports into
//! rustc-style text or line-oriented JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod render;
mod spec_lints;

pub use qidl::diag::{Code, Diagnostic, Diagnostics, Severity};

use qidl::ast::Spec;

/// The lint-only diagnostic codes (`QL010`+ spec-level, `QL1xx`
/// deployment-level). Front-end codes live in [`qidl::diag::codes`].
pub mod codes {
    pub use qidl::diag::codes::*;
    use qidl::diag::Code;

    /// Two characteristics of the same QoS category assigned to one
    /// interface.
    pub const CATEGORY_CONFLICT: Code = Code("QL010");
    /// QoS characteristic defined but never assigned to any interface.
    pub const UNUSED_QOS: Code = Code("QL011");
    /// Operation shadows an inherited or assigned-QoS operation of the
    /// same name.
    pub const SHADOWED_OP: Code = Code("QL012");
    /// QoS characteristic with no management operations.
    pub const EMPTY_MANAGEMENT: Code = Code("QL013");
    /// QoS parameter with no default value.
    pub const NO_DEFAULT: Code = Code("QL014");

    /// Binding to a characteristic not assigned to the bound interface.
    pub const BINDING_UNASSIGNED: Code = Code("QL101");
    /// Binding sets a parameter the characteristic does not declare.
    pub const BINDING_PARAM_UNKNOWN: Code = Code("QL102");
    /// Servant installs no implementation for an assigned characteristic.
    pub const MISSING_QOS_IMPL: Code = Code("QL103");
    /// Mediator chain contains a characteristic the server cannot
    /// negotiate.
    pub const NOT_NEGOTIABLE: Code = Code("QL104");
    /// Binding to a characteristic unknown to the repository.
    pub const BINDING_UNKNOWN: Code = Code("QL105");
    /// Negotiation capacity advertised for a characteristic that is
    /// unassigned or uninstalled.
    pub const CAPACITY_UNUSABLE: Code = Code("QL106");
    /// QoS binding or mediated stub with no resilience policy guarding
    /// it (only checked when the view reports resilience coverage).
    pub const NO_RESILIENCE: Code = Code("QL107");
}

/// Run the spec-level lints (`QL010`–`QL014`) over a parsed [`Spec`].
///
/// The spec need not have passed [`qidl::sema`] — lints skip what they
/// cannot resolve — but for a full report use [`lint_source`], which
/// runs the front-end first and merges its diagnostics.
pub fn lint_spec(spec: &Spec) -> Diagnostics {
    spec_lints::run(spec)
}

/// Lex, parse and semantically analyse `source`, then run the
/// spec-level lints; returns every finding of every stage in source
/// order per stage (front-end first).
pub fn lint_source(source: &str) -> Diagnostics {
    let (spec, mut diags) = qidl::analyze(source);
    if let Some(spec) = spec {
        diags.extend(lint_spec(&spec));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_merges_front_end_and_lints() {
        // One semantic error (unknown qos) + one lint (unused qos).
        let diags = lint_source("qos Lonely {}; interface I with qos Ghost {};");
        assert!(diags.iter().any(|d| d.code == codes::UNRESOLVED));
        assert!(diags.iter().any(|d| d.code == codes::UNUSED_QOS));
    }

    #[test]
    fn lint_source_stops_at_parse_errors() {
        let diags = lint_source("interface {");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags.iter().next().unwrap().code, codes::PARSE);
    }

    #[test]
    fn clean_spec_is_clean() {
        let diags = lint_source(
            r#"
            qos Q category timeliness {
                param long level = 1;
                management { void tune(in long level); };
            };
            interface I with qos Q { void f(); };
            "#,
        );
        assert!(diags.is_empty(), "{:?}", diags.into_vec());
    }
}
