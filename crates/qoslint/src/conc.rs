//! Concurrency-discipline lints, `QL201`–`QL203`.
//!
//! The ORB core enforces its lock hierarchy dynamically — debug builds
//! panic on out-of-order acquisition (`orb::sync`) — but a dynamic check
//! only fires on paths a test actually runs. These lints cross-check the
//! *declared* concurrency structure of a deployment — the rank table,
//! the per-module lock inventory, the observed held-while-acquiring
//! edges, and the QoS mediator chains — so holes in the discipline are
//! findings, not latent deadlocks.
//!
//! Like [`crate::deploy`], the input is plain data: a
//! [`ConcurrencyView`] any runtime can populate.
//! [`ConcurrencyView::from_rank_rows`] seeds one directly from
//! `orb::LockRank::TABLE` (a `&[(u16, &str, &str)]` of rank, lock name,
//! module); edges and chains are appended from whatever nesting the
//! runtime declares or observes.

use crate::codes;
use qidl::diag::{Diagnostic, Diagnostics};
use std::collections::BTreeMap;

/// The rank name of the weaver's binding registry lock; [`QL203`]
/// (`codes::REENTRANT_CHAIN`) is anchored on it.
pub const BINDING_REGISTRY_RANK: &str = "BindingRegistry";

/// One row of the declared rank hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankedLockView {
    /// Numeric rank; acquisition must be strictly ascending.
    pub rank: u16,
    /// Rank name, e.g. `BindingRegistry`.
    pub name: String,
    /// Module the lock lives in, e.g. `weaver::binding`.
    pub module: String,
}

/// One lock *site*: a lock field declared somewhere in the codebase,
/// ranked or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockSiteView {
    /// Module the lock is declared in.
    pub module: String,
    /// The lock field or static, e.g. `QosTransport.state`.
    pub lock: String,
    /// The rank it carries, if any; `None` is an unranked plain lock.
    pub rank: Option<String>,
}

/// One declared or observed held-while-acquiring edge: a thread holds
/// `holder` and acquires `acquires`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrderEdgeView {
    /// Rank name of the lock already held.
    pub holder: String,
    /// Rank name of the lock being acquired.
    pub acquires: String,
    /// Where the nesting happens, for the report.
    pub site: String,
}

/// One client stub's mediator chain, from the concurrency angle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainConcurrencyView {
    /// Key of the stub's target object.
    pub object_key: String,
    /// Characteristics of the installed mediators, outermost first.
    pub mediators: Vec<String>,
    /// Mediators that can call back into the binding registry mid-call
    /// (rebinding, policy lookup, re-weaving).
    pub registry_reentrant: Vec<String>,
    /// Rank name of a lock held while the chain is invoked, if any
    /// (e.g. a rebind path that dispatches under the registry lock).
    pub invoked_holding: Option<String>,
}

/// The declared concurrency structure of one deployment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConcurrencyView {
    /// The rank hierarchy (every ranked lock).
    pub ranks: Vec<RankedLockView>,
    /// Every known lock site, ranked or not.
    pub sites: Vec<LockSiteView>,
    /// Held-while-acquiring edges.
    pub edges: Vec<OrderEdgeView>,
    /// Mediator chains.
    pub chains: Vec<ChainConcurrencyView>,
}

impl ConcurrencyView {
    /// Seed a view from a rank table of `(rank, name, module)` rows —
    /// the exact shape of `orb::LockRank::TABLE`. Every row becomes
    /// both a [`RankedLockView`] and a ranked [`LockSiteView`].
    pub fn from_rank_rows(rows: &[(u16, &'static str, &'static str)]) -> ConcurrencyView {
        let mut view = ConcurrencyView::default();
        for (rank, name, module) in rows {
            view.ranks.push(RankedLockView {
                rank: *rank,
                name: (*name).to_string(),
                module: (*module).to_string(),
            });
            view.sites.push(LockSiteView {
                module: (*module).to_string(),
                lock: (*name).to_string(),
                rank: Some((*name).to_string()),
            });
        }
        view
    }

    fn rank_of(&self, name: &str) -> Option<u16> {
        self.ranks.iter().find(|r| r.name == name).map(|r| r.rank)
    }
}

/// Cross-check the declared concurrency structure, accumulating every
/// finding. All three codes are errors: each one is a deadlock that
/// merely has not happened yet.
pub fn lint_concurrency(view: &ConcurrencyView) -> Diagnostics {
    let mut acc = Diagnostics::new();
    unranked_locks(view, &mut acc);
    rank_cycles(view, &mut acc);
    reentrant_chains(view, &mut acc);
    acc
}

/// `QL201`: a lock without a rank declared in a module that otherwise
/// participates in the hierarchy. The dynamic checker cannot see plain
/// locks, so one unranked lock next to ranked ones reopens the exact
/// inversion window the module was migrated to close.
fn unranked_locks(view: &ConcurrencyView, acc: &mut Diagnostics) {
    for site in &view.sites {
        match &site.rank {
            Some(rank) => {
                if view.rank_of(rank).is_none() {
                    acc.push(
                        Diagnostic::error(
                            codes::UNRANKED_LOCK,
                            format!(
                                "lock `{}` in `{}` names rank `{rank}`, which the hierarchy \
                                 does not declare",
                                site.lock, site.module
                            ),
                        )
                        .with_note("add the rank to the hierarchy table or fix the name"),
                    );
                }
            }
            None => {
                if view.ranks.iter().any(|r| r.module == site.module) {
                    acc.push(
                        Diagnostic::error(
                            codes::UNRANKED_LOCK,
                            format!(
                                "unranked lock `{}` in ranked module `{}`",
                                site.lock, site.module
                            ),
                        )
                        .with_note(
                            "the lock-order checker cannot see it: acquisitions around it \
                             are invisible inversions waiting to deadlock",
                        ),
                    );
                }
            }
        }
    }
}

/// `QL202`: the declared held-while-acquiring edges must be consistent
/// with the numeric hierarchy and acyclic among themselves. An edge that
/// inverts the numeric order, or a cycle of edges, is an
/// order-dependent deadlock.
fn rank_cycles(view: &ConcurrencyView, acc: &mut Diagnostics) {
    // Direct inversions against the numeric table.
    for e in &view.edges {
        if let (Some(h), Some(a)) = (view.rank_of(&e.holder), view.rank_of(&e.acquires)) {
            if h >= a {
                acc.push(
                    Diagnostic::error(
                        codes::RANK_CYCLE,
                        format!(
                            "`{}` (rank {h}) is held while acquiring `{}` (rank {a}) at {}: \
                             the declared order inverts the hierarchy",
                            e.holder, e.acquires, e.site
                        ),
                    )
                    .with_note("debug builds panic on this path; release builds can deadlock"),
                );
            }
        }
    }

    // Cycles among the edges themselves (covers locks the numeric table
    // does not rank). BTreeMap keeps reports deterministic.
    let mut graph: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in &view.edges {
        graph.entry(e.holder.as_str()).or_default().push(e.acquires.as_str());
    }
    let mut done: Vec<&str> = Vec::new();
    for &start in graph.keys() {
        if done.contains(&start) {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        while let Some((node, next)) = stack.last_mut() {
            let succ = graph.get(*node).map(Vec::as_slice).unwrap_or_default();
            if *next >= succ.len() {
                done.push(*node);
                stack.pop();
                path.pop();
                continue;
            }
            let target = succ[*next];
            *next += 1;
            if let Some(at) = path.iter().position(|n| *n == target) {
                let mut cycle: Vec<&str> = path[at..].to_vec();
                cycle.push(target);
                // Report each cycle once, from its smallest member.
                if cycle[..cycle.len() - 1].iter().min() == Some(&cycle[0]) {
                    acc.push(
                        Diagnostic::error(
                            codes::RANK_CYCLE,
                            format!(
                                "declared acquisition order contains a cycle: {}",
                                cycle.join(" -> ")
                            ),
                        )
                        .with_note(
                            "two threads traversing it from different entry points \
                             deadlock; break one edge or rank the locks",
                        ),
                    );
                }
            } else if !done.contains(&target) {
                stack.push((target, 0));
                path.push(target);
            }
        }
    }
}

/// `QL203`: a QoS mediator chain that can re-enter the binding registry
/// while the caller already holds a lock at or above the registry's
/// rank. The re-entry acquires `BindingRegistry` a second time — or
/// from below — which the hierarchy forbids.
fn reentrant_chains(view: &ConcurrencyView, acc: &mut Diagnostics) {
    let Some(registry_rank) = view.rank_of(BINDING_REGISTRY_RANK) else {
        return;
    };
    for chain in &view.chains {
        let Some(held) = &chain.invoked_holding else { continue };
        let Some(held_rank) = view.rank_of(held) else { continue };
        if held_rank < registry_rank {
            continue;
        }
        for m in &chain.mediators {
            if chain.registry_reentrant.iter().any(|r| r == m) {
                acc.push(
                    Diagnostic::error(
                        codes::REENTRANT_CHAIN,
                        format!(
                            "stub for `{}` invokes its `{m}` mediator while `{held}` (rank \
                             {held_rank}) is held, and `{m}` can re-enter the binding \
                             registry (`{BINDING_REGISTRY_RANK}`, rank {registry_rank})",
                            chain.object_key
                        ),
                    )
                    .with_note(
                        "re-entry acquires the registry at or below a held rank: \
                         deadlock against any concurrent bind; release the lock before \
                         dispatching through the chain",
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qidl::diag::Severity;

    fn base_view() -> ConcurrencyView {
        ConcurrencyView::from_rank_rows(&[
            (100, "NamingBindings", "services::naming"),
            (200, "BindingRegistry", "weaver::binding"),
            (220, "WovenState", "weaver::skeleton"),
            (500, "PendingShard", "orb::core"),
        ])
    }

    #[test]
    fn ranked_view_is_clean() {
        let mut view = base_view();
        view.edges.push(OrderEdgeView {
            holder: "BindingRegistry".into(),
            acquires: "PendingShard".into(),
            site: "weaver::binding::rebind".into(),
        });
        let diags = lint_concurrency(&view);
        assert!(diags.is_empty(), "{:?}", diags.into_vec());
    }

    #[test]
    fn unranked_lock_in_ranked_module_is_flagged() {
        let mut view = base_view();
        view.sites.push(LockSiteView {
            module: "orb::core".into(),
            lock: "scratch".into(),
            rank: None,
        });
        // Unranked locks in modules outside the hierarchy are fine.
        view.sites.push(LockSiteView {
            module: "bench::harness".into(),
            lock: "results".into(),
            rank: None,
        });
        let diags = lint_concurrency(&view);
        let hits: Vec<_> = diags.iter().filter(|d| d.code == codes::UNRANKED_LOCK).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
        assert!(hits[0].message.contains("scratch"));
    }

    #[test]
    fn unknown_rank_name_is_flagged() {
        let mut view = base_view();
        view.sites.push(LockSiteView {
            module: "orb::core".into(),
            lock: "pending".into(),
            rank: Some("PendingTable".into()),
        });
        let diags = lint_concurrency(&view);
        let d = diags.iter().find(|d| d.code == codes::UNRANKED_LOCK).unwrap();
        assert!(d.message.contains("PendingTable"));
    }

    #[test]
    fn inverted_edge_is_a_rank_cycle() {
        let mut view = base_view();
        view.edges.push(OrderEdgeView {
            holder: "PendingShard".into(),
            acquires: "NamingBindings".into(),
            site: "orb::core::dispatch".into(),
        });
        let diags = lint_concurrency(&view);
        let d = diags.iter().find(|d| d.code == codes::RANK_CYCLE).unwrap();
        assert!(d.message.contains("inverts"), "{}", d.message);
    }

    #[test]
    fn edge_cycle_is_reported_once() {
        let mut view = base_view();
        // Two unranked locks ordered against each other.
        for (h, a) in [("TickLog", "TickCache"), ("TickCache", "TickLog")] {
            view.edges.push(OrderEdgeView {
                holder: h.into(),
                acquires: a.into(),
                site: "demo::ticker".into(),
            });
        }
        let diags = lint_concurrency(&view);
        let hits: Vec<_> = diags.iter().filter(|d| d.code == codes::RANK_CYCLE).collect();
        assert_eq!(hits.len(), 1, "{:?}", hits);
        assert!(hits[0].message.contains("TickCache -> TickLog -> TickCache"));
    }

    #[test]
    fn reentrant_chain_under_registry_lock_is_flagged() {
        let mut view = base_view();
        view.chains.push(ChainConcurrencyView {
            object_key: "kv".into(),
            mediators: vec!["Replication".into(), "Actuality".into()],
            registry_reentrant: vec!["Replication".into()],
            invoked_holding: Some("BindingRegistry".into()),
        });
        // Same chain invoked lock-free elsewhere: fine.
        view.chains.push(ChainConcurrencyView {
            object_key: "kv2".into(),
            mediators: vec!["Replication".into()],
            registry_reentrant: vec!["Replication".into()],
            invoked_holding: None,
        });
        // Held lock ranked *below* the registry: the re-entry ascends,
        // which the hierarchy allows.
        view.chains.push(ChainConcurrencyView {
            object_key: "kv3".into(),
            mediators: vec!["Replication".into()],
            registry_reentrant: vec!["Replication".into()],
            invoked_holding: Some("NamingBindings".into()),
        });
        let diags = lint_concurrency(&view);
        let hits: Vec<_> = diags.iter().filter(|d| d.code == codes::REENTRANT_CHAIN).collect();
        assert_eq!(hits.len(), 1, "{:?}", hits);
        assert!(hits[0].message.contains("`kv`"));
        assert!(hits[0].message.contains("Replication"));
    }
}
