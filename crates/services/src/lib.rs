//! QoS infrastructure services.
//!
//! §2.2 of the paper: "infrastructure services for e.g. trading,
//! negotiation, monitoring and accounting should be an integral part of
//! the framework", and the outlook announces contract hierarchies for
//! client preferences (ref. \[5\]) and runtime negotiation/accounting as
//! the work following the ICDCS paper. This crate implements them:
//!
//! * [`contract`] — hierarchies of contracts expressing client
//!   preferences over QoS alternatives, with utility-based resolution;
//! * [`negotiation`] — the agreement protocol between client and server
//!   (offer → negotiate → agree/reject → renegotiate/release), wired to
//!   the server-side [`weaver::WovenServant`] delegate exchange, with a
//!   capacity model so rejections and adaptation actually happen;
//! * [`monitoring`] — sliding-window observation of agreed QoS
//!   (latency, availability, staleness) and violation detection;
//! * [`adaptation`] — degradation ladders: the ordered reactions
//!   (renegotiate → fallback → rebind → fail static) a self-healing
//!   binding walks when an agreement is violated, with an append-only
//!   event log;
//! * [`accounting`] — per-agreement usage metering and invoicing;
//! * [`trading`] — a trader matching service offers by interface type
//!   and required QoS characteristics;
//! * [`naming`] — a naming service for reference bootstrap;
//! * [`introspection`] — the telemetry plane served over the ORB:
//!   metrics snapshots, flight-recorder tails, health counters and the
//!   woven-deployment shape, answerable from any peer via GIOP;
//! * [`telemetry`] — the cluster aggregator on top of introspection:
//!   fleet-wide scrape, histogram merge, time-series retention, and
//!   agreement-derived SLO burn-rate alerting;
//! * [`catalog`] — the §6 pattern-style catalog documenting QoS
//!   characteristics for application developers and QoS implementors,
//!   with reusable-mechanism cross references.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod adaptation;
pub mod catalog;
pub mod contract;
pub mod introspection;
pub mod monitoring;
pub mod naming;
pub mod negotiation;
pub mod telemetry;
pub mod trading;

pub use accounting::{Accountant, Invoice, PriceModel};
pub use adaptation::{
    relax_params, AdaptationEvent, AdaptationLog, DegradationLadder, LadderStep, StepOutcome,
};
pub use catalog::{standard_catalog, CatalogEntry, Mechanism, QosCatalog};
pub use contract::{ContractHierarchy, ContractNode, Offer};
pub use introspection::{
    BindingInfo, Health, IntrospectionServant, Introspector, INTROSPECTION_KEY,
};
pub use monitoring::{Monitor, ViolationEvent};
pub use naming::{bind_name, resolve_name, NamingService, NAMING_KEY};
pub use negotiation::{Agreement, NegotiationServant, Negotiator, NEGOTIATOR_KEY};
pub use telemetry::{
    FleetSample, NodeSample, ScrapeDriver, SloAlert, SloAlertHandler, SloConfig, SloKind,
    SloObjective, SloStatus, TelemetryAggregator, TelemetryConfig,
};
pub use trading::{ServiceOffer, Trader, TRADER_KEY};
