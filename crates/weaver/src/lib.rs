//! The runtime aspect-weaving layer (§3.3 of the paper).
//!
//! The QIDL compiler separates QoS from application concerns *statically*
//! (see [`qidl::codegen`]); this crate provides the *runtime* halves of
//! the weave:
//!
//! * **Client side** — the stub is extended by a **mediator**: "At runtime
//!   the mediator of the desired QoS is set in the stub as a delegate.
//!   Each call is intercepted and delegated to the mediator which can
//!   issue the QoS behaviour on the client side." [`ClientStub`] holds a
//!   replaceable [`Mediator`] chain and threads every invocation through
//!   it.
//!
//! * **Server side** (Fig. 2) — the servant is wrapped by a
//!   [`WovenServant`]: it accepts all QoS operations of the *assigned*
//!   characteristics (per the interface repository), but only those of
//!   the currently *negotiated* characteristic are processed — others
//!   raise [`OrbError::QosNotNegotiated`](orb::OrbError::QosNotNegotiated). Application requests are
//!   bracketed by the active QoS implementation's **prolog** and
//!   **epilog**. The active [`QosImplementation`] delegate can be
//!   exchanged at runtime.
//!
//! * **Objectives** — [`objective::Objective`] is the one translation
//!   from an agreement's named parameter values to the typed bounds
//!   every enforcing layer reads.
//!
//! * **Observability** — every stub invocation returns a typed
//!   [`Reply`] carrying the propagated trace context (one span per
//!   layer crossed) and the active QoS tag; the woven skeleton records
//!   `qos.prolog`/`servant`/`qos.epilog` spans and can feed a
//!   [`RequestObserver`] with measured per-request latency and success,
//!   which the deployment layer wires into QoS monitoring.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use netsim::Network;
//! use orb::prelude::*;
//! use weaver::{ClientStub, Call, Mediator, Next};
//!
//! struct Echo;
//! impl Servant for Echo {
//!     fn interface_id(&self) -> &str { "IDL:Echo:1.0" }
//!     fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
//!         match op {
//!             "echo" => Ok(args[0].clone()),
//!             _ => Err(OrbError::BadOperation(op.into())),
//!         }
//!     }
//! }
//!
//! /// A mediator that counts calls — pure client-side QoS behaviour.
//! struct Counting(std::sync::atomic::AtomicU64);
//! impl Mediator for Counting {
//!     fn characteristic(&self) -> &str { "counting" }
//!     fn around(&self, call: Call, next: Next<'_>) -> Result<Any, OrbError> {
//!         self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
//!         next(call)
//!     }
//! }
//!
//! let net = Network::new(1);
//! let server = Orb::start(&net, "server");
//! let client = Orb::start(&net, "client");
//! let ior = server.activate("echo", Box::new(Echo));
//!
//! let stub = ClientStub::new(client.clone(), ior);
//! let counter = Arc::new(Counting(Default::default()));
//! stub.set_mediator(counter.clone());
//! stub.invoke("echo", &[Any::from("hi")]).unwrap();
//! assert_eq!(counter.0.load(std::sync::atomic::Ordering::Relaxed), 1);
//! # server.shutdown(); client.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mediator;
pub mod objective;
pub mod reply;
pub mod resilience;
pub mod skeleton;

pub use mediator::{annotate_span, Call, ClientStub, Mediator, Next};
pub use orb::PendingCall;
pub use reply::Reply;
pub use resilience::{
    BreakerConfig, CircuitBreaker, CircuitState, FailStaticMode, ResilienceMediator,
    ResiliencePolicy,
};
pub use skeleton::{QosImplementation, RequestObserver, WovenServant};
