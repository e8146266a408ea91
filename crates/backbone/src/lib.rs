//! The event backbone: pub/sub streams, TCP event transport, and the
//! airline operational information system scenario.
//!
//! The paper motivates xml2wire with an airline system (§2, Figures 1
//! and 3): capture points produce structured information streams over a
//! "system-wide event backbone"; display points, gate terminals and
//! late-joining handheld devices subscribe, *discovering each stream's
//! message structure at runtime* instead of being compiled against it.
//! This crate is that backbone:
//!
//! * [`broker`] — an in-process publish/subscribe broker, sharded by
//!   stream name across per-core dispatch workers that fan events out in
//!   batches; streams carry a metadata locator so subscribers know where
//!   to discover the format, and a per-stream [`broker::Overflow`]
//!   policy decides what happens to slow subscribers.
//! * [`net`] — a length-prefixed TCP event transport
//!   ([`net::EventServer`], [`net::EventClient`]): a readiness event
//!   loop over epoll, `poll(2)` off Linux (sharded, nonblocking
//!   connection state machines, write coalescing), so the scale and
//!   latency experiments cross real sockets.
//! * [`federation`] — broker-to-broker links: a [`FederationLink`]
//!   forwards *aggregated* per-stream subscriptions to a remote broker
//!   so an event crosses the link once regardless of local fan-out,
//!   with jittered reconnect and durable catch-up replay (the remote
//!   broker streams history from its segment log, then live, deduped by
//!   sequence number at the boundary).
//! * [`stream`] — capture points (synthetic producers) and consumers
//!   that run the full discover → bind → decode pipeline on
//!   subscription.
//! * [`filter`] — content-based subscription predicates (`price > 100
//!   && dest == "ATL"`), compiled at subscribe time into flat op
//!   programs that evaluate against the wire image with zero
//!   allocations, deduplicated across subscribers so fanout evaluates
//!   each unique predicate once per event.
//! * [`scoping`] — "format-scoping" (§4.4): deriving per-subscriber
//!   schema slices and projecting records onto them.
//! * [`airline`] — the paper's domain: `ASDOffEvent` flight events and
//!   weather observations, with seeded generators standing in for the
//!   FAA/NOAA feeds the authors had.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airline;
pub mod broker;
pub mod error;
pub mod federation;
pub mod filter;
pub mod net;
pub mod scoping;
pub mod stream;
pub mod typed;

pub use broker::{
    Broker, DurableSpec, Event, Overflow, PublishHandle, ReplaySubscription,
    StreamConfig, StreamInfo, Subscription,
};
pub use error::BackboneError;
pub use filter::{FilterCache, FilterError, FilterStats, StreamFilter};
pub use federation::{FederatedBroker, FederationLink, LinkConfig, LinkStats};
pub use net::{
    ClientCloser, CloseHandler, ConnId, EventClient, EventServer, Frame, NetConfig, NetStats,
    ServerHandle,
};
pub use scoping::FormatScope;
pub use stream::{CapturePoint, Consumer};
pub use typed::{TypedCapture, TypedSubscriber};
