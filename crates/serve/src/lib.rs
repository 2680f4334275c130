//! # mb-serve
//!
//! Production inference serving for metablink-rs: a std-only HTTP/1.1
//! server answering `POST /link` with two-stage entity linking, built
//! around a **work-conserving micro-batching engine**.
//!
//! A worker waits only on an empty queue. When it wakes it takes what
//! is already queued in the [`queue::BatchQueue`] — up to `max_batch`
//! requests — and answers the ones its result cache does not hold with
//! **one** [`mb_core::linker::TwoStageLinker::link_batch`] call, so
//! batch size is the backlog that built up while the worker was busy:
//! a lone caller is served at once as a batch of one, and a saturated
//! server fuses up to `max_batch` requests through one multi-query
//! retrieval scan and one cross-encoder pass. Because every tensor op
//! on the inference path is row-independent, batched responses are
//! bit-identical to sequential [`mb_core::linker::TwoStageLinker::link`]
//! calls — serving never changes model outputs.
//!
//! The HTTP layer ([`http`]) and JSON layer ([`json`]) are hand-rolled
//! (the workspace is hermetic — no external crates) and hardened
//! against malformed network input by property tests. Production
//! affordances: `GET /healthz`, `GET /metrics` (latency and batch-size
//! histograms, cache hit rate, queue depth), bounded-queue
//! backpressure (503), a per-worker LRU of link results, and graceful
//! drain on `POST /admin/shutdown`.
//!
//! ```no_run
//! use mb_serve::{ServeModel, Server, ServerConfig};
//! # fn model() -> ServeModel { unimplemented!() }
//! let server = Server::start(model(), ServerConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.join(); // until POST /admin/shutdown
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod http;
pub mod json;
pub mod metrics;
pub mod model;
pub mod queue;
pub mod registry;
pub mod server;
pub(crate) mod sync;

pub use config::ServeConfig;
pub use model::ServeModel;
pub use registry::{Generation, ModelLoader, ModelRegistry};
pub use server::{Server, ServerConfig};
