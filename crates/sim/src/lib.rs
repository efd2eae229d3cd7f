//! # hostcc-sim
//!
//! Deterministic discrete-event simulation engine underpinning the `hostcc`
//! host-interconnect congestion laboratory.
//!
//! The crate provides exactly the primitives a packet-level simulator needs
//! and nothing else:
//!
//! * [`SimTime`]/[`SimDuration`] — integer-nanosecond simulated time;
//! * [`TimingWheel`] — the engine's only event queue: a deterministic
//!   (FIFO tie-break) hierarchical timing wheel;
//! * [`Engine`]/[`World`]/[`Scheduler`] — the event loop: one slot-drain
//!   loop over the wheel, handing each timestamp's events to the world;
//! * [`ParallelEngine`]/[`ShardHost`]/[`Envelope`] — deterministic
//!   conservative parallel execution of many coupled sub-simulations in
//!   lookahead-bounded epochs;
//! * [`SimRng`] — a seedable, stable xoshiro256** generator;
//! * statistics: [`Running`], [`RateMeter`], [`Ewma`], [`TimeSeries`],
//!   [`Histogram`];
//! * pacing: [`TokenBucket`], [`SerialLink`].
//!
//! Everything is synchronous and allocation-light, in the spirit of
//! event-driven network stacks: components are explicit state machines that
//! the engine polls by delivering events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod hist;
mod pacer;
mod parallel;
mod queue;
mod rng;
mod snap;
mod stats;
mod time;
mod wheel;

pub use engine::{DispatchProfile, Engine, RunOutcome, Scheduler, World};
pub use hist::Histogram;
pub use pacer::{SerialLink, TokenBucket};
pub use parallel::{Envelope, ParallelEngine, ShardHost};
pub use rng::{stream_seed, SimRng, SplitMix64};
pub use snap::{
    fnv1a_64, SnapError, SnapReader, SnapWriter, SNAP_HEADER_LEN, SNAP_MAGIC, SNAP_VERSION,
};
pub use stats::{Ewma, RateMeter, Running, TimeSeries};
pub use time::{Resolution, SimDuration, SimTime, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};
pub use wheel::TimingWheel;
