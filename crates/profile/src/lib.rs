//! # og-profile: value profiling for value range specialization
//!
//! Implements the profiling machinery of §3.3 of the paper, which follows
//! the value-profiling scheme of Calder, Feller & Eustace (MICRO-30):
//!
//! > The technique adds a function in the program that is called at the
//! > profiling points and stores the actual value in a fixed-size table
//! > every time it is called. If the value is already in the table, the
//! > count of that value is incremented. Otherwise, if the table is not
//! > full, the value is added. If the table is full the value is ignored.
//! > Periodically, the table is cleaned by evicting the least frequently
//! > used values from the table […]. The total number of times the
//! > profiling point is executed is also kept in a separate counter.
//!
//! [`ValueProfiler`] observes a run through [`ValueProfiler::sink`], a
//! [`og_vm::TraceSink`] riding the same streamed committed-path
//! interface that drives the timing simulator (this is how VRS profiles
//! its training runs). After a training run,
//! each watched site yields [`RangeEstimate`]s — candidate `[min, max]`
//! ranges with their observed coverage frequency — which VRS weighs with
//! its energy cost/benefit model.
//!
//! ```
//! use og_profile::{ProfileConfig, ValueTable};
//!
//! let mut t = ValueTable::new(&ProfileConfig::default());
//! for v in [5, 5, 5, 6, 900] {
//!     t.record(v);
//! }
//! let ranges = t.candidate_ranges(5);
//! // the hottest single value is 5
//! assert_eq!(ranges[0].min, 5);
//! assert_eq!(ranges[0].max, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profiler;
mod table;

pub use profiler::{ProfileSink, SiteProfile, ValueProfiler};
pub use table::{ProfileConfig, RangeEstimate, ValueTable};
