//! IR-to-IR transformations applied before scheduling.

pub mod cse;
pub mod merge;
