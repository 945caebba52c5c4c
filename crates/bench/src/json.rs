//! Machine-readable bench output, re-exported from [`sega_wire`] — the
//! one emitter and schema suite the whole workspace shares (PR 3 moved
//! the hand-rolled serializer there; this module keeps the historical
//! `sega_bench::json::*` paths working).

pub use sega_wire::json::{Json, JsonError};
pub use sega_wire::report::{
    estimator_json_path, moga_json_path, pipeline_json_path, ConfigRecord, EstimatorCohortRecord,
    EstimatorReport, MogaKernelRecord, MogaKernelReport, PipelineReport, RemoteTrafficRecord,
};
