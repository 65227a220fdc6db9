//! # tgi-harness — regenerate every figure and table of the paper
//!
//! One entry point per artifact of the paper's evaluation (§IV):
//!
//! | Artifact | Function | Content |
//! |---|---|---|
//! | Fig. 2 | [`experiments::fig2_hpl_efficiency`] | EE of HPL (MFLOPS/W) vs processes on Fire |
//! | Fig. 3 | [`experiments::fig3_stream_efficiency`] | EE of STREAM (MB/s per W) vs processes |
//! | Fig. 4 | [`experiments::fig4_iozone_efficiency`] | EE of IOzone (MB/s per W) vs nodes |
//! | Fig. 5 | [`experiments::fig5_tgi_arithmetic`] | TGI (arithmetic mean) vs cores |
//! | Fig. 6 | [`experiments::fig6_tgi_weighted`] | TGI with time/power/energy weights vs cores |
//! | Table I | [`experiments::table1_reference_performance`] | SystemG performance & power per benchmark |
//! | Table II | [`experiments::table2_pcc`] | PCC between per-benchmark EE and TGI per weighting |
//!
//! [`sweep`] runs the underlying Fire core-count sweep once and shares it
//! across figures; [`report`] renders figures/tables as text and CSV.
//! [`fleet`] is the one engine for everything larger: a (system × cores ×
//! suite × weighting × mean) study evaluated in parallel over memoized
//! cluster simulations, whose table's views are the cluster comparisons,
//! scaling series and Green500-style lists of [`extensions`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod export;
pub mod extensions;
pub mod fleet;
pub mod journal;
pub mod report;
pub mod sweep;
pub mod telemetry;

pub use experiments::{
    fig2_hpl_efficiency, fig3_stream_efficiency, fig4_iozone_efficiency, fig5_tgi_arithmetic,
    fig6_tgi_weighted, system_g_reference, table1_reference_performance, table2_pcc,
};
pub use export::ExperimentBundle;
pub use fleet::{FleetSweep, FleetTable};
pub use report::{FigureData, Series, TableData};
pub use sweep::FireSweep;
pub use telemetry::TelemetrySession;
