//! Technology and power modelling substrate for the Synchroscalar
//! reproduction.
//!
//! This crate reproduces the empirical evaluation models of
//! *Synchroscalar: A Multiple Clock Domain, Power-Aware, Tile-Based
//! Embedded Processor* (ISCA 2004), Section 4:
//!
//! * [`tech`] — the 130 nm technology parameters of Table 1,
//! * [`vf`] — the frequency/voltage relationship of Figure 5 (the paper
//!   SPICEs a 20-FO4 critical path against the Berkeley Predictive
//!   Technology Models; we substitute a calibrated lookup table plus an
//!   alpha-power-law analytical model, see `DESIGN.md`),
//! * [`dynamic`] — the normalised tile power model (`U` in mW/MHz scaled by
//!   `V²/V_ref²`),
//! * [`interconnect`] — the wire-capacitance bus energy model ("The Future
//!   of Wires" semi-global wire parameters),
//! * [`leakage`] — the analytical sub-threshold leakage model,
//! * [`area`] — the synthesized component area estimates of Table 2,
//! * [`column`](mod@column) — the per-column power roll-up used by every experiment.
//!
//! # Example
//!
//! ```
//! use synchro_power::{Technology, VfCurve, ColumnPower, ColumnActivity};
//!
//! let tech = Technology::isca2004();
//! let curve = VfCurve::fo4_20(&tech);
//! // DDC digital mixer: 8 tiles at 120 MHz.
//! let voltage = curve.voltage_for_frequency(120.0).unwrap();
//! let activity = ColumnActivity {
//!     tiles: 8,
//!     frequency_mhz: 120.0,
//!     voltage,
//!     bus_words_per_second: 1.3e8,
//!     bus_length_mm: tech.column_bus_length_mm,
//! };
//! let power = ColumnPower::estimate(&tech, &activity);
//! assert!(power.total_mw() > 60.0 && power.total_mw() < 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod column;
pub mod dynamic;
pub mod error;
pub mod interconnect;
pub mod leakage;
pub mod tech;
pub mod vf;

pub use area::{AreaModel, ComponentArea, SimdDouArea, TileArea};
pub use column::{ColumnActivity, ColumnPower};
pub use dynamic::TilePowerModel;
pub use error::PowerModelError;
pub use interconnect::{BusGeometry, InterconnectModel, SlotActivity};
pub use leakage::LeakageModel;
pub use tech::Technology;
pub use vf::{AlphaPowerLaw, CriticalPath, VfCurve};
