//! Quantitative extension of the Strong Dependency formalism (§1.8, §7.4).
//!
//! Strong dependency is qualitative — *whether* information can be
//! transmitted. §7.4 sketches the quantitative theory this crate
//! implements:
//!
//! - distributions over states, generalizing initial constraints, with
//!   pushforward `[H]pr` ([`dist`]);
//! - Shannon entropy, equivocation and mutual information ([`entropy`](mod@entropy));
//! - the two §7.4 measures of transmitted bits — equivocation-based and
//!   held-constant average — plus interference and the data-processing
//!   bound ([`measure`]);
//! - noisy channels and Blahut–Arimoto capacity for the §1.8
//!   "lower the covert bandwidth with noise" remark ([`channel`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod dist;
pub mod entropy;
pub mod measure;

pub use crate::channel::Channel;
pub use crate::dist::Dist;
pub use crate::entropy::{binary_entropy, conditional_entropy, entropy, mutual_information};
pub use crate::measure::{
    bits_equivocation, bits_held_constant, data_processing_bound, interference, max_bits,
    source_entropy,
};
