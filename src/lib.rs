//! NewsLink facade crate: re-exports the whole workspace.

#![forbid(unsafe_code)]

pub use newslink_baselines as baselines;
pub use newslink_core as core;
pub use newslink_corpus as corpus;
pub use newslink_embed as embed;
pub use newslink_eval as eval;
pub use newslink_kg as kg;
pub use newslink_nlp as nlp;
pub use newslink_serve as serve;
pub use newslink_text as text;
pub use newslink_util as util;
