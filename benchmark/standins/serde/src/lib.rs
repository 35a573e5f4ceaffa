//! Stand-in for `serde`. `Serialize` / `Deserialize` / `DeserializeOwned`
//! are marker traits every type implements, and the derives expand to
//! nothing, so `#[derive(Serialize, Deserialize)]` and `T: Serialize`
//! bounds compile without a data model behind them. No benchmarked path
//! serialises; the `serde_json` stand-in panics if one ever does.

pub use serde_derive::{Deserialize, Serialize};

/// Marker: every type "serialises".
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker: every type "deserialises".
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

/// `serde::de`, for `DeserializeOwned`.
pub mod de {
    pub use super::Deserialize;

    /// Marker: every type "deserialises" from any lifetime.
    pub trait DeserializeOwned {}
    impl<T: ?Sized> DeserializeOwned for T {}
}
