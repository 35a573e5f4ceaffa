//! Stand-in for `serde_json`. Every function panics with
//! [`OUTSIDE_MEASURED_PATH`]: no benchmarked operation encodes or parses
//! JSON, and if one ever starts to, the run must fail loudly instead of
//! timing a fake codec. The signatures exist so the REFILL crates'
//! archive / snapshot / explain-to-JSON code compiles unmodified.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;
use std::io;

/// The panic message of every function in this crate.
pub const OUTSIDE_MEASURED_PATH: &str = "JSON is outside the benchmark's measured path";

/// The error type of the real crate; never constructed here.
#[derive(Debug)]
pub struct Error(());

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stand-in error")
    }
}

impl std::error::Error for Error {}

impl From<Error> for io::Error {
    fn from(e: Error) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Panics: see the crate docs.
pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    panic!("{OUTSIDE_MEASURED_PATH}")
}

/// Panics: see the crate docs.
pub fn to_string_pretty<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    panic!("{OUTSIDE_MEASURED_PATH}")
}

/// Panics: see the crate docs.
pub fn to_writer<W: io::Write, T: ?Sized + Serialize>(_writer: W, _value: &T) -> Result<()> {
    panic!("{OUTSIDE_MEASURED_PATH}")
}

/// Panics: see the crate docs.
pub fn from_str<T: DeserializeOwned>(_s: &str) -> Result<T> {
    panic!("{OUTSIDE_MEASURED_PATH}")
}
