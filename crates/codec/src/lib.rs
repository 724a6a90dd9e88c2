//! # codec
//!
//! Lossless compression codecs for scientific data, used by the Damaris
//! storage pipeline (`<store>`, per-variable `codec="…"`) to reproduce
//! the paper's §IV.D result:
//!
//! > "In our previous work we used this spare time to add data compression
//! > in files, and achieved a 600 % compression ratio without any overhead
//! > on the simulation."
//!
//! Smooth atmospheric fields (CM1's wind, temperature and moisture arrays)
//! compress extremely well once the floating-point layout is rearranged:
//!
//! * [`Shuffle`] — byte-transpose of fixed-size elements (HDF5's shuffle
//!   filter): groups exponent bytes together, creating long runs,
//! * [`XorDelta`] — XOR each word with its predecessor (FPC-style
//!   predictive transform): neighbouring grid values share exponent and
//!   high mantissa bits, so deltas are mostly zero bytes,
//! * [`Rle`] — PackBits run-length coding, eats the zero runs,
//! * [`Lzss`] — LZ77-family dictionary coder for the general case,
//! * [`Pipeline`] — composition, e.g. `"xor-delta8,shuffle8,rle"`.
//!
//! All codecs are `bytes → bytes`, deterministic, and round-trip exactly
//! (property-tested, including NaN payloads).
//!
//! ```
//! use codec::{Codec, Pipeline};
//!
//! // Mostly base state with a localized bubble — the CM1 output regime.
//! let field: Vec<f64> = (0..4096)
//!     .map(|i| if (2000..2100).contains(&i) { 301.5 } else { 300.0 })
//!     .collect();
//! let raw: Vec<u8> = field.iter().flat_map(|f| f.to_le_bytes()).collect();
//! let pipe = Pipeline::from_spec("xor-delta8,shuffle8,rle").unwrap();
//! let packed = pipe.encode(&raw);
//! assert!(packed.len() * 6 < raw.len(), "CM1-like data reaches 6:1");
//! assert_eq!(pipe.decode(&packed).unwrap(), raw);
//! ```

pub mod delta;
pub mod lzss;
pub mod pipeline;
pub mod rle;
pub mod shuffle;

pub use delta::XorDelta;
pub use lzss::Lzss;
pub use pipeline::{EncodeScratch, Pipeline, ScratchPool};
pub use rle::Rle;
pub use shuffle::Shuffle;

use std::fmt;

/// Decode failure: the input is not a valid encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(
    /// Description of the corruption.
    pub String,
);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl CodecError {
    /// Construct from any displayable message.
    pub fn new(msg: impl Into<String>) -> Self {
        CodecError(msg.into())
    }
}

/// A lossless byte-stream transform.
pub trait Codec: Send + Sync {
    /// Stable identifier usable in [`Pipeline::from_spec`] and in file
    /// metadata.
    fn name(&self) -> String;

    /// Compress/transform `input`.
    fn encode(&self, input: &[u8]) -> Vec<u8>;

    /// Compress/transform `input` into `out`, reusing `out`'s capacity.
    ///
    /// `out` is cleared first; its allocation is kept, so a caller that
    /// feeds same-sized blocks through a long-lived buffer (the storage
    /// pipeline's per-variable scratch) stops allocating once capacity has
    /// been established. The default implementation falls back to
    /// [`Codec::encode`] and copies; the built-in codecs override it to
    /// write in place.
    fn encode_into(&self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        let encoded = self.encode(input);
        out.extend_from_slice(&encoded);
    }

    /// Invert [`Codec::encode`]. Errors on corrupt input; never panics.
    fn decode(&self, input: &[u8]) -> Result<Vec<u8>, CodecError>;
}

/// Compression ratio as the paper quotes it: original ÷ compressed
/// (600 % ⇔ 6.0).
pub fn compression_ratio(original_len: usize, compressed_len: usize) -> f64 {
    if compressed_len == 0 {
        return f64::INFINITY;
    }
    original_len as f64 / compressed_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_matches_paper_convention() {
        assert!((compression_ratio(600, 100) - 6.0).abs() < 1e-12);
        assert_eq!(compression_ratio(10, 0), f64::INFINITY);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CodecError::new("truncated").to_string(),
            "codec error: truncated"
        );
    }
}
