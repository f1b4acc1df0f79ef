//! The unified error type for the device stack.
//!
//! Historically the controller model asserted on every impossible state
//! (`panic!("MPA exhausted")`, `panic!("invalid 2-bit size code")`, …).
//! Fault injection makes those states reachable on purpose, so the core
//! paths return typed errors instead and the devices degrade gracefully
//! (see the "Fault model & degradation policy" section of DESIGN.md).

use crate::alloc::OutOfMpaSpace;

/// Any error the Compresso / LCP device stack can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressoError {
    /// Machine physical space is exhausted — the ballooning trigger
    /// (§V-B).
    OutOfMpaSpace,
    /// An allocation was requested in a size the buddy allocator does not
    /// offer (not one of 512/1024/2048/4096 bytes).
    UnsupportedAllocSize(u32),
    /// An in-memory entry violates the packed format's hardware limits
    /// and cannot be serialized.
    UnencodableMetadata(&'static str),
}

impl std::fmt::Display for CompressoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressoError::OutOfMpaSpace => OutOfMpaSpace.fmt(f),
            CompressoError::UnsupportedAllocSize(bytes) => {
                write!(
                    f,
                    "buddy allocator supports 512/1024/2048/4096 byte blocks, got {bytes}"
                )
            }
            CompressoError::UnencodableMetadata(why) => {
                write!(f, "metadata entry cannot be packed: {why}")
            }
        }
    }
}

impl std::error::Error for CompressoError {}

impl From<OutOfMpaSpace> for CompressoError {
    fn from(_: OutOfMpaSpace) -> Self {
        CompressoError::OutOfMpaSpace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(CompressoError::OutOfMpaSpace
            .to_string()
            .contains("exhausted"));
        assert!(CompressoError::UnsupportedAllocSize(1536)
            .to_string()
            .contains("1536"));
        assert!(CompressoError::UnencodableMetadata("MPFN must fit 24 bits")
            .to_string()
            .contains("MPFN"));
    }

    #[test]
    fn conversions_preserve_meaning() {
        let e: CompressoError = OutOfMpaSpace.into();
        assert_eq!(e, CompressoError::OutOfMpaSpace);
        use std::error::Error;
        assert!(e.source().is_none());
    }
}
