//! Error type for the tree-EM subsystem.

use hotwire_circuit::CircuitError;
use hotwire_em::EmError;

/// Errors produced by tree construction and the stress solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TreeEmError {
    /// A model or solver parameter was non-physical (non-positive stress
    /// threshold, zero atomic volume, …).
    InvalidParameter {
        /// Description of the defect.
        message: String,
    },
    /// The segment list does not describe a valid tree (disconnected,
    /// cyclic, bad node index, non-positive geometry).
    InvalidTree {
        /// Description of the defect.
        message: String,
    },
    /// A netlist component could not be mapped onto a supply tree — no
    /// (or more than one) boundary node, unsupported devices, or a
    /// resistor mesh containing loops.
    UnsupportedNetlist {
        /// Description of the defect.
        message: String,
    },
    /// A circuit-layer failure: the netlist did not parse, or the FV
    /// elimination met a non-positive or non-finite pivot
    /// ([`CircuitError::NotPositiveDefinite`] at that mesh node — it
    /// cannot happen for a valid mesh, so it is surfaced rather than
    /// swallowed).
    Circuit(CircuitError),
    /// A downstream per-segment EM model rejected its inputs.
    Em(EmError),
}

impl std::fmt::Display for TreeEmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeEmError::InvalidParameter { message } => {
                write!(f, "invalid Korhonen model parameter: {message}")
            }
            TreeEmError::InvalidTree { message } => {
                write!(f, "invalid interconnect tree: {message}")
            }
            TreeEmError::UnsupportedNetlist { message } => {
                write!(f, "netlist is not a supply-tree set: {message}")
            }
            TreeEmError::Circuit(e) => write!(f, "stress FV solve failed: {e}"),
            TreeEmError::Em(e) => write!(f, "segment EM model rejected input: {e}"),
        }
    }
}

impl std::error::Error for TreeEmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TreeEmError::Circuit(e) => Some(e),
            TreeEmError::Em(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for TreeEmError {
    fn from(e: CircuitError) -> Self {
        TreeEmError::Circuit(e)
    }
}

impl From<EmError> for TreeEmError {
    fn from(e: EmError) -> Self {
        TreeEmError::Em(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = TreeEmError::InvalidTree {
            message: "2 components".into(),
        };
        assert!(e.to_string().contains("2 components"));
        assert!(std::error::Error::source(&e).is_none());

        let e = TreeEmError::from(CircuitError::Singular { row: 3 });
        assert!(std::error::Error::source(&e).is_some());
    }
}
