//! Error type for circuit simulation.

/// Errors produced by circuit construction and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// A device parameter was non-physical (negative R, C, etc.).
    InvalidDevice {
        /// Description of the defect.
        message: String,
    },
    /// A node id was not created through [`crate::netlist::Circuit::node`].
    UnknownNode {
        /// The offending node index.
        node: usize,
    },
    /// The MNA matrix was singular (floating node, V-source loop, …).
    Singular {
        /// The pivot row at which elimination failed.
        row: usize,
    },
    /// An LDLᵀ pivot came out non-positive, or the matrix handed to the
    /// LDLᵀ is not symmetric with a positive diagonal: it is not
    /// positive definite. The DC grid solver, whose matrix is SPD
    /// whenever it is nonsingular, reports this as
    /// [`CircuitError::Singular`].
    NotPositiveDefinite {
        /// The pivot position (permuted order) at which `D` failed.
        row: usize,
    },
    /// Newton iteration failed to converge at a timestep.
    NewtonDiverged {
        /// Simulation time at which the failure occurred (seconds).
        at_seconds: f64,
        /// Iterations attempted.
        iterations: usize,
    },
    /// An invalid simulation option (non-positive step or stop time).
    InvalidOptions {
        /// Description of the defect.
        message: String,
    },
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::InvalidDevice { message } => write!(f, "invalid device: {message}"),
            CircuitError::UnknownNode { node } => write!(f, "unknown node {node}"),
            CircuitError::Singular { row } => {
                write!(f, "singular MNA matrix at pivot row {row} (floating node?)")
            }
            CircuitError::NotPositiveDefinite { row } => {
                write!(f, "matrix is not positive definite at pivot {row}")
            }
            CircuitError::NewtonDiverged {
                at_seconds,
                iterations,
            } => write!(
                f,
                "newton iteration diverged at t = {at_seconds:.3e} s after {iterations} iterations"
            ),
            CircuitError::InvalidOptions { message } => write!(f, "invalid options: {message}"),
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(CircuitError::Singular { row: 3 }
            .to_string()
            .contains("row 3"));
        assert!(CircuitError::UnknownNode { node: 7 }
            .to_string()
            .contains('7'));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CircuitError>();
    }
}
