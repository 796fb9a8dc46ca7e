use std::fmt;

use shc_linalg::LinalgError;

/// Errors produced by circuit construction and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// A linear-algebra operation failed (singular Jacobian, etc.).
    Linalg(LinalgError),
    /// Newton-Raphson failed to converge.
    NewtonDiverged {
        /// What was being solved, e.g. `"dc operating point"`.
        context: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
        /// Final weighted update norm (converged when ≤ 1).
        residual: f64,
    },
    /// Transient analysis could not proceed (time step underflow).
    TimestepTooSmall {
        /// Simulation time at which the step collapsed.
        time: f64,
        /// The rejected step size.
        dt: f64,
        /// Newton step cuts accumulated before the abort.
        rejected_steps: usize,
    },
    /// Circuit construction problem (bad node, duplicate name, empty netlist…).
    BadCircuit {
        /// Description of the problem.
        reason: String,
    },
    /// A device parameter was out of its valid range.
    BadParameter {
        /// Device name.
        device: String,
        /// Description of the offending parameter.
        reason: &'static str,
    },
    /// A simulation produced a non-finite value.
    NumericalBlowup {
        /// Simulation time of the blow-up.
        time: f64,
    },
    /// The netlist text could not be parsed. Malformed input must surface
    /// as an error, never abort a batch run.
    Parse {
        /// 1-based line number in the (expanded) deck.
        line: usize,
        /// Description of the syntax or semantic problem.
        message: String,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            SpiceError::NewtonDiverged {
                context,
                iterations,
                residual,
            } => write!(
                f,
                "newton-raphson diverged in {context} after {iterations} iterations (weighted residual {residual:.3e})"
            ),
            SpiceError::TimestepTooSmall {
                time,
                dt,
                rejected_steps,
            } => write!(
                f,
                "time step underflow at t = {time:.6e}s (dt = {dt:.3e}s, {rejected_steps} rejected steps)"
            ),
            SpiceError::BadCircuit { reason } => write!(f, "bad circuit: {reason}"),
            SpiceError::BadParameter { device, reason } => {
                write!(f, "bad parameter on device '{device}': {reason}")
            }
            SpiceError::NumericalBlowup { time } => {
                write!(f, "non-finite value produced at t = {time:.6e}s")
            }
            SpiceError::Parse { line, message } => {
                write!(f, "netlist line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SpiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpiceError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for SpiceError {
    fn from(e: LinalgError) -> Self {
        SpiceError::Linalg(e)
    }
}

impl From<crate::netlist::NetlistError> for SpiceError {
    fn from(e: crate::netlist::NetlistError) -> Self {
        SpiceError::Parse {
            line: e.line,
            message: e.message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = SpiceError::from(LinalgError::NotSquare { shape: (2, 3) });
        assert!(e.to_string().contains("linear algebra"));
        assert!(e.source().is_some());

        let e = SpiceError::NewtonDiverged {
            context: "transient step",
            iterations: 50,
            residual: 12.5,
        };
        assert!(e.to_string().contains("transient step"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpiceError>();
    }
}
