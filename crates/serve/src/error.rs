//! The typed error surface of the serving layer.
//!
//! Every failure a caller can observe is a [`ServeError`] variant; worker
//! panics are caught at the batch boundary and converted — `resume_unwind`
//! never crosses the service API.

use start_ann::AnnError;
use start_core::encoder::EncodeError;

/// Everything that can go wrong between `submit` and `wait`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// `try_submit` found the bounded queue at capacity.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The request itself is malformed (empty view, over-length with
    /// clamping disabled); rejected before it reaches the queue.
    Invalid(EncodeError),
    /// An `index`/`knn` vector does not match the index dimension. The
    /// request is refused; the service and its index stay fully usable.
    DimensionMismatch {
        /// The dimension the index was built with.
        expected: usize,
        /// The dimension the request carried.
        got: usize,
    },
    /// Component `index` of an `index`/`knn` vector is NaN or infinite.
    /// The request is refused; the index stays unchanged.
    NonFinite {
        /// The first non-finite component.
        index: usize,
    },
    /// An encode worker panicked while this request was in flight.
    WorkerPanicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A previous worker panic poisoned the service; it no longer accepts
    /// or processes work.
    ModelPoisoned,
    /// The worker side dropped the response channel without answering —
    /// an internal invariant violation surfaced as an error, not a hang.
    ResponseDropped,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::Invalid(e) => write!(f, "invalid request: {e}"),
            Self::DimensionMismatch { expected, got } => {
                write!(f, "vector dimension mismatch: index holds {expected}, got {got}")
            }
            Self::NonFinite { index } => write!(f, "vector component {index} is not finite"),
            Self::WorkerPanicked { message } => {
                write!(f, "encode worker panicked: {message}")
            }
            Self::ModelPoisoned => {
                write!(f, "service poisoned by an earlier worker panic")
            }
            Self::ResponseDropped => write!(f, "response channel dropped without an answer"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EncodeError> for ServeError {
    fn from(e: EncodeError) -> Self {
        Self::Invalid(e)
    }
}

impl From<AnnError> for ServeError {
    fn from(e: AnnError) -> Self {
        match e {
            AnnError::DimensionMismatch { expected, got } => {
                Self::DimensionMismatch { expected, got }
            }
            AnnError::NonFinite { index } => Self::NonFinite { index },
        }
    }
}
