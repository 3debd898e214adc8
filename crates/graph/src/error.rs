use std::fmt;

use crate::{EdgeId, NodeId};

/// Errors produced by graph algorithms in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// A weight slice did not have exactly one entry per edge.
    WeightCount {
        /// Number of edges in the graph.
        expected: usize,
        /// Length of the slice that was supplied.
        got: usize,
    },
    /// An edge weight was negative or not finite where the algorithm
    /// requires non-negative finite weights.
    InvalidWeight {
        /// The offending edge.
        edge: EdgeId,
        /// The offending weight value.
        weight: f64,
    },
    /// A negative-cost cycle was detected (Bellman–Ford).
    NegativeCycle,
    /// A node id referred to a node outside the graph.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// An equal-cost tolerance was negative or not finite.
    InvalidTolerance {
        /// The offending tolerance.
        tolerance: f64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphError::WeightCount { expected, got } => {
                write!(f, "expected {expected} edge weights, got {got}")
            }
            GraphError::InvalidWeight { edge, weight } => {
                write!(f, "edge {edge} has invalid weight {weight}")
            }
            GraphError::NegativeCycle => write!(f, "graph contains a negative-cost cycle"),
            GraphError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for graph with {nodes} nodes")
            }
            GraphError::InvalidTolerance { tolerance } => {
                write!(
                    f,
                    "equal-cost tolerance {tolerance} is negative or not finite"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Validates that `weights` matches the edge count of a graph with
/// `edge_count` edges and that every weight is finite and non-negative.
pub(crate) fn validate_weights(edge_count: usize, weights: &[f64]) -> Result<(), GraphError> {
    if weights.len() != edge_count {
        return Err(GraphError::WeightCount {
            expected: edge_count,
            got: weights.len(),
        });
    }
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(GraphError::InvalidWeight {
                edge: EdgeId::new(i),
                weight: w,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            GraphError::WeightCount {
                expected: 3,
                got: 2,
            },
            GraphError::InvalidWeight {
                edge: EdgeId::new(1),
                weight: -1.0,
            },
            GraphError::NegativeCycle,
            GraphError::NodeOutOfRange {
                node: NodeId::new(9),
                nodes: 4,
            },
            GraphError::InvalidTolerance { tolerance: -0.5 },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn validate_rejects_wrong_length() {
        assert_eq!(
            validate_weights(2, &[1.0]),
            Err(GraphError::WeightCount {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn validate_rejects_negative_and_nan() {
        assert!(matches!(
            validate_weights(1, &[-0.5]),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            validate_weights(1, &[f64::NAN]),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            validate_weights(1, &[f64::INFINITY]),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn validate_accepts_zero() {
        assert_eq!(validate_weights(1, &[0.0]), Ok(()));
    }
}
